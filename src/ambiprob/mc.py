"""Seeded sampling oracle over a compiled kernel's class table.

It samples the table, not the procedure, so it checks the Bayes quotient that
`posterior` computes from the same table, not the compiler that built it. The
"sent home" step is a genuine rejection loop on sampled families: a family
with no kernel row is redrawn. In-run reject mass triggers a redraw of the
whole run. The generator is numpy's PCG64 (a published, seedable algorithm).

Emission probabilities are exact rationals; sampling scales them to a common
integer denominator, so no floating-point comparison enters the draw itself.
A trial is a family and an integer u below that denominator, and its code
says whether it emits another statement, is rejected in-run, is sent home,
matches the statement, or matches where the event holds. `_compile_tables`
gives each distinct triple of thresholds of the class table one line, and
once per `sample_posterior` call, shared by every shard, `_sampling_tables`
picks one of three layouts:

- A code table over every (family, u) pair, where families x denominator is
  at most `_TABLE_MAX` (2^22 entries, 4 MiB). A trial is one draw X below that
  product, standing for family X // denom and u = X % denom, and one `take`
  gives its code. The table is `_Bounds.codes`, evaluated once per (line,
  event, u) and then taken per family.
- `_compile_tables`' own tables beyond it: a block draws its families, then
  their u values, and reads each draw's thresholds from its family's line
  through `which`. The u values are int64, whatever the denominator, and a
  family keeps no bytes beyond its event and its line.
- `_Wide`, where the denominator passes int64: the same two draws, but u is
  read from a uniform x in [0, 1) whose first 63 bits are compared with each
  threshold's first 63 bits. A draw whose bits equal an inexact threshold's
  reads 63 more bits at a time, in plain Python, until it is decided: the lazy
  comparison of Knuth & Yao, "The complexity of nonuniform random number
  generation" (1976). So the draw is exact at any denominator.

`_classify` is the one classifier of a trial in all three. With a
denominator of 1, X is the family index and a u draw takes nothing from the
generator, so the first two layouts draw the same stream. A shard draws and
classifies 2^14 trials at a time (a block), so its temporaries stay
cache-sized, and stops at the block that holds its last needed match: it
draws nothing beyond it. From a block's codes on, every layout shares one
path: `np.count_nonzero` counts each block's sent-home, rejected, hit and
matching codes, and `argmax` on the match mask and on its reverse gives its
first and last match. Only the block that holds the shard's last needed
match lists its matches, to cut the block there. Identical (seed, config,
protocol, trial count, shards) give bit-identical results. The redraw cap,
`_REDRAW_CAP` = 10,000,000 draws, is checked once per block: against the run
of misses that the block's first match ends, or, in a block without a match,
against the run carried past its end. A run between two matches of one block
is shorter than a block, so it cannot exceed the cap. The first run above the
cap raises DegenerateProtocol and is named in its message.

A shard draws its bounded integers through `_Stream`, which draws what
`Generator.integers` draws, value for value, and leaves the generator in the
same state (`test_split_bounded_draws_equal_one_draw` checks both). A bound
n of at most 2^32 is drawn from the bit generator's raw 64-bit words, split
into 32-bit halves, low half first, as PCG64's `next32` gives them. A half h
gives (h * n) >> 32, and is skipped where (h * n) mod 2^32 is below
2^32 mod n: Lemire's method, "Fast Random Integer Generation in an
Interval" (ACM TOMACS, 2019), which numpy runs one half at a time and
`_Stream` runs over a whole block. A half left over at the end of a draw is
carried into the shard's next draw. A bound above 2^32 is drawn by the
Generator itself, whose 64-bit path leaves the carried half alone.

A draw costs O(1) time and memory whatever the number of distinct
statements, and the sampler builds no list of families: the tables are
streamed from the product of the week's children.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .engine import ProtocolKernel, Statement, never_emitted, posterior
from .errors import DegenerateProtocol
from .model import QueryPredicate, compile_query, week_children

_BLOCK = 1 << 14  # draws classified at a time, so temporaries stay in cache
_TABLE_MAX = 1 << 22  # (family, u) pairs a code table may hold: 4 MiB
# Draws in a row without a statement match that raise DegenerateProtocol. A
# run between two matches of one block is shorter than a block, so with a cap
# of at least one block only the runs that cross a block boundary can exceed it.
_REDRAW_CAP = 10_000_000
_INT64_MAX = (1 << 63) - 1
# Bits of x that a wide-denominator draw reads at a time; the prefix of a
# threshold t = denom is 2^63, which still fits uint64.
_PREFIX = 63
# A draw's code: a trial that emits another statement, a run rejected in-run,
# a family sent home, a statement match, and a match where the event holds.
# `_classify` alone assigns them: `u >= tot` read as uint8 is _MISS or
# _REJECT, and the sent-home line (tot 0) adds 1 to its _REJECT to make _HOME.
_MISS, _REJECT, _HOME, _MATCH, _HIT = range(5)
# McResult's counters, summed over a shard's blocks and over the shards.
_COUNTERS = ("trials", "rejected_families", "rejected_runs", "hits", "statement_matches")


@dataclass(frozen=True)
class McResult:
    trials: int  # accepted runs (emitted any statement)
    rejected_families: int  # pre-filter "sent home" redraws
    rejected_runs: int  # in-procedure reject redraws
    hits: int
    statement_matches: int
    estimate: float
    stderr: float
    seed: int
    shards: int


@dataclass(frozen=True)
class AgreementReport:
    result: McResult
    exact: Fraction
    tolerance: float
    passed: bool


class _Stream:
    """A shard's Generator, whose `integers` draws what `Generator.integers`
    draws, for low = 0 and a 64-bit integer dtype: by Lemire's method over
    32-bit halves of raw words where the bound is at most 2^32 (see the
    module docstring), by the Generator itself above it. `close` hands the
    carried half back to the bit generator, as PCG64 would have buffered it.
    """

    def __init__(self, rng):
        self.rng = rng
        state = rng.bit_generator.state
        # PCG64's buffer: the high half of the last word split into halves,
        # and 1 while that half is still to be drawn
        self.half, self.carried = state["uinteger"], state["has_uint32"]

    def integers(self, low, high, size=None, dtype=np.int64):
        n = high - low
        if n > 1 << 32:
            return self.rng.integers(low, high, size=size, dtype=dtype)
        if size is None:
            return self.integers(low, high, 1, dtype)[0]
        if n == 1:  # numpy draws nothing
            return np.zeros(size, dtype)
        skip = (1 << 32) % n
        parts = []
        while size:
            m = self._halves(size)
            m *= n
            keep = m.astype(np.uint32) >= skip  # (h * n) mod 2^32 >= skip
            kept = int(np.count_nonzero(keep))
            # the extra half is left over where the halves before it suffice
            self.carried = int(kept - int(keep[-1]) >= size)
            m >>= 32
            parts.append((m if kept == m.size else m[keep])[:size])
            size -= parts[-1].size
        return (parts[0] if len(parts) == 1 else np.concatenate(parts)).view(dtype)

    def _halves(self, k):
        """The stream's next k halves, as uint64, or k + 1 where k is odd and
        no half is carried: the carried half, then the halves of whole words."""
        raw = self.rng.bit_generator.random_raw((k - self.carried + 1) // 2)
        m = np.empty(self.carried + 2 * raw.size, np.uint64)
        m[:self.carried] = self.half
        m[self.carried:] = raw.astype("<u8", copy=False).view("<u4")  # low half first
        self.half, self.carried = int(m[-1]), 0
        return m

    def close(self):
        """Leave the bit generator in the state numpy's own draws would."""
        bits = self.rng.bit_generator
        state = bits.state
        state["uinteger"], state["has_uint32"] = self.half, self.carried
        bits.state = state


def _classify(home, hit, ge_lo, lt_hi, ge_tot):
    """The codes of draws from their comparisons with their lines' thresholds
    (`ge_lo` for u >= lo, and so on), where `home` is True on the sent-home
    line and `hit` (uint8) is 1 if the event holds in the draw's family; the
    one classifier of a trial."""
    return np.where(ge_lo & lt_hi, _MATCH + hit, ge_tot.view(np.uint8) + home)


class _Bounds(NamedTuple):
    """Integer sampling tables over a common denominator, and the two-draw
    layout of a sample whose code table would exceed `_TABLE_MAX`.

    Per family, `event` and `which`, its line (the last line: no row, sent
    home); per line, the thresholds `lo`, `hi` and `tot`, int64, or Python
    ints where the denominator passes int64. A block draws its families, then
    their u values: a draw u in [lo, hi) of its family's line matches, and
    u >= tot rejects in-run. The sent-home line's thresholds are 0, so each of
    its draws is a reject that the sent-home test lifts to _HOME.
    """

    event: np.ndarray
    which: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    tot: np.ndarray
    denom: int

    def codes(self, line, hit, u):
        """The codes of draws u on lines `line`, where `hit` is as for `_classify`."""
        return _classify(line == self.lo.shape[0] - 1, hit, self.lo.take(line) <= u,
                         u < self.hi.take(line), u >= self.tot.take(line))

    def block(self, rng):
        """A block's families, then its u values, classified into codes."""
        fam = rng.integers(0, self.which.shape[0], size=_BLOCK)
        u = rng.integers(0, self.denom, size=_BLOCK)
        return self.codes(self.which.take(fam), self.event.view(np.uint8).take(fam), u)


def _compile_tables(k: ProtocolKernel, s: Statement, q: QueryPredicate) -> _Bounds:
    """The kernel's `_Bounds` for statement `s` and event `q`.

    With statements ordered by first appearance over the table, a row's `lo`
    is the emitted mass of the statements before the target, `hi` adds the
    target's mass and `tot` is the total emitted mass. Rows with equal
    thresholds share one line; the sent-home line comes last, apart.
    """
    cfg = k.config
    families = itertools.product(week_children(cfg), repeat=cfg.family_size)
    event = np.fromiter(map(compile_query(q, cfg), families), bool, cfg.n_outcomes)
    distinct = list(k.table.values())

    earlier: set[Statement] = set()  # statements ordered before the target
    for st in (st for row in distinct for st in row):
        if st == s:
            break
        earlier.add(st)
    else:
        raise never_emitted(k, s)

    denom = math.lcm(*{w.denominator for row in distinct for w in row.values()})
    is_earlier = dict.fromkeys(earlier, True)
    is_earlier[s] = False
    lines: dict[tuple[int, int, int], int] = {}  # (lo, hi, tot) -> line
    line = {}  # class vector -> line
    for vector, row in k.table.items():
        before = target = total = 0
        for st, w in row.items():
            n, d = w.as_integer_ratio()
            mass = n * (denom // d)
            total += mass
            place = is_earlier.get(st)  # None: ordered after the target
            if place:
                before += mass
            elif place is not None:
                target = mass
        line[vector] = lines.setdefault((before, before + target, total), len(lines))
    vectors = itertools.product(k.child_class, repeat=cfg.family_size)
    which = np.fromiter(map(line.get, vectors, itertools.repeat(len(lines))),
                        np.intp, cfg.n_outcomes)
    dtype = np.int64 if denom <= _INT64_MAX else object
    lo, hi, tot = (np.array([*t, 0], dtype) for t in zip(*lines))
    return _Bounds(event, which, lo, hi, tot, denom)


class _Codes(NamedTuple):
    """The code of every (family, u) pair, at index family * denom + u: a
    draw X below its length is one trial, family X // denom and u = X % denom."""

    table: np.ndarray

    def block(self, rng):
        return self.table.take(rng.integers(0, self.table.shape[0], size=_BLOCK))


def _settle(rng, rems, denom):
    """{j: whether x < t_j/denom} for the thresholds t_j that one draw ties
    with, where rems[j] = t_j * 2^k - w * denom, in (0, denom), for the k bits
    w of x read so far. Reads `_PREFIX` more bits of x at a time, shared by
    the ties, until each is decided."""
    below = {}
    while rems:
        w = int(rng.integers(0, 1 << _PREFIX, dtype=np.uint64))
        for j, rem in list(rems.items()):
            prefix, rem = divmod(rem << _PREFIX, denom)
            if w != prefix or not rem:
                below[j] = w < prefix
                del rems[j]
            else:
                rems[j] = rem
    return below


class _Wide(NamedTuple):
    """The two-draw layout of a denominator past int64.

    u below denom is the integer part of x * denom, for x uniform in [0, 1),
    so u < t exactly when x < t/denom. A block draws its families, then the
    first `_PREFIX` bits w of each x, and compares w with each threshold's
    prefix, floor(t * 2^_PREFIX / denom), kept per line in `prefix` as
    uint64 (lo, hi, tot). A w above or below the prefix decides the
    comparison; a w equal to an inexact prefix (a tie, chance 2^-_PREFIX) is
    settled in plain Python by `_settle`, draw by draw in block order.
    """

    bounds: _Bounds
    prefix: tuple[np.ndarray, np.ndarray, np.ndarray]

    def block(self, rng):
        b = self.bounds
        fam = rng.integers(0, b.which.shape[0], size=_BLOCK)
        w = rng.integers(0, 1 << _PREFIX, size=_BLOCK, dtype=np.uint64)
        line = b.which.take(fam)
        at = [p.take(line) for p in self.prefix]
        below = [w < p for p in at]
        for i in np.flatnonzero((w == at[0]) | (w == at[1]) | (w == at[2])).tolist():
            rems = {}
            for j, t in enumerate((b.lo[line[i]], b.hi[line[i]], b.tot[line[i]])):
                rem = (t << _PREFIX) - int(w[i]) * b.denom
                if 0 < rem < b.denom:  # w is t's prefix, and t is inexact: a tie
                    rems[j] = rem
            for j, lt in _settle(rng, rems, b.denom).items():
                below[j][i] = lt
        return _classify(line == b.lo.shape[0] - 1, b.event.view(np.uint8).take(fam),
                         ~below[0], below[1], ~below[2])


def _sampling_tables(t: _Bounds) -> _Codes | _Bounds | _Wide:
    """The tables every shard of one call draws from: `_Wide` where the
    denominator passes int64, the code table where it has at most
    `_TABLE_MAX` entries, `_compile_tables`' own tables otherwise."""
    denom = t.denom
    if denom > _INT64_MAX:
        return _Wide(t, tuple(np.array([(x << _PREFIX) // denom for x in col.tolist()],
                                        np.uint64) for col in (t.lo, t.hi, t.tot)))
    if t.which.shape[0] * denom > _TABLE_MAX:
        return t
    # each line's codes over u, then again where the event holds (row 2 *
    # line + event), classified in slices of up to 8 blocks (`step` lines by
    # _BLOCK values of u), so no temporary grows with the number of lines
    both = np.empty((t.lo.shape[0], 2, denom), np.uint8)
    hit = np.array([[0], [1]], np.uint8)
    step = 8 * _BLOCK // min(denom, _BLOCK)
    for r in range(0, both.shape[0], step):
        line = np.arange(r, min(r + step, both.shape[0]))[:, None, None]
        for u in range(0, denom, _BLOCK):
            both[r:r + step, :, u:u + _BLOCK] = t.codes(
                line, hit, np.arange(u, min(u + _BLOCK, denom)))
    return _Codes(both.reshape(-1, denom).take(2 * t.which + t.event, axis=0).ravel())


def _run_shard(rng, tables, n_matches):
    stream = _Stream(rng)
    counters = dict.fromkeys(_COUNTERS, 0)
    misses = 0  # draws without a statement match since the last match
    while True:
        codes = tables.block(stream)
        match = codes >= _MATCH
        n_match = int(np.count_nonzero(match))
        needed = n_matches - counters["statement_matches"]
        # the run that the block's first match ends, or that a block without
        # one lengthens: the one run of the block that can exceed the cap
        run = misses + (int(match.argmax()) if n_match else _BLOCK)
        if run > _REDRAW_CAP:
            raise DegenerateProtocol(
                f"{run} consecutive draws without a statement match "
                "(cap exceeded); statement mass is zero or vanishingly small"
            )
        last = n_match >= needed
        if last:  # the block ends at the last match the shard needs
            codes = codes[:np.flatnonzero(match)[needed - 1] + 1]
            n_match = needed
        else:
            misses = int(match[::-1].argmax()) if n_match else run  # after the last match
        n_home = int(np.count_nonzero(codes == _HOME))
        n_rejected = int(np.count_nonzero(codes == _REJECT))
        counters["rejected_families"] += n_home
        counters["rejected_runs"] += n_rejected
        counters["trials"] += codes.size - n_home - n_rejected
        counters["statement_matches"] += n_match
        counters["hits"] += int(np.count_nonzero(codes == _HIT))
        if last:
            stream.close()
            return counters


def sample_posterior(
    kernel: ProtocolKernel,
    s: Statement,
    q: QueryPredicate,
    n_trials: int,
    seed: int,
    shards: int = 1,
) -> McResult:
    """Empirical posterior from n_trials statement-matching runs.

    Raises ValueError if n_trials or shards is below 1, ZeroStatementMass if the
    statement is never emitted, and DegenerateProtocol if more than
    `_REDRAW_CAP` (10,000,000) draws in a row miss it.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if shards < 1:
        raise ValueError("shards must be >= 1")
    tables = _sampling_tables(_compile_tables(kernel, s, q))

    # A spawned stream depends only on its index, so shards beyond n_trials,
    # which would get no trials, need no stream.
    seqs = np.random.SeedSequence(seed).spawn(min(shards, n_trials))
    totals = dict.fromkeys(_COUNTERS, 0)
    base, rem = divmod(n_trials, shards)
    for i, seq in enumerate(seqs):
        quota = base + (1 if i < rem else 0)
        rng = np.random.Generator(np.random.PCG64(seq))
        part = _run_shard(rng, tables, quota)
        for key, value in part.items():
            totals[key] += value

    estimate = totals["hits"] / n_trials
    stderr = math.sqrt(estimate * (1.0 - estimate) / n_trials)
    return McResult(**totals, estimate=estimate, stderr=stderr, seed=seed, shards=shards)


def agreement_check(
    kernel: ProtocolKernel,
    s: Statement,
    q: QueryPredicate,
    n_trials: int,
    seed: int,
    shards: int = 1,
) -> AgreementReport:
    """Pass iff |estimate - exact| <= max(0.005, 5 * stderr), where exact is
    `posterior`'s answer."""
    exact = posterior(kernel, s, q).posterior
    result = sample_posterior(kernel, s, q, n_trials, seed, shards=shards)
    tolerance = max(0.005, 5.0 * result.stderr)
    passed = abs(result.estimate - float(exact)) <= tolerance
    return AgreementReport(result, exact, tolerance, passed)
