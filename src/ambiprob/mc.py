"""Seeded sampling oracle over a compiled kernel's class table.

It samples the table, not the procedure, so it checks the Bayes quotient that
`posterior` computes from the same table, not the compiler that built it. The
"sent home" step is a genuine rejection loop on sampled families: a family
with no kernel row is redrawn. In-run reject mass triggers a redraw of the
whole run. The generator is numpy's PCG64 (a published, seedable algorithm).
Each shard draws its families 2^18 at a time (a chunk) and each chunk's u values
2^14 at a time (a block), and classifies one block at a time, so its temporaries
stay cache-sized. numpy's bounded draws take their values from the generator in
turn, so a chunk's blocks draw what one draw per chunk would, and results are
bit-identical for identical (seed, config, protocol, trial count, shards). A
shard stops at the block that holds its last needed match. The redraw cap is
checked at each match, against the run of misses that the match ends, and at
the end of a chunk only if the chunk had no match; the first run above the cap
raises DegenerateProtocol and is named in its message. A block's runs between
matches are measured only when its first and last match lie more than the cap
apart, as only then can one of them exceed it.

Emission probabilities are exact rationals; sampling scales them to a common
integer denominator, so no floating-point comparison enters the draw itself.
Each draw is a family index and an integer u below that denominator.
`_compile_tables` gives each line of the class table three thresholds, and once
per `sample_posterior` call, shared by every shard, `_family_bounds` turns them
into bounds per family: a draw matches when u minus the family's `lo`, read
unsigned, is below its `width` (one subtraction and one comparison). Whether
any family is sent home and whether any line rejects in-run is decided once per
table. With neither, every draw is a trial and no counting pass runs; otherwise
one lookup of the family's emitted mass (-1: sent home) per draw gives both
counts. A family keeps one event byte plus 4 bytes for `lo`, for `width` and,
where counts are needed, for its mass: 9 or 13 bytes, or 8 bytes per bound when
the denominator does not fit int32. So a draw costs O(1) time and memory
whatever the number of distinct statements, and the sampler builds no list of
families: the tables are streamed from the product of the week's children. The
common denominator must fit in int64; a kernel whose denominators have a larger
LCM raises `OverflowError`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .engine import ProtocolKernel, Statement, posterior, render_statement
from .errors import DegenerateProtocol, ZeroStatementMass
from .model import QueryPredicate, compile_query, week_children

_CHUNK = 1 << 18  # family draws per chunk
_BLOCK = 1 << 14  # draws classified at a time, so temporaries stay in cache
# McResult's counters, summed over a shard's chunks and over the shards.
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


def _compile_tables(k: ProtocolKernel, s: Statement, q: QueryPredicate):
    """Integer sampling tables over a common denominator: per family, the
    event and the line of its row in the kernel's table (one past the last
    line: no row, sent home); per line, the thresholds `lo`/`hi`/`tot`.

    With statements ordered by first appearance over the table, `lo` is the
    emitted mass of the statements before the target, `hi` adds the target's
    mass and `tot` is the total emitted mass; a draw u in [lo, hi) emits the
    target and u >= tot rejects in-run.
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
        raise ZeroStatementMass(
            f"statement {render_statement(s, k.config)} is never emitted under this protocol"
        )

    denom = math.lcm(*{w.denominator for row in distinct for w in row.values()})
    if denom > np.iinfo(np.int64).max:
        raise OverflowError(f"common denominator {denom} does not fit in int64")

    is_earlier = dict.fromkeys(earlier, True)
    is_earlier[s] = False
    lo, hi, tot = [], [], []
    for row in distinct:
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
        lo.append(before)
        hi.append(before + target)
        tot.append(total)
    line = dict(zip(k.table, itertools.count()))
    vectors = itertools.product(k.child_class, repeat=cfg.family_size)
    which = np.fromiter(map(line.get, vectors, itertools.repeat(len(distinct))),
                        np.intp, cfg.n_outcomes)
    lo, hi, tot = (np.array(t + [0], dtype=np.int64) for t in (lo, hi, tot))
    return event, which, lo, hi, tot, denom


class _Bounds(NamedTuple):
    """The per-family tables every shard of one call classifies against.

    A draw u of family f matches when ``u - lo[f]``, read unsigned, is below
    ``width[f] = hi - lo``: a u below `lo` wraps past every width. `tot[f]` is
    the family's emitted mass, -1 if it is sent home. `home` and `rejects`
    say whether any family is sent home and whether any line rejects in-run;
    with neither, `tot` is None and every draw is a trial. When the common
    denominator fits int32, so do the tables and the draws of u.
    """

    event: np.ndarray
    lo: np.ndarray
    width: np.ndarray
    tot: np.ndarray | None
    home: bool
    rejects: bool
    denom: int


def _family_bounds(event, which, lo, hi, tot, denom) -> _Bounds:
    """`_Bounds` from `_compile_tables`' per-line tables."""
    sent_home = lo.shape[0] - 1  # the line of a family with no row
    home = int(which.max()) == sent_home
    rejects = bool((tot[:sent_home] < denom).any())
    small = denom <= np.iinfo(np.int32).max
    signed, unsigned = (np.int32, np.uint32) if small else (np.int64, np.uint64)
    width = (hi - lo).astype(unsigned).take(which)
    lo = lo.astype(signed).take(which)
    if home or rejects:
        tot = tot.astype(signed)
        tot[sent_home] = -1
        tot = tot.take(which)
    else:
        tot = None
    return _Bounds(event, lo, width, tot, home, rejects, denom)


def _cap_exceeded(run):
    return DegenerateProtocol(
        f"{run} consecutive draws without a statement match "
        "(cap exceeded); statement mass is zero or vanishingly small"
    )


def _run_shard(rng, event, lo, width, tot, home, rejects, denom, n_matches, cap):
    n_fam = lo.shape[0]
    counters = dict.fromkeys(_COUNTERS, 0)
    misses = 0  # draws without a statement match since the last match
    while True:
        chunk = rng.integers(0, n_fam, size=_CHUNK)  # each draw's family
        matched = False
        for start in range(0, _CHUNK, _BLOCK):
            fam = chunk[start:start + _BLOCK]
            # the block's u values continue the chunk's stream: split bounded
            # draws equal one draw of their total size, in int32 as in int64
            u = rng.integers(0, denom, size=_BLOCK, dtype=lo.dtype)
            needed = n_matches - counters["statement_matches"]
            # the block ends at the last match the shard needs
            off = (u - lo.take(fam)).view(width.dtype)
            at = np.flatnonzero(off < width.take(fam))[:needed]
            last = at.size == needed

            if at.size:
                first, final = int(at[0]), int(at[-1])
                end = final + 1 if last else _BLOCK
                # the runs of misses that the matches end: the first, with the
                # misses carried in, and those between matches only if the
                # block's matches are far enough apart for one to exceed the cap
                if misses + first > cap:
                    raise _cap_exceeded(misses + first)
                if final - first > cap + 1:
                    gaps = np.diff(at) - 1
                    over = np.flatnonzero(gaps > cap)
                    if over.size:
                        raise _cap_exceeded(int(gaps[over[0]]))
                misses = end - 1 - final
                matched = True
            else:
                end = _BLOCK
                misses += _BLOCK

            n_home, n_emitted = 0, end
            if tot is not None:
                t = tot.take(fam[:end])
                if home:
                    n_home = int(np.count_nonzero(t < 0))
                    n_emitted -= n_home
                if rejects:  # a sent-home family's -1 is below every u
                    n_emitted = int(np.count_nonzero(u[:end] < t))
            counters["rejected_families"] += n_home
            counters["rejected_runs"] += end - n_home - n_emitted  # in-run rejects
            counters["trials"] += n_emitted
            counters["statement_matches"] += at.size
            counters["hits"] += int(np.count_nonzero(event.take(fam.take(at))))
            if last:
                return counters
        # a chunk without a match only lengthens the carried run
        if not matched and misses > cap:
            raise _cap_exceeded(misses)
        del chunk, fam  # so the next chunk is not drawn beside this one


def sample_posterior(
    kernel: ProtocolKernel,
    s: Statement,
    q: QueryPredicate,
    n_trials: int,
    seed: int,
    shards: int = 1,
    redraw_cap: int = 10_000_000,
) -> McResult:
    """Empirical posterior from n_trials statement-matching runs.

    Raises ValueError if n_trials or shards is below 1, ZeroStatementMass if the
    statement is never emitted, DegenerateProtocol if `redraw_cap` draws in a row
    miss it, and OverflowError if the common denominator does not fit in int64.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if shards < 1:
        raise ValueError("shards must be >= 1")
    tables = _family_bounds(*_compile_tables(kernel, s, q))

    # A spawned stream depends only on its index, so shards beyond n_trials,
    # which would get no trials, need no stream.
    seqs = np.random.SeedSequence(seed).spawn(min(shards, n_trials))
    totals = dict.fromkeys(_COUNTERS, 0)
    base, rem = divmod(n_trials, shards)
    for i, seq in enumerate(seqs):
        quota = base + (1 if i < rem else 0)
        rng = np.random.Generator(np.random.PCG64(seq))
        part = _run_shard(rng, *tables, quota, redraw_cap)
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
    exact: Fraction | None = None,
) -> AgreementReport:
    """Pass iff |estimate - exact| <= max(0.005, 5 * stderr)."""
    if exact is None:
        exact = posterior(kernel, s, q).posterior
    result = sample_posterior(kernel, s, q, n_trials, seed, shards=shards)
    tolerance = max(0.005, 5.0 * result.stderr)
    passed = abs(result.estimate - float(exact)) <= tolerance
    return AgreementReport(result, exact, tolerance, passed)
