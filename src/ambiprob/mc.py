"""Seeded sampling oracle that executes protocols literally.

The "sent home" step is a genuine rejection loop on sampled families: a family
with no kernel row is redrawn. In-run reject mass triggers a redraw of the
whole run. The generator is numpy's PCG64 (a published, seedable algorithm),
driven in fixed-size chunks so results are bit-identical for identical (seed,
config, protocol, trial count, shards).

Emission probabilities are exact rationals; sampling scales them to a common
integer denominator, so no floating-point comparison enters the draw itself.
Each draw is a family index and an integer u below that denominator, classified
against three thresholds of the family's row (see `_compile_tables`), so a draw
costs O(1) time and memory whatever the number of distinct statements. The common
denominator must fit in int64; a kernel whose denominators have a larger LCM
raises `OverflowError`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .engine import ProtocolKernel, Statement, posterior, render_statement
from .errors import DegenerateProtocol
from .model import QueryPredicate, compile_query, enumerate_families

_CHUNK = 1 << 18
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
    fams = enumerate_families(k.config)
    event = np.fromiter(map(compile_query(q, k.config), fams), bool, len(fams))
    distinct = list(k.table.values())

    earlier: set[Statement] = set()  # statements ordered before the target
    for st in (st for row in distinct for st in row):
        if st == s:
            break
        earlier.add(st)
    else:
        raise DegenerateProtocol(
            f"statement {render_statement(s, k.config)} is never emitted (zero mass)"
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
    vectors = itertools.product(k.child_class, repeat=k.config.family_size)
    which = np.fromiter(map(line.get, vectors, itertools.repeat(len(distinct))),
                        np.intp, len(fams))
    lo, hi, tot = (np.array(t + [0], dtype=np.int64) for t in (lo, hi, tot))
    return event, which, lo, hi, tot, denom


def _run_shard(rng, event, which, lo, hi, tot, denom, n_matches, cap):
    n_fam = which.shape[0]
    sent_home = lo.shape[0] - 1
    counters = dict.fromkeys(_COUNTERS, 0)
    consecutive_misses = 0
    while counters["statement_matches"] < n_matches:
        draw = rng.integers(0, n_fam, size=_CHUNK)  # each draw's family
        u = rng.integers(0, denom, size=_CHUNK)
        holds = event[draw]
        # each draw's table line; rebinding frees the families at once, which
        # keeps the chunk's page faults and peak memory at two arrays of draws
        draw = which[draw]
        # the sent-home line is all zeros, so it never emits or matches
        emitted = u < tot[draw]  # not emitted: sent home or in-run reject
        match = (lo[draw] <= u) & (u < hi[draw])
        home = draw == sent_home

        n_new = int(np.count_nonzero(match))
        needed = n_matches - counters["statement_matches"]
        if n_new >= needed:
            cutoff = int(np.nonzero(match)[0][needed - 1]) + 1
            home, holds, emitted, match = home[:cutoff], holds[:cutoff], emitted[:cutoff], match[:cutoff]
            n_new = needed

        if n_new == 0:
            consecutive_misses += len(match)
            longest_gap = consecutive_misses
        else:
            positions = np.nonzero(match)[0]
            leading = consecutive_misses + int(positions[0])
            internal = int(np.diff(positions).max() - 1) if n_new > 1 else 0
            longest_gap = max(leading, internal)
            consecutive_misses = len(match) - 1 - int(positions[-1])
        if longest_gap > cap:
            raise DegenerateProtocol(
                f"{longest_gap} consecutive draws without a statement match "
                "(cap exceeded); statement mass is zero or vanishingly small"
            )

        n_home = int(np.count_nonzero(home))
        n_emitted = int(np.count_nonzero(emitted))
        counters["rejected_families"] += n_home
        counters["rejected_runs"] += len(match) - n_home - n_emitted
        counters["trials"] += n_emitted
        counters["statement_matches"] += n_new
        counters["hits"] += int(np.count_nonzero(match & holds))
    return counters


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

    Raises ValueError if n_trials or shards is below 1, DegenerateProtocol if
    the statement is never emitted or `redraw_cap` draws in a row miss it, and
    OverflowError if the kernel's common denominator does not fit in int64.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if shards < 1:
        raise ValueError("shards must be >= 1")
    tables = _compile_tables(kernel, s, q)

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
