"""Seeded sampling oracle that executes protocols literally.

The "sent home" step is a genuine rejection loop on sampled families: a family
with no kernel row is redrawn. In-run reject mass triggers a redraw of the
whole run. The generator is numpy's PCG64 (a published, seedable algorithm),
driven in fixed-size chunks so results are bit-identical for identical (seed,
config, protocol, trial count, shards).

Emission probabilities are exact rationals; sampling scales them to a common
integer denominator, so no floating-point comparison enters the draw itself.
Each draw is a family index and an integer u below that denominator, classified
against three per-family thresholds (see `_compile_tables`), so a draw costs
O(1) time and memory whatever the number of distinct statements. The common
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
    """Integer sampling tables over a common denominator: per family, whether
    it has a row (no row: sent home), the event, and the thresholds
    `lo`/`hi`/`tot`.

    With statements ordered by first appearance over `enumerate_families`,
    `lo` is the emitted mass of the statements before the target, `hi` adds
    the target's mass and `tot` is the total emitted mass; a draw u in
    [lo, hi) emits the target and u >= tot rejects in-run. The thresholds
    are computed once per distinct row and spread to the families sharing it.
    """
    fams = enumerate_families(k.config)
    event = np.fromiter(map(compile_query(q, k.config), fams), bool, len(fams))
    # a repeated row adds no statement, so first appearance over the distinct
    # rows is first appearance over the families
    distinct = [row for row, _ in k.distinct_rows()]

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

    # (lo, hi, tot) of each distinct row, then zeros for the families sent
    # home, which the sampler never reads
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
    line = dict(zip(map(id, distinct), itertools.count()))
    line[id(None)] = len(distinct)
    which = np.fromiter(map(line.__getitem__, map(id, map(k.rows.get, fams))),
                        np.intp, len(fams))
    passes = which < len(distinct)
    lo, hi, tot = (np.array(t + [0], dtype=np.int64)[which] for t in (lo, hi, tot))
    return passes, event, lo, hi, tot, denom


def _run_shard(rng, passes, event, lo, hi, tot, denom, n_matches, cap):
    n_fam = passes.shape[0]
    counters = dict.fromkeys(_COUNTERS, 0)
    consecutive_misses = 0
    while counters["statement_matches"] < n_matches:
        fam = rng.integers(0, n_fam, size=_CHUNK)
        u = rng.integers(0, denom, size=_CHUNK)
        ok = passes[fam]  # False: sent home before the procedure runs
        emitted = ok & (u < tot[fam])  # ok and not emitted: in-run reject
        match = ok & (lo[fam] <= u) & (u < hi[fam])

        n_new = int(np.count_nonzero(match))
        needed = n_matches - counters["statement_matches"]
        if n_new >= needed:
            cutoff = int(np.nonzero(match)[0][needed - 1]) + 1
            fam, ok, emitted, match = fam[:cutoff], ok[:cutoff], emitted[:cutoff], match[:cutoff]
            n_new = needed

        if n_new == 0:
            consecutive_misses += len(fam)
            longest_gap = consecutive_misses
        else:
            positions = np.nonzero(match)[0]
            leading = consecutive_misses + int(positions[0])
            internal = int(np.diff(positions).max() - 1) if n_new > 1 else 0
            longest_gap = max(leading, internal)
            consecutive_misses = len(fam) - 1 - int(positions[-1])
        if longest_gap > cap:
            raise DegenerateProtocol(
                f"{longest_gap} consecutive draws without a statement match "
                "(cap exceeded); statement mass is zero or vanishingly small"
            )

        n_ok = int(np.count_nonzero(ok))
        n_emitted = int(np.count_nonzero(emitted))
        counters["rejected_families"] += len(fam) - n_ok
        counters["rejected_runs"] += n_ok - n_emitted
        counters["trials"] += n_emitted
        counters["statement_matches"] += n_new
        counters["hits"] += int(np.count_nonzero(match & event[fam]))
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
