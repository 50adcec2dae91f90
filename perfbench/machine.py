"""Steady timings on a shared machine.

The machine this benchmark was written on shares its CPUs with other
tenants. The same op ran up to 1.6 times slower from one minute to the next,
and one CPU could be much slower than the other while a neighbour loaded its
sibling thread. Two things keep the reported numbers steady:

* the process pins itself, every few ops, to the CPU that currently runs a
  reference workload fastest;
* every op is preceded by a timing of that reference, and the reported
  latencies are rescaled to a machine on which the reference takes
  `REF_SECONDS`. The rescale uses the median of the reference timings taken
  around each op, because the machine's speed changes within seconds.

The reference is frozen benchmark code and runs no ambiprob code, so a
change to the program moves the rescaled numbers as it moves the raw ones.
"""

from __future__ import annotations

import os
import statistics
import time
from fractions import Fraction

import numpy as np

# The reference's time on a quiet CPU of the machine the baseline was measured on.
REF_SECONDS = 0.002
WINDOW = 2  # reference timings on each side of an op behind its rescale factor
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []

_KEYS = [(i % 2, i % 7, i // 14) for i in range(500)]
_DRAWS = np.random.default_rng(0)
_TABLE = np.cumsum(_DRAWS.integers(0, 4, size=(196, 14)), axis=1)


def reference() -> float:
    """Best of two timings of a fixed mini-workload made of the operations
    ambiprob spends its time in: for the exact layers a dict of Fractions
    keyed by tuples, an exact sum and a sort by a rendered key; for the
    sampler integer draws, a gather from a threshold table and a compare."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        weights = {k: Fraction(1, 1 + k[1] + k[2]) for k in _KEYS}
        sum(weights.values(), Fraction(0))
        sorted(weights, key=lambda k: f"{k[0]}@{k[1]},{k[2]}")
        fam = _DRAWS.integers(0, len(_TABLE), size=1 << 13)
        u = _DRAWS.integers(0, int(_TABLE[:, -1].max()) + 1, size=1 << 13)
        (_TABLE[fam] <= u[:, None]).sum(axis=1)
        best = min(best, time.perf_counter() - start)
    return best


def pin_quietest_cpu() -> None:
    """Move this process to the allowed CPU that runs the reference fastest now."""
    if len(CPUS) < 2:
        return
    timings: dict[int, list[float]] = {}
    for cpu in CPUS * 3:
        os.sched_setaffinity(0, {cpu})
        timings.setdefault(cpu, []).append(reference())
    os.sched_setaffinity(0, {min(CPUS, key=lambda c: statistics.median(timings[c]))})


def rescale(latencies: list[float], refs: list[float]) -> list[float]:
    """Each latency times REF_SECONDS over the median reference timing in a
    window of WINDOW timings on each side of it."""
    out = []
    for i, latency in enumerate(latencies):
        local = statistics.median(refs[max(0, i - WINDOW): i + WINDOW + 1])
        out.append(latency * REF_SECONDS / local)
    return out
