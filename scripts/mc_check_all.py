#!/usr/bin/env python3
"""Monte Carlo cross-check of every builtin scenario, by default at one million
trials on one shard."""

import argparse
import time
from fractions import Fraction

from ambiprob import WorldConfig
from ambiprob.mc import agreement_check
from ambiprob.scenarios import BUILTIN_IDS, build_scenario

parser = argparse.ArgumentParser()
parser.add_argument("--trials", type=int, default=1_000_000)
parser.add_argument("--seed", type=int, default=42)
parser.add_argument("--shards", type=int, default=1)
args = parser.parse_args()

cfg = WorldConfig(week_length=7, family_size=2)
print(f"{'scenario':<18} {'exact':>8} {'estimate':>10} {'stderr':>9} {'time':>6}  verdict")
for sid in sorted(BUILTIN_IDS):
    sc = build_scenario(sid, cfg, p=Fraction(13, 27))
    start = time.monotonic()
    rep = agreement_check(
        sc.kernel, sc.canonical_statement, sc.canonical_query,
        args.trials, args.seed, shards=args.shards,
    )
    elapsed = time.monotonic() - start
    r = rep.result
    verdict = "PASS" if rep.passed else "FAIL"
    print(
        f"{sid:<18} {str(rep.exact):>8} {r.estimate:>10.6f} {r.stderr:>9.6f} "
        f"{elapsed:>5.1f}s  {verdict}"
    )
