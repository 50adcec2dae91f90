"""Seeded op generators for the three workloads.

A workload is issued in rounds. Every round of a workload holds the same
multiset of op shapes (procedure, week length d, family size n, output format
where it changes the cost, MC trial count and shard count), so every seed does
the same work; the seed draws only the cheap parameters (target day, `--p`,
event spelling, output format where it costs nothing, MC seeds) and the order.
Known-defect ops (the ROADMAP's, and one more found while writing the benchmark)
are kept in and counted as failures.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from fractions import Fraction

import answers
from ops import (
    Op,
    expect_exit,
    expect_marginal,
    expect_mc,
    expect_posterior,
    expect_sweep,
)

HERE = os.path.dirname(os.path.abspath(__file__))
OWN_PROCS = os.path.join(HERE, "procs")

BUILTINS = (
    "any-answer", "bc-dn", "bc-tc", "brag", "classic-coinflip",
    "classic-selection", "deemphasize", "gn-dn", "gn-tc", "yesno",
)
FORMATS = ("table", "csv", "json")
DAY_NAMES = ("mon", "tue", "wed", "thu", "fri", "sat", "sun")

# shipped .proc file -> (answers key, statement template); {day} is the target day
SHIPPED = {
    "any_answer": ("any-answer.proc", "atleastone(boy)"),
    "bc_dn": ("bc-dn", "claim(boy,{day})"),
    "bc_tc": ("bc-tc", "claim(boy,{day})"),
    "brag": ("brag", "atleastone(boy)"),
    "classic_coinflip": ("classic-coinflip", "atleastone(boy)"),
    "classic_selection": ("classic-selection", "atleastone(boy)"),
    "deemphasize": ("deemphasize", "atleastone(boy)"),
    "gn_dn": ("gn-dn", "claim(boy,{day})"),
    "gn_tc": ("gn-tc", "claim(boy,{day})"),
    "yesno": ("yesno", "yes"),
}
# files whose procedure names Tuesday; the benchmark owns d=30 copies naming d12
FIXED_DAY = {"bc_tc", "gn_tc", "yesno"}
COPY_DAY = 12


@dataclass(frozen=True)
class Sizes:
    """The sizes a round runs at; `tiny()` is the smoke-test variant."""

    d_mid: int = 30
    d_big: int = 100
    n_mid: int = 3
    n_big: int = 4
    # The sampler draws in chunks of 2^18. Every trial count here keeps each
    # builtin's expected draw count at least 8 standard deviations away from a
    # chunk boundary, so the MC seed does not change how many chunks an op costs.
    trials: tuple[int, ...] = (20_000, 32_000, 47_000, 62_000, 89_000, 122_000, 159_000, 200_000)

    @staticmethod
    def tiny() -> "Sizes":
        # d_mid must stay above COPY_DAY
        return Sizes(d_mid=13, d_big=9, n_mid=2, n_big=2, trials=(2_000, 3_000, 4_000, 5_000))


def _frac(p: Fraction) -> str:
    return f"{p.numerator}/{p.denominator}"


def _day_arg(rng: random.Random, d: int, k: int) -> str:
    """Spell day k the ways the CLI accepts: a name (7-day weeks only), d<k> or k."""
    if d == 7:
        return rng.choice((DAY_NAMES[k], f"d{k}", str(k)))
    return f"d{k}"


def _statement(sid: str, day: int):
    """The canonical statement of builtin `sid`, built from the package's types."""
    def build(pkg):
        if sid in ("gn-dn", "bc-dn", "bc-tc", "gn-tc"):
            return pkg.Claim(pkg.Sex.BOY, day)
        if sid == "yesno":
            return pkg.YesNo(True)
        return pkg.AtLeastOne(pkg.Sex.BOY)
    return build


def _run_op(rng, sid, d, fmt, extra=()):
    k = rng.randrange(d)
    p = Fraction(rng.randint(0, 12), 12)
    argv = ["run", sid, "--week-days", str(d), "--format", fmt]
    if d == 7 and k == 1 and rng.random() < 0.5:
        pass  # default --day tue
    else:
        argv += ["--day", _day_arg(rng, d, k)]
    if sid == "any-answer":
        argv += ["--p", _frac(p)]
    argv += list(extra)
    return Op(f"run {sid} d={d} {fmt}", argv,
              expect_posterior(fmt, answers.posterior(sid, 2, d, p),
                               answers.statement_mass(sid, 2, d, p)))


def _marginal_op(rng, sid, d):
    k = rng.randrange(d)
    p = Fraction(rng.randint(0, 12), 12)
    return Op(f"marginal {sid} d={d}", None,
              expect_marginal(_statement(sid, k), answers.statement_mass(sid, 2, d, p),
                              answers.reject_mass(sid, 2, d, p)),
              marginal=(sid, d, k, p))


def exact_run(rng: random.Random, sizes: Sizes) -> list[Op]:
    """`run` on every builtin at d in {7, d_mid, d_big}, `sweep`, library
    `marginal`, and usage errors that must exit 2."""
    # The counts put the 90th percentile inside the dense run of d_mid ops,
    # not on the gap below the d_big and heaviest d_mid ops (top 15 of 210).
    ops = []
    for sid in BUILTINS:
        for fmt in FORMATS:
            for _ in range(3):
                extra = ("--decimal",) if rng.random() < 0.3 else ()
                ops.append(_run_op(rng, sid, 7, fmt, extra))
            ops.append(_run_op(rng, sid, sizes.d_mid, fmt))
        ops += [_marginal_op(rng, sid, 7) for _ in range(3)]
        ops.append(_marginal_op(rng, sid, sizes.d_mid))
    # one op per builtin at d_big; the format is fixed per builtin because it
    # changes the cost of these ops by up to 40%
    for i, sid in enumerate(BUILTINS):
        ops.append(_run_op(rng, sid, sizes.d_big, FORMATS[i % 3]))
    # a sweep's cost grows with the sum of d^2 over its range, so the ranges
    # are fixed and only the format is drawn
    for k in range(30):
        lo, hi = 1 + k % 8, 3 + k % 8 + k % 5
        fmt = rng.choice(FORMATS)
        ops.append(Op(f"sweep {lo}-{hi}", ["sweep", str(lo), str(hi), "--format", fmt],
                      expect_sweep(fmt, lo, hi)))
    d = sizes.d_mid
    for argv in (
        ["run", rng.choice(("bc-tcc", "tuesday", "gn_dn", "classic"))],
        ["run", rng.choice(BUILTINS).upper()],
        ["run", "bc-tc", "--week-days", str(d)],  # default --day tue needs a 7-day week
        ["run", "gn-tc", "--week-days", str(d), "--day", f"d{d}"],
        ["run", "any-answer", "--p", "3/2"],
        ["run", "yesno", "--week-days", "0"],
        ["run", "brag", "--format", "xml"],
        ["run", "bc-dn", "--children", "3"],
        ["sweep", "0", "5"],
        ["sweep", "9", "4"],
    ):
        ops.append(Op(f"usage {' '.join(argv[1:])}", argv, expect_exit(2)))
    rng.shuffle(ops)
    return ops


def _eval_op(rng, path, key, template, n, d, day, fmt, event_index=None):
    """`eval` with one of four spellings of the event, two of them the
    complement of "all boys". `event_index` fixes the spelling, for ops whose
    cost it changes."""
    say = template.format(day=day)
    events = (("all(boy)", False), (f"count(boy) >= {n}", False),
              ("exists(girl)", True), ("not all(boy)", True))
    event, complement = rng.choice(events) if event_index is None else events[event_index % 4]
    post = answers.posterior(key, n, d)
    argv = ["eval", path, "--say", say, "--event", event,
            "--children", str(n), "--week-days", str(d), "--format", fmt]
    return Op(f"eval {os.path.basename(path)} n={n} d={d} {fmt}", argv,
              expect_posterior(fmt, 1 - post if complement else post,
                               answers.statement_mass(key, n, d)))


def dsl_eval(rng: random.Random, sizes: Sizes, proc_dir: str) -> list[Op]:
    """`eval` of the shipped .proc files at n in {2, n_mid, n_big}, the
    benchmark's d12 copies at d_mid, and procedures that must exit 2, 3 or 4."""
    ops = []

    def shipped(name, n, fmt, d=7, event_index=None):
        key, template = SHIPPED[name]
        k = 1 if name in FIXED_DAY else rng.randrange(d)
        day = DAY_NAMES[k] if d == 7 and rng.random() < 0.5 else f"d{k}"
        return _eval_op(rng, os.path.join(proc_dir, name + ".proc"), key, template, n, d, day,
                        fmt, event_index)

    for i, name in enumerate(sorted(SHIPPED)):
        for fmt in FORMATS:
            ops += [shipped(name, 2, fmt), shipped(name, 2, fmt)]
        # n_mid and n_big ops dominate the round; their format and event
        # spelling are fixed per file
        ops += [shipped(name, sizes.n_mid, "table", event_index=i),
                shipped(name, sizes.n_mid, "json", event_index=i + 1)]
        ops.append(shipped(name, sizes.n_big, FORMATS[i % 3], event_index=i))
    d = sizes.d_mid
    for fmt in FORMATS:
        for name in sorted(FIXED_DAY):
            key, template = SHIPPED[name]
            ops.append(_eval_op(rng, os.path.join(OWN_PROCS, f"{name}_d{COPY_DAY}.proc"),
                                key, template, 2, d, f"d{COPY_DAY}", fmt))
        ops += [shipped("gn_dn", 2, fmt, d), shipped("bc_dn", 2, fmt, d)]

    def must_exit(code, argv):
        ops.append(Op(f"exit{code} {' '.join(os.path.basename(a) for a in argv[1:3])}",
                      argv, expect_exit(code)))

    def ev(path, say="yes", *extra):
        return ["eval", path, "--say", say, "--event", "all(boy)", *extra]

    def ship(name):
        return os.path.join(proc_dir, name + ".proc")

    def own(name):
        return os.path.join(OWN_PROCS, name + ".proc")

    # statements the procedure never emits: undefined conditional
    for name, say in (("bc_tc", "claim(girl,tue)"), ("classic_selection", "atleastone(girl)"),
                      ("brag", "twoofakind(girl)"), ("gn_tc", "claim(boy,wed)"),
                      ("yesno", "claim(boy,tue)")):
        must_exit(3, ev(ship(name), say))
    for name in ("bad_character", "bad_day_range", "bad_empty_pick", "bad_late_require",
                 "bad_missing_semicolon", "bad_unbound_if", "bad_unbound_say", "bad_unclosed"):
        must_exit(4, ev(own(name)))
    must_exit(4, ev(ship("bc_tc"), f"claim(boy,d{COPY_DAY})", "--week-days", str(d)))
    must_exit(4, ev(ship("gn_dn"), "claim(boy,"))
    must_exit(2, ev(own("no_such_file")))
    # known defect, found while writing this benchmark: a flip probability
    # outside [0, 1] raises InvalidProbability out of the CLI instead of exiting 4
    ops.append(Op("defect flip 3/2", ev(own("bad_flip_probability")), expect_exit(4),
                  known_defect="InvalidProbability"))
    rng.shuffle(ops)
    return ops


def _mc_op(rng, target, trials, shards, d=7, n=2, key=None, say=None, defect=None):
    fmt = rng.choice(FORMATS)
    seed = rng.randrange(2**31)
    argv = ["mc", target, "--trials", str(trials), "--seed", str(seed),
            "--shards", str(shards), "--week-days", str(d), "--children", str(n),
            "--format", fmt]
    p = Fraction(rng.randint(0, 12), 12)
    if say is not None:
        argv += ["--say", say, "--event", "all(boy)"]
    else:
        k = rng.randrange(d)
        argv += ["--day", _day_arg(rng, d, k)]
        if target == "any-answer":
            argv += ["--p", _frac(p)]
    exact = answers.posterior(key or target, n, d, p)
    return Op(f"mc {os.path.basename(target)} d={d} n={n} t={trials} s={shards}", argv,
              expect_mc(fmt, exact, trials), known_defect=defect)


def mc_crosscheck(rng: random.Random, sizes: Sizes, proc_dir: str) -> list[Op]:
    """`mc` on every builtin at d=7, gn-dn/gn-tc at d_mid and gn_dn.proc at
    n_mid, plus the ROADMAP's known MC defects and usage errors."""
    ops = []
    for sid in BUILTINS:
        for trials in sizes.trials:
            # shard count changes how many partial chunks are drawn, so both
            # counts appear once per (builtin, trials)
            ops += [_mc_op(rng, sid, trials, 1), _mc_op(rng, sid, trials, 2)]
    lo = sizes.trials[0]
    d = sizes.d_mid
    ops += [_mc_op(rng, "gn-dn", t, shards, d=d) for t in sizes.trials[:2] for shards in (1, 2)]
    ops += [_mc_op(rng, "gn-tc", t, shards, d=d) for t in sizes.trials[:2] for shards in (1, 2)]
    gn_dn = os.path.join(proc_dir, "gn_dn.proc")
    for shards in (1, 2):
        day = DAY_NAMES[rng.randrange(7)]
        ops.append(_mc_op(rng, gn_dn, lo, shards, n=sizes.n_mid, key="gn-dn",
                          say=f"claim(boy,{day})"))
    # known defects: --trials 0 / --shards 0 raise ValueError instead of exiting 2
    for argv in (["mc", rng.choice(BUILTINS), "--trials", "0"],
                 ["mc", rng.choice(BUILTINS), "--shards", "0"]):
        ops.append(Op(f"defect {' '.join(argv[1:])}", argv, expect_exit(2),
                      known_defect="ValueError"))
    # known defect: the int64 common-denominator table overflows
    ops.append(_mc_op(rng, os.path.join(OWN_PROCS, "nested_primes.proc"), lo, 1,
                      key="nested-primes", say="claim(boy)", defect="OverflowError"))
    for argv in (
        ["mc", "bc_tc"],  # unknown id
        ["mc", gn_dn],  # .proc target without --say/--event
        ["mc", gn_dn, "--say", "claim(boy,tue)"],
        ["mc", "bc-tc", "--trials", "many"],
        ["mc", "bc-tc", "--shards", "x"],
        ["mc", "bc-tc", "--format", "xml"],
        ["mc", "bc-tc", "--week-days", "0"],
        ["mc", "bc-tc", "--children", "3"],
        ["mc", "any-answer", "--p", "2"],
        ["mc", "gn-tc", "--week-days", str(d)],  # default --day tue needs a 7-day week
    ):
        ops.append(Op(f"usage {' '.join(os.path.basename(a) for a in argv[1:])}", argv,
                      expect_exit(2)))
    ops.append(Op("exit3 mc zero mass", ["mc", os.path.join(proc_dir, "bc_tc.proc"), "--say",
                                          "claim(girl,tue)", "--event", "all(boy)"],
                  expect_exit(3)))
    rng.shuffle(ops)
    return ops


WORKLOADS = ("exact-run", "dsl-eval", "mc-crosscheck")


def round_ops(workload: str, seed: int, index: int, sizes: Sizes, proc_dir: str) -> list[Op]:
    """The ops of round `index` of `workload` under `seed`."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    if workload == "exact-run":
        return exact_run(rng, sizes)
    if workload == "dsl-eval":
        return dsl_eval(rng, sizes, proc_dir)
    return mc_crosscheck(rng, sizes, proc_dir)


def warmup_op(workload: str, proc_dir: str) -> Op:
    """A fixed, untimed first op, so set-up time does not depend on the seed."""
    if workload == "exact-run":
        return Op("warm-up", ["run", "bc-tc", "--format", "json"],
                  expect_posterior("json", answers.posterior("bc-tc", 2, 7),
                                   answers.statement_mass("bc-tc", 2, 7)))
    if workload == "dsl-eval":
        argv = ["eval", os.path.join(proc_dir, "gn_dn.proc"), "--say", "claim(boy,tue)",
                "--event", "all(boy)"]
        return Op("warm-up", argv,
                  expect_posterior("table", answers.posterior("gn-dn", 2, 7),
                                   answers.statement_mass("gn-dn", 2, 7)))
    return Op("warm-up", ["mc", "bc-tc", "--trials", "20000", "--seed", "1"],
              expect_mc("table", answers.posterior("bc-tc", 2, 7), 20_000))
