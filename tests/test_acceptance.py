"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. All exact checks are rational equality; the Monte Carlo criterion uses
the statistical tolerance max(0.005, 5*stderr) at one million trials, seed 42.
"""

import glob
import os
import time
from fractions import Fraction

from ambiprob.dsl import compile_protocol, parse, render
from ambiprob.engine import (
    AtLeastOne,
    Claim,
    YesNo,
    marginal,
    posterior,
    statement_mass,
    validate_kernel,
)
from ambiprob.mc import agreement_check, sample_posterior
from ambiprob.model import (
    AllMatch,
    And,
    ChildDayIs,
    ChildSexIs,
    Exists,
    Not,
    Sex,
    WorldConfig,
    count_families,
    enumerate_families,
    restrict_prior,
    uniform_prior,
)
from ambiprob.scenarios import build_scenario, sweep_formula, week_sweep
from test_golden import builtin_digest_matches

TUE = 1
CFG = WorldConfig(7, 2)
BOTH_BOYS = AllMatch(sex=Sex.BOY)
PROC_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "ambiprob", "procs")

PROC_TO_ID = {
    "classic_selection": "classic-selection",
    "classic_coinflip": "classic-coinflip",
    "brag": "brag",
    "deemphasize": "deemphasize",
    "gn_dn": "gn-dn",
    "bc_dn": "bc-dn",
    "bc_tc": "bc-tc",
    "gn_tc": "gn-tc",
    "yesno": "yesno",
    "any_answer": "any-answer",
}


def exact_answer(sid, cfg=CFG, p=Fraction(13, 27)):
    sc = build_scenario(sid, cfg, p=p)
    return posterior(sc.kernel, sc.canonical_statement, sc.canonical_query).posterior


def report(n, text):
    print(f"ACCEPTANCE {n:2d}: PASS - {text}")


def test_criterion_1_classic_procedures():
    assert exact_answer("classic-selection") == Fraction(1, 3)
    assert exact_answer("classic-coinflip") == Fraction(1, 2)
    report(1, "classic-selection = 1/3, classic-coinflip = 1/2 exactly")


def test_criterion_2_extreme_procedures():
    assert exact_answer("brag") == 0
    assert exact_answer("deemphasize") == 1
    report(2, "brag = 0, deemphasize = 1 exactly")


def test_criterion_3_any_answer():
    targets = [
        Fraction(0), Fraction(1, 7), Fraction(1, 3), Fraction(13, 27),
        Fraction(1, 2), Fraction(9, 10), Fraction(1),
    ]
    for p in targets:
        assert exact_answer("any-answer", p=p) == p
    report(3, "any-answer posterior equals p for all seven targets")


def test_criterion_4_enumeration_counts():
    assert len(enumerate_families(CFG)) == 196
    son_tue = Exists(Sex.BOY, TUE)
    assert count_families(CFG, son_tue) == 27
    assert count_families(CFG, And(son_tue, BOTH_BOYS)) == 13
    boy_tue = lambda i: And(ChildSexIs(i, Sex.BOY), ChildDayIs(i, TUE))
    groups = [
        And(boy_tue(0), ChildSexIs(1, Sex.GIRL)),
        And(boy_tue(1), ChildSexIs(0, Sex.GIRL)),
        And(boy_tue(0), And(ChildSexIs(1, Sex.BOY), Not(ChildDayIs(1, TUE)))),
        And(boy_tue(1), And(ChildSexIs(0, Sex.BOY), Not(ChildDayIs(0, TUE)))),
        And(boy_tue(0), boy_tue(1)),
    ]
    counts = [count_families(CFG, g) for g in groups]
    assert counts == [7, 7, 6, 6, 1]
    assert sum(counts) == 27
    for i in range(5):
        for j in range(i + 1, 5):
            assert count_families(CFG, And(groups[i], groups[j])) == 0
    report(4, "196 / 27 / 13 counts and the disjoint 7+7+6+6+1 partition")


def test_criterion_5_four_tuesday_procedures():
    assert exact_answer("gn-dn") == Fraction(1, 2)
    assert exact_answer("bc-dn") == Fraction(1, 3)
    assert exact_answer("bc-tc") == Fraction(13, 27)
    assert exact_answer("gn-tc") == Fraction(1, 2)

    bc = build_scenario("bc-tc", CFG).kernel.support()
    assert sum(1 for f in bc if {c.sex for c in f} == {Sex.BOY, Sex.GIRL}) == 14
    assert sum(1 for f in bc if all(c.sex == Sex.BOY for c in f)) == 13

    gn = build_scenario("gn-tc", CFG).kernel.support()
    by_boys = {0: 0, 1: 0, 2: 0}
    for f in gn:
        by_boys[sum(c.sex == Sex.BOY for c in f)] += 1
    assert by_boys == {0: 13, 1: 26, 2: 13}
    report(5, "gn-dn 1/2, bc-dn 1/3, bc-tc 13/27, gn-tc 1/2 with case counts")


def test_criterion_6_week_length_formula():
    results = dict(week_sweep(range(1, 31)))
    for d in range(1, 31):
        assert results[d] == sweep_formula(d) == Fraction(2 * d - 1, 4 * d - 1)
    assert results[1] == Fraction(1, 3)
    assert results[7] == Fraction(13, 27)
    values = [results[d] for d in range(1, 31)]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert all(v < Fraction(1, 2) for v in values)
    report(6, "(2d-1)/(4d-1) for d=1..30, strictly increasing, below 1/2")


def test_criterion_7_unambiguous_protocol():
    assert exact_answer("yesno") == Fraction(13, 27)
    assert exact_answer("yesno") == exact_answer("bc-tc")
    report(7, "yesno = 13/27, equal to bc-tc despite a different kernel")


def test_criterion_8_other_child_also_tuesday():
    # independent brute-force enumeration over the 27 support cases
    support = hit = 0
    for s1 in "BG":
        for d1 in range(7):
            for s2 in "BG":
                for d2 in range(7):
                    if (s1 == "B" and d1 == TUE) or (s2 == "B" and d2 == TUE):
                        support += 1
                        if d1 == TUE and d2 == TUE:
                            hit += 1
    assert (hit, support) == (3, 27)
    sc = build_scenario("bc-tc", CFG)
    rep = posterior(sc.kernel, Claim(Sex.BOY, TUE), AllMatch(day=TUE))
    assert rep.posterior == Fraction(hit, support) == Fraction(1, 9)
    report(8, "bc-tc posterior of both-born-Tuesday = 3/27 = 1/9 (brute-forced)")


def test_criterion_9_dsl_equivalence():
    paths = sorted(glob.glob(os.path.join(PROC_DIR, "*.proc")))
    assert len(paths) == 10
    for path in paths:
        name = os.path.splitext(os.path.basename(path))[0]
        with open(path) as fh:
            ast = parse(fh.read())
        assert parse(render(ast)) == ast, name
        sid = PROC_TO_ID[name]
        kernel = compile_protocol(ast, CFG)
        assert kernel == build_scenario(sid, CFG, day=TUE, p=Fraction(13, 27)).kernel, name
        # the kernels of the removed hand-built constructors, as golden digests
        assert builtin_digest_matches(sid, 7), name
    report(9, "ten .proc files round-trip and compile to the recorded builtin kernels")


def test_criterion_10_monte_carlo_agreement():
    for sid in sorted(PROC_TO_ID.values()):
        sc = build_scenario(sid, CFG, p=Fraction(13, 27))
        start = time.monotonic()
        rep = agreement_check(
            sc.kernel, sc.canonical_statement, sc.canonical_query,
            n_trials=10**6, seed=42,
        )
        elapsed = time.monotonic() - start
        assert rep.passed, (sid, rep.result.estimate, rep.exact)
        assert abs(rep.result.estimate - float(rep.exact)) <= max(
            0.005, 5 * rep.result.stderr
        )
        assert elapsed <= 10.0, (sid, elapsed)
        rerun = sample_posterior(
            sc.kernel, sc.canonical_statement, sc.canonical_query,
            n_trials=10**6, seed=42,
        )
        assert rerun == rep.result, sid
    report(10, "all ten scenarios agree at 10^6 trials, seed 42, bit-identical reruns")


def test_criterion_11_property_invariants():
    for d in (1, 2, 7):
        cfg = WorldConfig(d, 2)
        day = min(TUE, d - 1)
        for sid in ("classic-coinflip", "gn-dn", "brag", "any-answer"):
            sc = build_scenario(sid, cfg, day=day, p=Fraction(2, 5))
            assert validate_kernel(sc.kernel) == []
            k = sc.kernel
            s = sc.canonical_statement
            if statement_mass(k, s) > 0:
                p = posterior(k, s, BOTH_BOYS).posterior
                assert p + posterior(k, s, Not(BOTH_BOYS)).posterior == 1
                # uniform scaling of s's emission weights cancels in the quotient
                from ambiprob.engine import ProtocolKernel

                c = Fraction(3, 7)
                scaled = ProtocolKernel.from_rows(
                    cfg,
                    {
                        f: {t: (w * c if t == s else w) for t, w in row.items()}
                        for f, row in k.rows.items()
                    },
                    pre_filter=k.pre_filter,
                )
                assert posterior(scaled, s, BOTH_BOYS).posterior == p
            m = marginal(k)
            assert sum(m.values(), Fraction(0)) == 1
        prior = uniform_prior(cfg)
        q = Exists(Sex.BOY, 0)
        once = restrict_prior(prior, q)
        assert restrict_prior(once, q) == once
    report(11, "complement, total-probability, scaling, idempotence on d=1,2,7")
