from fractions import Fraction

import pytest

from ambiprob import engine, mc, model
from ambiprob.engine import (
    AtLeastOne,
    Claim,
    ProtocolKernel,
    REJECT,
    Text,
    YesNo,
    _case_order,
    marginal,
    posterior,
    statement_mass,
    validate_kernel,
)
from ambiprob.errors import EmptySupport, ZeroStatementMass
from ambiprob.model import (
    AllMatch,
    And,
    Child,
    Exists,
    Sex,
    WorldConfig,
    enumerate_families,
    family_str,
)
from ambiprob.scenarios import build_scenario

TUE = 1
CFG = WorldConfig(7, 2)
BOTH_BOYS = AllMatch(sex=Sex.BOY)


def two_boys(f):
    return all(c.sex == Sex.BOY for c in f)


def test_builtin_kernels_validate():
    for sc in (
        build_scenario("bc-tc", CFG, day=TUE),
        build_scenario("gn-dn", CFG),
        build_scenario("classic-coinflip", CFG),
        build_scenario("brag", CFG),
    ):
        assert validate_kernel(sc.kernel) == []


def test_validate_flags_overweight_row():
    fams = enumerate_families(CFG)
    rows = {f: {} for f in fams}
    bad = fams[0]
    rows[bad] = {YesNo(True): Fraction(3, 2)}
    violations = validate_kernel(ProtocolKernel.from_rows(CFG, rows))
    assert len(violations) == 1
    assert "B@0,B@0" in violations[0]


def test_validate_flags_negative_weight():
    fams = enumerate_families(CFG)
    rows = {f: {} for f in fams}
    rows[fams[1]] = {YesNo(True): Fraction(-1, 2)}
    violations = validate_kernel(ProtocolKernel.from_rows(CFG, rows))
    assert any("negative" in v for v in violations)


def test_validate_flags_missing_row():
    fams = enumerate_families(CFG)
    rows = {f: {} for f in fams[1:]}
    violations = validate_kernel(ProtocolKernel.from_rows(CFG, rows))
    assert any("no row" in v for v in violations)


def test_validate_flags_class_vectors_of_no_family():
    # child 14 does not exist in a 7-day week, and a vector has one class per child
    row = {YesNo(True): Fraction(1)}
    table = {(0, 0): row, (0, 14): row, (3,): row}
    violations = validate_kernel(ProtocolKernel(CFG, tuple(range(14)), table))
    assert violations[:2] == ["(0, 14): class vector of no family", "(3,): class vector of no family"]


def test_statement_mass_per_family_contributions():
    # mixed family says claim(boy, tue) with weight 1/14 under the symmetric
    # procedure, 1/7 under the boy-centered one
    s = Claim(Sex.BOY, TUE)
    sym = build_scenario("gn-dn", CFG).kernel
    mixed = (Child(Sex.BOY, TUE), Child(Sex.GIRL, 3))
    assert sym.rows[mixed][s] == Fraction(1, 2)  # times 1/14 prior contribution
    assert statement_mass(sym, s) == Fraction(1, 14)
    boyc = build_scenario("bc-dn", CFG).kernel
    assert boyc.rows[mixed][s] == Fraction(1)
    assert statement_mass(boyc, s) == Fraction(1, 7)


def test_statement_mass_absent_statement_is_zero():
    k = build_scenario("gn-dn", CFG).kernel
    assert statement_mass(k, Text("never")) == 0


@pytest.mark.parametrize(
    "scenario,expected",
    [
        (lambda: build_scenario("bc-tc", CFG, day=TUE), Fraction(13, 27)),
        (lambda: build_scenario("gn-dn", CFG), Fraction(1, 2)),
        (lambda: build_scenario("bc-dn", CFG), Fraction(1, 3)),
        (lambda: build_scenario("gn-tc", CFG, day=TUE), Fraction(1, 2)),
    ],
)
def test_tuesday_posteriors(scenario, expected):
    sc = scenario()
    rep = posterior(sc.kernel, Claim(Sex.BOY, TUE), AllMatch(sex=Sex.BOY))
    assert rep.posterior == expected


def test_extreme_posteriors():
    assert posterior(build_scenario("brag", CFG).kernel, AtLeastOne(Sex.BOY), AllMatch(sex=Sex.BOY)).posterior == 0
    assert posterior(build_scenario("deemphasize", CFG).kernel, AtLeastOne(Sex.BOY), AllMatch(sex=Sex.BOY)).posterior == 1


def _brute_force_both_tuesday_fraction():
    """Independent oracle: among families with a son born on Tuesday, how many
    have both children born on Tuesday? Direct nested loops, no engine."""
    support = hit = 0
    for s1 in "BG":
        for d1 in range(7):
            for s2 in "BG":
                for d2 in range(7):
                    if (s1 == "B" and d1 == TUE) or (s2 == "B" and d2 == TUE):
                        support += 1
                        if d1 == TUE and d2 == TUE:
                            hit += 1
    return hit, support


def test_both_tuesday_posterior_matches_brute_force():
    hit, support = _brute_force_both_tuesday_fraction()
    assert (hit, support) == (3, 27)
    rep = posterior(build_scenario("bc-tc", CFG, day=TUE).kernel, Claim(Sex.BOY, TUE), AllMatch(day=TUE))
    assert rep.posterior == Fraction(hit, support) == Fraction(1, 9)


def test_posterior_report_masses_explain_quotient():
    rep = posterior(build_scenario("bc-tc", CFG, day=TUE).kernel, Claim(Sex.BOY, TUE), AllMatch(sex=Sex.BOY))
    assert rep.posterior == rep.joint_mass / rep.statement_mass
    table_mass = sum((r.prior * r.emission for r in rep.case_table), Fraction(0))
    table_joint = sum(
        (r.prior * r.emission for r in rep.case_table if r.event), Fraction(0)
    )
    assert table_mass == rep.statement_mass
    assert table_joint == rep.joint_mass
    assert len(rep.case_table) == 27


def test_zero_statement_mass_raises():
    with pytest.raises(ZeroStatementMass):
        posterior(build_scenario("gn-dn", CFG).kernel, Text("never"), AllMatch(sex=Sex.BOY))


def test_complement_law():
    k = build_scenario("gn-tc", CFG, day=TUE).kernel
    s = Claim(Sex.BOY, TUE)
    q = AllMatch(sex=Sex.BOY)
    from ambiprob.model import Not

    assert posterior(k, s, q).posterior + posterior(k, s, Not(q)).posterior == 1


def test_marginal_coinflip():
    m = marginal(build_scenario("classic-coinflip", CFG).kernel)
    assert m[AtLeastOne(Sex.BOY)] == Fraction(1, 2)
    assert m[AtLeastOne(Sex.GIRL)] == Fraction(1, 2)
    assert m[REJECT] == 0
    assert sum(m.values()) == 1


def test_marginal_yesno():
    m = marginal(build_scenario("yesno", CFG, day=TUE).kernel)
    assert m[YesNo(True)] == Fraction(27, 196)
    assert m[YesNo(False)] == Fraction(169, 196)
    assert sum(m.values()) == 1


def test_marginal_pure_reject():
    rows = {f: {} for f in enumerate_families(CFG)}
    m = marginal(ProtocolKernel.from_rows(CFG, rows))
    assert m == {REJECT: Fraction(1)}


def test_pre_filter_constant_statement_reduces_to_counting():
    # a pre-filter plus a constant statement is plain conditional counting
    pre = Exists(Sex.BOY)
    rows = {
        f: {Text("spoken"): Fraction(1)}
        for f in enumerate_families(CFG)
        if any(c.sex == Sex.BOY for c in f)
    }
    k = ProtocolKernel.from_rows(CFG, rows, pre_filter=pre)
    rep = posterior(k, Text("spoken"), AllMatch(sex=Sex.BOY))
    assert rep.posterior == Fraction(49, 147) == Fraction(1, 3)


@pytest.mark.parametrize("d, n", [(1, 1), (7, 2), (11, 2), (100, 2), (12, 3), (7, 4)])
def test_case_order_is_family_str_order(d, n):
    cfg = WorldConfig(d, n)
    every = ProtocolKernel.from_rows(cfg, dict.fromkeys(enumerate_families(cfg), {}))
    walk = _case_order(cfg, every.child_class, every.table)
    assert [f for _, f in walk] == sorted(enumerate_families(cfg), key=family_str)


def test_empty_support_is_undefined():
    nobody = And(Exists(Sex.BOY), AllMatch(sex=Sex.GIRL))
    k = ProtocolKernel.from_rows(CFG, {}, pre_filter=nobody)
    for condition in (lambda: posterior(k, YesNo(True), Exists(Sex.BOY)),
                      lambda: statement_mass(k, YesNo(True)),
                      lambda: marginal(k)):
        with pytest.raises(EmptySupport):
            condition()


@pytest.mark.parametrize("sid", ["bc-tc", "classic-selection", "gn-tc"])
def test_conditioning_and_mc_tables_never_test_the_pre_filter(sid, monkeypatch):
    sc = build_scenario(sid, CFG, day=TUE)
    assert sc.kernel.pre_filter is not None
    calls, interpreted = [], []

    def compiling(q, cfg, real=model.compile_query):
        test = real(q, cfg)
        if q is not sc.kernel.pre_filter:
            return test

        def counted(f):
            calls.append(f)
            return test(f)
        return counted

    def interpreting(q, f, real=model.eval_query):
        interpreted.append(q is sc.kernel.pre_filter)
        return real(q, f)

    # the kernel's rows are its support: testing the pre-filter again, compiled
    # or through the interpreter (say, a support count via count_families),
    # repeats a decision the compile already made
    for module in (engine, mc):
        monkeypatch.setattr(module, "compile_query", compiling)
        monkeypatch.setattr(module, "eval_query", interpreting, raising=False)
    monkeypatch.setattr(model, "eval_query", interpreting)
    s, q = sc.canonical_statement, sc.canonical_query
    posterior(sc.kernel, s, q)
    marginal(sc.kernel)
    mc._compile_tables(sc.kernel, s, q)
    assert calls == []
    assert True not in interpreted


def test_validate_flags_row_outside_the_support():
    # rows for every family, but the pre-filter sends the all-girl ones home
    rows = {f: {} for f in enumerate_families(CFG)}
    k = ProtocolKernel.from_rows(CFG, rows, pre_filter=Exists(Sex.BOY))
    violations = validate_kernel(k)
    assert len(violations) == 49
    assert violations[0] == "G@0,G@0: row for a family outside the support"
    assert all(v.endswith(": row for a family outside the support") for v in violations)


def test_families_sharing_one_row_object_condition_like_copies():
    # classes by sex alone: the vectors of boy-first families share one row
    # object, the girl-first vector has another; two-girl families are sent home
    boy_first = {AtLeastOne(Sex.BOY): Fraction(1, 2), YesNo(True): Fraction(1, 3)}
    girl_first = {YesNo(True): Fraction(1, 4), AtLeastOne(Sex.BOY): Fraction(1, 5)}
    support = Exists(Sex.BOY)
    boy, girl = 0, 7  # each class is named by the index of its first child
    table = {(boy, boy): boy_first, (boy, girl): boy_first, (girl, boy): girl_first}
    shared = ProtocolKernel(CFG, (boy,) * 7 + (girl,) * 7, table, pre_filter=support)
    copies = ProtocolKernel.from_rows(
        CFG, {f: dict(row) for f, row in shared.rows.items()}, pre_filter=support
    )
    assert validate_kernel(shared) == validate_kernel(copies) == []
    assert (len(shared.table), len(copies.table)) == (3, 147)
    assert shared.multiplicities() == [49, 49, 49]
    assert sum(shared.multiplicities()) == sum(copies.multiplicities()) == len(copies.support())

    assert list(marginal(shared).items()) == list(marginal(copies).items())
    for s in (AtLeastOne(Sex.BOY), YesNo(True)):
        got, want = posterior(shared, s, BOTH_BOYS), posterior(copies, s, BOTH_BOYS)
        assert got == want
        assert got.case_table == want.case_table
        assert (mc.sample_posterior(shared, s, BOTH_BOYS, 5000, seed=3)
                == mc.sample_posterior(copies, s, BOTH_BOYS, 5000, seed=3))


def test_conditioning_and_mc_tables_never_build_the_per_family_rows():
    sc = build_scenario("classic-coinflip", WorldConfig(100, 2))
    s, q = sc.canonical_statement, sc.canonical_query
    posterior(sc.kernel, s, q)
    marginal(sc.kernel)
    mc._compile_tables(sc.kernel, s, q)
    assert "rows" not in vars(sc.kernel)
