import copy
import dataclasses
import pickle
from fractions import Fraction

import pytest

from ambiprob import engine, mc, model
from ambiprob.dsl import parse_event_text, parse_statement_text
from ambiprob.engine import (
    AtLeastOne,
    Claim,
    ProtocolKernel,
    ProudOf,
    REJECT,
    Text,
    TwoOfAKind,
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
    ChildDayIs,
    ChildSexIs,
    CountAtLeast,
    Exists,
    Not,
    Or,
    Sex,
    WorldConfig,
    enumerate_families,
    family_str,
)
from ambiprob.scenarios import BUILTIN_IDS, bind_builtin, build_scenario, sweep_formula, week_sweep

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


def test_validate_flags_statement_day_out_of_range():
    fams = enumerate_families(CFG)
    rows = {f: {} for f in fams}
    rows[fams[0]] = {Claim(Sex.BOY, 7): Fraction(1, 2)}
    violations = validate_kernel(ProtocolKernel.from_rows(CFG, rows))
    assert violations == ["B@0,B@0: statement day 7 out of range"]


def test_validate_flags_missing_row():
    fams = enumerate_families(CFG)
    rows = {f: {} for f in fams[1:]}
    violations = validate_kernel(ProtocolKernel.from_rows(CFG, rows))
    assert any("no row" in v for v in violations)


def test_from_rows_names_a_family_with_a_child_outside_the_week():
    rows = {(Child(Sex.BOY, 9), Child(Sex.BOY, 0)): {YesNo(True): Fraction(1)}}
    with pytest.raises(ValueError, match="^family B@9,B@0 has a child outside the 7-day week$"):
        ProtocolKernel.from_rows(CFG, rows)
    # a family of the wrong size is left to validate_kernel
    short = ProtocolKernel.from_rows(CFG, {(Child(Sex.BOY, 0),): {}})
    assert validate_kernel(short)[0] == "(0,): class vector of no family"


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


def test_reject_key_prints_as_reject():
    assert repr(REJECT) == "REJECT"


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
    assert sum(shared.multiplicities()) == sum(copies.multiplicities()) == len(copies.rows)

    assert list(marginal(shared).items()) == list(marginal(copies).items())
    for s in (AtLeastOne(Sex.BOY), YesNo(True)):
        got, want = posterior(shared, s, BOTH_BOYS), posterior(copies, s, BOTH_BOYS)
        assert got == want
        assert got.case_table == want.case_table
        assert (mc.sample_posterior(shared, s, BOTH_BOYS, 5000, seed=3)
                == mc.sample_posterior(copies, s, BOTH_BOYS, 5000, seed=3))


def test_an_invalid_shared_row_is_reported_for_each_of_its_families():
    # the boy-first vectors share one overweight row: validation names every
    # family of it, in family order, as it does for a copy per family
    boy_first = {AtLeastOne(Sex.BOY): Fraction(1, 2), YesNo(True): Fraction(2, 3)}
    girl_first = {YesNo(True): Fraction(1, 4), AtLeastOne(Sex.BOY): Fraction(1, 5)}
    support = Exists(Sex.BOY)
    boy, girl = 0, 7
    table = {(boy, boy): boy_first, (boy, girl): boy_first, (girl, boy): girl_first}
    shared = ProtocolKernel(CFG, (boy,) * 7 + (girl,) * 7, table, pre_filter=support)
    copies = ProtocolKernel.from_rows(
        CFG, {f: dict(row) for f, row in shared.rows.items()}, pre_filter=support
    )
    violations = validate_kernel(shared)
    assert violations == validate_kernel(copies)
    assert violations == [f"{family_str(f)}: emission weights sum to 7/6 > 1"
                          for f in enumerate_families(CFG) if f[0].sex is Sex.BOY]
    assert len(violations) == 98


def test_conditioning_and_mc_tables_never_build_the_per_family_rows():
    sc = build_scenario("classic-coinflip", WorldConfig(100, 2))
    s, q = sc.canonical_statement, sc.canonical_query
    posterior(sc.kernel, s, q)
    marginal(sc.kernel)
    mc._compile_tables(sc.kernel, s, q)
    assert validate_kernel(sc.kernel) == []
    assert "rows" not in vars(sc.kernel)


def test_conditioning_the_sampler_and_the_sweep_never_walk_families(monkeypatch):
    def walk(*args):
        raise AssertionError("walked the families of a case table")

    monkeypatch.setattr(engine, "_case_order", walk)
    cfg = WorldConfig(30, 2)
    # (statement mass, posterior) of each builtin at d=30, target day 3
    want = {"any-answer": ("1/4", "1/2"), "bc-dn": ("1/30", "1/3"), "bc-tc": ("1", "59/119"),
            "brag": ("1/2", "0"), "classic-coinflip": ("1/2", "1/2"),
            "classic-selection": ("1", "1/3"), "deemphasize": ("1/4", "1"),
            "gn-dn": ("1/60", "1/2"), "gn-tc": ("1/2", "1/2"), "yesno": ("119/3600", "59/119")}
    for sid, (mass, answer) in want.items():
        sc = build_scenario(sid, cfg, day=3)
        s, q = sc.canonical_statement, sc.canonical_query
        assert statement_mass(sc.kernel, s) == Fraction(mass)
        assert posterior(sc.kernel, s, q).posterior == Fraction(answer)
    sc = build_scenario("classic-coinflip", WorldConfig(100, 2))
    report = mc.agreement_check(sc.kernel, sc.canonical_statement, sc.canonical_query, 2000, 1)
    assert report.result == mc.McResult(trials=3948, rejected_families=0, rejected_runs=0,
                                        hits=996, statement_matches=2000, estimate=0.498,
                                        stderr=0.011180250444422075, seed=1, shards=1)
    assert (report.exact, report.passed) == (Fraction(1, 2), True)
    assert week_sweep(range(1, 6)) == [(d, sweep_formula(d)) for d in range(1, 6)]


@pytest.mark.parametrize("sid, event", [
    ("classic-coinflip", AllMatch(sex=Sex.BOY)),
    ("classic-coinflip", Exists(Sex.GIRL, 3)),  # splits each sex's class by day 3
    ("bc-tc", Exists(day=5)),
    ("gn-dn", ChildDayIs(1, 0)),
    ("any-answer", Not(CountAtLeast(2, Sex.BOY, 11))),  # a day outside the week
])
def test_case_table_length_is_its_number_of_rows(sid, event):
    sc = build_scenario(sid, WorldConfig(10, 2), day=0)
    table = posterior(sc.kernel, sc.canonical_statement, event).case_table
    assert len(table) == sum(1 for _ in table) > 0


def test_tested_days_are_the_days_a_test_compares_with():
    q = Or(And(Exists(Sex.BOY, TUE), Not(ChildDayIs(1, 4))),
           Not(Or(AllMatch(day=None), CountAtLeast(1, Sex.GIRL, 9))))
    assert engine._tested_days(q) == {TUE, 4, 9}
    assert engine._tested_days(And(BOTH_BOYS, ChildSexIs(0, Sex.GIRL))) == set()


def test_tested_days_walk_deep_events_without_recursion():
    # a 100,000-deep not chain and a 100,000-deep tree of and in or in and:
    # far past the interpreter's recursion limit (a chain of one connective
    # is one flat node, so the connectives alternate to nest)
    q = ChildDayIs(0, TUE)
    for _ in range(100_000):
        q = Not(q)
    assert engine._tested_days(q) == {TUE}
    q = Exists(Sex.BOY, 0)
    for day in range(1, 100_000):
        q = (And if day % 2 else Or)(q, Exists(day=day % 7) if day % 2 else BOTH_BOYS)
    assert engine._tested_days(q) == set(range(7))


def test_classes_name_each_class_by_its_first_child():
    # children are B@0..B@6 then G@0..G@6; on a tested day a child is alike
    # only to itself, and classes never merge across `within`
    child_class, names = engine._classes(CFG, {TUE}, [0] * 14)
    assert child_class == (0, 1, 0, 0, 0, 0, 0, 7, 8, 7, 7, 7, 7, 7)
    assert names == (0, 1, 7, 8)
    within = [0] * 3 + [3] * 11
    child_class, names = engine._classes(CFG, set(), within)
    assert child_class == (0, 0, 0, 3, 3, 3, 3, 7, 7, 7, 7, 7, 7, 7)
    assert names == (0, 3, 7)


# ---------------------------------------------------------------------------
# Statement identity: one object per type and field values
# ---------------------------------------------------------------------------

STATEMENTS = [Claim(Sex.BOY, TUE), Claim(Sex.GIRL), AtLeastOne(Sex.BOY), TwoOfAKind(Sex.GIRL),
              ProudOf(Sex.BOY), YesNo(False), Text('a "quoted" label')]


def test_every_spelling_of_a_statement_is_one_object():
    assert Claim(Sex.BOY, 1) is Claim(Sex.BOY, day=1) is Claim(sex=Sex.BOY, day=1)
    assert Claim(Sex.BOY) is Claim(Sex.BOY, None) is Claim(sex=Sex.BOY) is Claim(Sex.BOY, day=None)
    assert Claim(Sex.BOY) is not Claim(Sex.BOY, 0)
    assert AtLeastOne(Sex.GIRL) is AtLeastOne(sex=Sex.GIRL)
    assert TwoOfAKind(Sex.GIRL) is TwoOfAKind(sex=Sex.GIRL)
    assert ProudOf(Sex.GIRL) is ProudOf(sex=Sex.GIRL)
    assert YesNo(True) is YesNo(answer=True) is not YesNo(False)
    assert Text("x") is Text(label="x") is not Text("y")
    # compared and hashed by identity, in C, as Sex is
    for cls in (Claim, AtLeastOne, TwoOfAKind, ProudOf, YesNo, Text):
        assert (cls.__eq__, cls.__hash__) == (object.__eq__, object.__hash__)


@pytest.mark.parametrize("st", STATEMENTS, ids=repr)
def test_copies_and_pickles_are_the_pooled_statement(st):
    assert copy.copy(st) is st
    assert copy.deepcopy(st) is st
    assert copy.deepcopy({st: Fraction(1, 2)}) == {st: Fraction(1, 2)}
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(st, protocol)) is st
    assert dataclasses.replace(st) is st
    # copying rebuilds through the constructor and writes into no pooled object
    assert (Claim(None, None).sex, Claim(None, None).day) == (None, None)
    with pytest.raises(dataclasses.FrozenInstanceError):
        st.sex = Sex.GIRL


def test_replace_returns_the_pooled_statement_of_its_fields():
    assert dataclasses.replace(Claim(Sex.GIRL, 3), sex=Sex.BOY) is Claim(Sex.BOY, 3)
    assert dataclasses.replace(Claim(Sex.BOY, 3), day=None) is Claim(Sex.BOY)
    assert dataclasses.replace(YesNo(True), answer=False) is YesNo(False)


def test_statements_of_one_sex_stay_distinct_keys_of_one_row():
    row = {AtLeastOne(Sex.BOY): Fraction(1, 4), TwoOfAKind(Sex.BOY): Fraction(1, 4),
           ProudOf(Sex.BOY): Fraction(1, 8)}
    assert len(row) == 3
    m = marginal(ProtocolKernel.from_rows(CFG, {f: row for f in enumerate_families(CFG)}))
    assert m == {AtLeastOne(Sex.BOY): Fraction(1, 4), TwoOfAKind(Sex.BOY): Fraction(1, 4),
                 ProudOf(Sex.BOY): Fraction(1, 8), REJECT: Fraction(3, 8)}


def test_a_freshly_built_claim_finds_its_marginal_entry():
    # as the benchmark's marginal check looks it up: a statement built after
    # the kernel, from the package's own types
    m = marginal(build_scenario("gn-dn", WorldConfig(30, 2), day=3).kernel)
    for fresh in (Claim(Sex.BOY, 3), Claim(sex=Sex.BOY, day=3),
                  pickle.loads(pickle.dumps(Claim(Sex.BOY, 3))),
                  dataclasses.replace(Claim(Sex.GIRL, 3), sex=Sex.BOY)):
        assert m.get(fresh) == Fraction(1, 60)


# each builtin's canonical statement as the text it was once parsed from; {day}
# is the target day, {default} the week's default day
FORMER_STATEMENTS = {
    "any-answer": "atleastone(boy)", "bc-dn": "claim(boy,d{default})",
    "bc-tc": "claim(boy,d{day})", "brag": "atleastone(boy)",
    "classic-coinflip": "atleastone(boy)", "classic-selection": "atleastone(boy)",
    "deemphasize": "atleastone(boy)", "gn-dn": "claim(boy,d{default})",
    "gn-tc": "claim(boy,d{day})", "yesno": "yes",
}


@pytest.mark.parametrize("d", [1, 2, 7, 30])
def test_builtin_statements_are_the_parsed_statements_of_their_former_text(d):
    cfg = WorldConfig(d, 2)
    assert list(FORMER_STATEMENTS) == list(BUILTIN_IDS)
    default = 1 if d == 7 else 0
    for day in sorted({0, 1 % d, d - 1}):
        for sid, text in FORMER_STATEMENTS.items():
            b = bind_builtin(sid, cfg, day=day)
            said = parse_statement_text(text.format(day=day, default=default), cfg)
            assert b.statement is said, (sid, day)
            assert b.query == parse_event_text("all(boy)", cfg)
