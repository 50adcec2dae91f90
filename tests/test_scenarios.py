from fractions import Fraction

import pytest

from ambiprob.engine import AtLeastOne, Claim, TwoOfAKind, YesNo, marginal, posterior, validate_kernel
from ambiprob.errors import DayOutOfRange, InvalidProbability, UnsupportedConfig
from ambiprob.model import AllMatch, Child, Sex, WorldConfig
from ambiprob.scenarios import BUILTIN_IDS, build_scenario, sweep_formula, week_sweep

TUE = 1
CFG = WorldConfig(7, 2)
BOTH_BOYS = AllMatch(sex=Sex.BOY)


def answer(sc):
    return posterior(sc.kernel, sc.canonical_statement, sc.canonical_query).posterior


def test_all_builtins_validate_and_hit_expected_answers():
    for sid in BUILTIN_IDS:
        sc = build_scenario(sid, CFG, p=Fraction(13, 27))
        assert validate_kernel(sc.kernel) == [], sid
        assert answer(sc) == sc.expected_answer, sid


def test_classic_selection():
    sc = build_scenario("classic-selection", CFG)
    assert answer(sc) == Fraction(1, 3)
    from ambiprob.engine import statement_mass

    assert statement_mass(sc.kernel, AtLeastOne(Sex.BOY)) == 1
    assert answer(build_scenario("classic-selection", WorldConfig(1, 2))) == Fraction(1, 3)


def test_classic_coinflip():
    sc = build_scenario("classic-coinflip", CFG)
    assert answer(sc) == Fraction(1, 2)
    m = marginal(sc.kernel)
    assert m[AtLeastOne(Sex.BOY)] == m[AtLeastOne(Sex.GIRL)]
    mirrored = posterior(sc.kernel, AtLeastOne(Sex.GIRL), AllMatch(sex=Sex.GIRL))
    assert mirrored.posterior == Fraction(1, 2)


def test_brag_and_deemphasize():
    assert answer(build_scenario("brag", CFG)) == 0
    assert answer(build_scenario("deemphasize", CFG)) == 1
    two_boys = posterior(build_scenario("brag", CFG).kernel, TwoOfAKind(Sex.BOY), BOTH_BOYS)
    assert two_boys.posterior == 1


def test_gn_dn_details():
    sc = build_scenario("gn-dn", CFG)
    assert answer(sc) == Fraction(1, 2)
    m = marginal(sc.kernel)
    from ambiprob.engine import REJECT

    assert m[REJECT] == 0
    both_tue_sons = (Child(Sex.BOY, TUE), Child(Sex.BOY, TUE))
    assert sc.kernel.rows[both_tue_sons][Claim(Sex.BOY, TUE)] == 1


def test_bc_dn_details():
    sc = build_scenario("bc-dn", CFG)
    assert answer(sc) == Fraction(1, 3)
    sons_tue_wed = (Child(Sex.BOY, TUE), Child(Sex.BOY, 2))
    assert sc.kernel.rows[sons_tue_wed][Claim(Sex.BOY, TUE)] == Fraction(1, 2)
    from ambiprob.engine import statement_mass

    masses = {d: statement_mass(sc.kernel, Claim(Sex.BOY, d)) for d in range(7)}
    assert len(set(masses.values())) == 1  # day symmetry


def test_bc_tc_support_counts():
    sc = build_scenario("bc-tc", CFG, day=TUE)
    support = sc.kernel.rows
    mixed = [f for f in support if {c.sex for c in f} == {Sex.BOY, Sex.GIRL}]
    two_sons = [f for f in support if all(c.sex == Sex.BOY for c in f)]
    assert len(mixed) == 14
    assert len(two_sons) == 13
    assert answer(sc) == Fraction(13, 27)
    assert answer(build_scenario("bc-tc", WorldConfig(1, 2), day=0)) == Fraction(1, 3)


def test_gn_tc_support_counts_and_symmetry():
    sc = build_scenario("gn-tc", CFG, day=TUE)
    support = sc.kernel.rows
    by_boys = {0: 0, 1: 0, 2: 0}
    for f in support:
        by_boys[sum(c.sex == Sex.BOY for c in f)] += 1
    assert by_boys == {0: 13, 1: 26, 2: 13}
    assert answer(sc) == Fraction(1, 2)
    mirrored = posterior(sc.kernel, Claim(Sex.GIRL, TUE), AllMatch(sex=Sex.GIRL))
    assert mirrored.posterior == Fraction(1, 2)


def test_gender_swap_symmetry_gn_dn():
    sc = build_scenario("gn-dn", CFG)
    for day in range(7):
        boy = posterior(sc.kernel, Claim(Sex.BOY, day), AllMatch(sex=Sex.BOY))
        girl = posterior(sc.kernel, Claim(Sex.GIRL, day), AllMatch(sex=Sex.GIRL))
        assert boy.posterior == girl.posterior


def test_yesno():
    sc = build_scenario("yesno", CFG, day=TUE)
    assert answer(sc) == Fraction(13, 27)
    from ambiprob.engine import statement_mass

    assert statement_mass(sc.kernel, YesNo(True)) == Fraction(27, 196)
    no_rep = posterior(sc.kernel, YesNo(False), BOTH_BOYS)
    assert no_rep.posterior == Fraction(36, 169)


def test_yesno_equals_bc_tc_for_all_days_and_weeks():
    for d in (1, 2, 7):
        cfg = WorldConfig(d, 2)
        for day in range(d):
            a = answer(build_scenario("bc-tc", cfg, day=day))
            b = answer(build_scenario("yesno", cfg, day=day))
            assert a == b


@pytest.mark.parametrize(
    "p",
    [Fraction(0), Fraction(1, 7), Fraction(1, 3), Fraction(13, 27), Fraction(1, 2), Fraction(9, 10), Fraction(1)],
)
def test_any_answer_is_exact(p):
    sc = build_scenario("any-answer", CFG, p=p)
    assert validate_kernel(sc.kernel) == []
    assert answer(sc) == p


def test_any_answer_rejects_bad_p():
    with pytest.raises(InvalidProbability):
        build_scenario("any-answer", CFG, p=Fraction(3, 2))


def test_constructors_reject_other_family_sizes():
    three = WorldConfig(7, 3)
    with pytest.raises(UnsupportedConfig):
        build_scenario("classic-selection", three)
    with pytest.raises(UnsupportedConfig):
        build_scenario("gn-dn", three)
    with pytest.raises(DayOutOfRange):
        build_scenario("bc-tc", CFG, day=7)
    with pytest.raises(DayOutOfRange):
        build_scenario("gn-tc", CFG, day=-1)


def test_default_target_day_is_tuesday_on_a_7_day_week_only():
    assert build_scenario("bc-tc", CFG).canonical_statement == Claim(Sex.BOY, TUE)
    assert answer(build_scenario("any-answer", CFG)) == Fraction(1, 2)
    month = WorldConfig(30, 2)
    for sid in ("bc-tc", "gn-tc", "yesno"):
        with pytest.raises(DayOutOfRange, match="needs a target day on a 30-day week"):
            build_scenario(sid, month)
    # a day-neutral builtin needs no target day; its claims name day 0
    assert build_scenario("gn-dn", month).canonical_statement == Claim(Sex.BOY, 0)
    assert answer(build_scenario("brag", month)) == 0


def _brute_force_day_centered(d):
    """Independent oracle: among two-children families with a son born on day
    0 of a d-day week, the fraction with two sons. Direct loops, no engine."""
    support = hit = 0
    for s1 in "BG":
        for d1 in range(d):
            for s2 in "BG":
                for d2 in range(d):
                    if (s1 == "B" and d1 == 0) or (s2 == "B" and d2 == 0):
                        support += 1
                        if s1 == "B" and s2 == "B":
                            hit += 1
    return Fraction(hit, support)


def test_week_sweep_matches_formula_and_brute_force():
    results = week_sweep(range(1, 31))
    assert len(results) == 30
    for d, value in results:
        assert value == sweep_formula(d)
    assert dict(results)[1] == Fraction(1, 3)
    assert dict(results)[2] == Fraction(3, 7) == _brute_force_day_centered(2)
    assert dict(results)[7] == Fraction(13, 27) == _brute_force_day_centered(7)


def test_sweep_strictly_increasing_below_half():
    values = [sweep_formula(d) for d in range(1, 31)]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert all(v < Fraction(1, 2) for v in values)


def test_build_scenario_unknown_id():
    with pytest.raises(KeyError):
        build_scenario("nope", CFG)
