from fractions import Fraction

import pytest

from ambiprob.errors import EmptySupport
from ambiprob.model import (
    AllMatch,
    Always,
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
    _leaves,
    count_families,
    enumerate_families,
    eval_query,
    family_str,
    restrict_prior,
    uniform_prior,
)

TUE = 1
CFG = WorldConfig(week_length=7, family_size=2)


def test_config_invariants():
    with pytest.raises(ValueError):
        WorldConfig(week_length=0)
    with pytest.raises(ValueError):
        WorldConfig(family_size=0)
    assert CFG.n_outcomes == 196


@pytest.mark.parametrize(
    "d,n,expected",
    [(7, 2, 196), (1, 1, 2), (7, 1, 14), (2, 2, 16), (1, 2, 4)],
)
def test_enumeration_size(d, n, expected):
    fams = enumerate_families(WorldConfig(d, n))
    assert len(fams) == expected
    assert len(set(fams)) == expected


def test_enumeration_order_is_lexicographic():
    fams = enumerate_families(WorldConfig(2, 2))
    keys = [tuple((c.sex.value, c.day) for c in f) for f in fams]
    assert keys == sorted(keys)
    assert fams[0] == (Child(Sex.BOY, 0), Child(Sex.BOY, 0))


def test_uniform_prior_weights():
    prior = uniform_prior(CFG)
    assert all(w == Fraction(1, 196) for w in prior.values())
    assert sum(prior.values()) == 1
    tiny = uniform_prior(WorldConfig(1, 1))
    assert all(w == Fraction(1, 2) for w in tiny.values())


def test_eval_query_atoms():
    f = (Child(Sex.BOY, TUE), Child(Sex.GIRL, 4))
    assert eval_query(Exists(Sex.BOY, TUE), f)
    assert not eval_query(AllMatch(sex=Sex.BOY), f)
    assert not eval_query(CountAtLeast(1, Sex.BOY), (Child(Sex.GIRL, 0), Child(Sex.GIRL, 0)))
    assert eval_query(ChildSexIs(0, Sex.BOY), f)
    assert eval_query(ChildDayIs(1, 4), f)
    assert eval_query(Always(), f)
    assert eval_query(Or(AllMatch(sex=Sex.BOY), Exists(Sex.GIRL)), f)
    assert eval_query(Not(AllMatch(day=TUE)), f)


def test_counts_match_tuesday_case_analysis():
    assert count_families(CFG, Exists(Sex.BOY, TUE)) == 27
    assert count_families(CFG, And(Exists(Sex.BOY, TUE), AllMatch(sex=Sex.BOY))) == 13
    assert count_families(CFG, AllMatch(sex=Sex.BOY)) == 49
    assert count_families(CFG, Always()) == 196


def test_five_group_partition():
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
    # pairwise disjoint
    for i in range(5):
        for j in range(i + 1, 5):
            assert count_families(CFG, And(groups[i], groups[j])) == 0
    assert sum(counts) == 27


def test_count_complement():
    q = Exists(Sex.BOY, TUE)
    assert count_families(CFG, q) + count_families(CFG, Not(q)) == 196


def test_restrict_prior_renormalizes_exactly():
    prior = uniform_prior(CFG)
    restricted = restrict_prior(prior, Exists(Sex.BOY, TUE))
    assert len(restricted) == 27
    assert all(w == Fraction(1, 27) for w in restricted.values())
    assert sum(restricted.values()) == 1


def test_restrict_prior_identity_and_idempotence():
    prior = uniform_prior(CFG)
    assert restrict_prior(prior, Always()) == prior
    q = Exists(Sex.BOY, TUE)
    once = restrict_prior(prior, q)
    assert restrict_prior(once, q) == once


def test_restrict_prior_empty_support():
    prior = uniform_prior(CFG)
    contradiction = And(AllMatch(sex=Sex.BOY), AllMatch(sex=Sex.GIRL))
    with pytest.raises(EmptySupport):
        restrict_prior(prior, contradiction)


def test_family_rendering():
    f = (Child(Sex.BOY, 1), Child(Sex.GIRL, 4))
    assert family_str(f) == "B@1,G@4"


def test_rational_arithmetic_laws():
    a, b = Fraction(13, 27), Fraction(7, 196)
    assert (a + b) - b == a
    assert (a * b) / b == a
    x = Fraction(26, 54)
    assert (x.numerator, x.denominator) == (13, 27)


def test_leaves_walk_and_or_not_left_to_right():
    a, b, c, d = Exists(Sex.BOY), ChildDayIs(0, TUE), AllMatch(day=3), Always()
    q = Or(And(a, Not(b)), Not(Or(c, And(d, a))))
    assert list(_leaves(q)) == [a, b, c, d, a]
    assert list(_leaves(c)) == [c]
