"""Outcome space for n-children families: enumeration, uniform prior, and an
event-predicate language evaluated by exhaustive enumeration.

`And` and `Or` take any number of terms and flatten their own kind, so a
chain of one connective is one node however long it is, and nothing recurses
along it. `eval_query` is the reference interpreter of that language. Hot
loops test a predicate on every family, so they call `compile_query` instead:
it turns the predicate into a one-argument test once, and that test agrees
with `eval_query` on every family of the world it was compiled for.

All probability is exact: weights are `fractions.Fraction` throughout, and no
floating point appears in this module.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import NamedTuple

from .errors import EmptySupport

DAY_NAMES = ("mon", "tue", "wed", "thu", "fri", "sat", "sun")


class Sex(Enum):
    BOY = "B"
    GIRL = "G"

    # Members are singletons compared by identity, so the C-level identity
    # hash is consistent with equality and much cheaper than Enum's name hash.
    __hash__ = object.__hash__


class Child(NamedTuple):
    """A tuple, so families hash and compare in C; equal to ``(sex, day)``."""

    sex: Sex
    day: int  # 0-based day-of-week index; 0=Monday when week_length == 7


# A family is an ordered tuple of children; birth order is significant.
Family = tuple[Child, ...]


@dataclass(frozen=True)
class WorldConfig:
    """Week length d and family size n; the outcome space has (2d)^n points."""

    week_length: int = 7
    family_size: int = 2

    def __post_init__(self):
        if self.week_length < 1:
            raise ValueError(f"week_length must be >= 1, got {self.week_length}")
        if self.family_size < 1:
            raise ValueError(f"family_size must be >= 1, got {self.family_size}")

    @property
    def n_outcomes(self) -> int:
        return (2 * self.week_length) ** self.family_size


def day_name(day: int, cfg: WorldConfig) -> str:
    if cfg.week_length == 7:
        return DAY_NAMES[day]
    return f"d{day}"


def family_str(f: Family) -> str:
    """Canonical rendering, e.g. ``B@1,G@4`` (sex letter, day index, birth order)."""
    return ",".join([f"{c.sex._value_}@{c.day}" for c in f])


@functools.lru_cache(maxsize=32)
def week_children(cfg: WorldConfig) -> tuple[Child, ...]:
    """The 2d children each birth position ranges over, by (sex, day).

    `enumerate_families` is their n-fold product, in this order. The tuple is
    kept for the last 32 worlds, so the families and compiled tests that the
    compiler, the engine and the sampler build for one world share its `Child`
    objects, and a lookup of an equal family finds each child by identity.
    """
    return tuple(Child(sex, day) for sex in (Sex.BOY, Sex.GIRL) for day in range(cfg.week_length))


@functools.lru_cache(maxsize=32)
def child_labels(cfg: WorldConfig) -> tuple[str, ...]:
    """`family_str` of each one-child family of `week_children(cfg)`, in that
    order, rendered once for each of the last 32 worlds."""
    return tuple(family_str((c,)) for c in week_children(cfg))


def enumerate_families(cfg: WorldConfig) -> list[Family]:
    """All (2d)^n families, lexicographic by (child index, sex, day)."""
    return list(itertools.product(week_children(cfg), repeat=cfg.family_size))


PriorDistribution = dict[Family, Fraction]


# `engine` conditions by counting and builds no prior, so `src/` calls neither
# `uniform_prior` nor `restrict_prior`. Both stay: they are the explicit-prior
# reference that tests/test_properties.py checks the engine against, and the
# benchmark's `model.prior.self_s` metric times them (perfbench/tracer.py).
def uniform_prior(cfg: WorldConfig) -> PriorDistribution:
    w = Fraction(1, cfg.n_outcomes)
    return {f: w for f in enumerate_families(cfg)}


# ---------------------------------------------------------------------------
# Event predicates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChildSexIs:
    index: int
    sex: Sex


@dataclass(frozen=True)
class ChildDayIs:
    index: int
    day: int


@dataclass(frozen=True)
class Exists:
    """At least one child matching the given constraints (None = unconstrained)."""

    sex: Sex | None = None
    day: int | None = None


@dataclass(frozen=True)
class CountAtLeast:
    k: int
    sex: Sex | None = None
    day: int | None = None


@dataclass(frozen=True)
class AllMatch:
    sex: Sex | None = None
    day: int | None = None


@dataclass(frozen=True, init=False)
class _Chain:
    """A chain of one connective over any number of terms, kept flat: a term
    of the chain's own kind gives its terms in its place, so
    ``And(a, And(b, c)) == And(a, b, c)``."""

    terms: tuple["QueryPredicate", ...]

    def __init__(self, *terms: "QueryPredicate"):
        kind = type(self)
        object.__setattr__(self, "terms", tuple(
            u for t in terms for u in (t.terms if type(t) is kind else (t,))))


class And(_Chain):
    """Every term holds.

    Build a long chain in one call, ``And(*terms)``: folding ``q = And(q, t)``
    in a loop copies the terms at each step, in time quadratic in its length."""


class Or(_Chain):
    """Some term holds.

    Build a long chain in one call, ``Or(*terms)``: folding ``q = Or(q, t)``
    in a loop copies the terms at each step, in time quadratic in its length."""


@dataclass(frozen=True)
class Not:
    inner: "QueryPredicate"


@dataclass(frozen=True)
class Always:
    """The trivially true event."""


QueryPredicate = (
    ChildSexIs | ChildDayIs | Exists | CountAtLeast | AllMatch | And | Or | Not | Always
)


def _leaves(q):
    """The leaves under q's `And`/`Or`/`Not` (which the protocol language's
    predicates share), left to right; a loop, as predicates nest deeply."""
    todo = [q]
    while todo:
        q = todo.pop()
        if isinstance(q, _Chain):
            todo += reversed(q.terms)
        elif isinstance(q, Not):
            todo.append(q.inner)
        else:
            yield q


def _child_matches(c: Child, sex: Sex | None, day: int | None) -> bool:
    return (sex is None or c.sex == sex) and (day is None or c.day == day)


def eval_query(q: QueryPredicate, f: Family) -> bool:
    """Truth value of q on f; total, pure, deterministic."""
    match q:
        case Always():
            return True
        case ChildSexIs(index=i, sex=s):
            return f[i].sex == s
        case ChildDayIs(index=i, day=d):
            return f[i].day == d
        case Exists(sex=s, day=d):
            return any(_child_matches(c, s, d) for c in f)
        case CountAtLeast(k=k, sex=s, day=d):
            return sum(_child_matches(c, s, d) for c in f) >= k
        case AllMatch(sex=s, day=d):
            return all(_child_matches(c, s, d) for c in f)
        case And(terms=ts):
            return all(eval_query(t, f) for t in ts)
        case Or(terms=ts):
            return any(eval_query(t, f) for t in ts)
        case Not(inner=p):
            return not eval_query(p, f)
    raise TypeError(f"not a query predicate: {q!r}")


def _matching_children(cfg: WorldConfig, sex: Sex | None, day: int | None) -> frozenset[Child]:
    """The children of `week_children(cfg)` that match, sliced from it (its
    boys come first, each sex in day order); a day outside the week matches
    none of them."""
    children, d = week_children(cfg), cfg.week_length
    if sex is not None:
        children = children[:d] if sex is Sex.BOY else children[d:]
    if day is not None:
        children = children[day::d] if 0 <= day < d else ()
    return frozenset(children)


def _compile_chain(q: And | Or, cfg: WorldConfig) -> Callable[[Family], bool]:
    """One test for an `Or` or an `And` over its terms: under `or` its
    `Exists` terms merge into one `isdisjoint` on the union of the children
    they match, and under `and` its `AllMatch` terms into one `issuperset` on
    the intersection; the other terms are tested with `any`/`all` over a
    tuple. A repeated term is compiled once, as `and` and `or` are idempotent."""
    is_or = type(q) is Or
    merged = Exists if is_or else AllMatch
    children = None  # the children the merged terms match
    tests = []
    for term in dict.fromkeys(q.terms):
        if type(term) is merged:
            m = _matching_children(cfg, term.sex, term.day)
            children = m if children is None else (children | m if is_or else children & m)
        else:
            tests.append(compile_query(term, cfg))
    if children is not None:
        if is_or:
            disjoint = children.isdisjoint
            tests.insert(0, lambda f: not disjoint(f))
        else:
            tests.insert(0, children.issuperset)
    if len(tests) == 1:
        return tests[0]
    if len(tests) == 2:  # as fast as a binary node: a generator costs twice that
        ta, tb = tests
        return (lambda f: ta(f) or tb(f)) if is_or else (lambda f: ta(f) and tb(f))
    tests = tuple(tests)
    if is_or:
        return lambda f: any(t(f) for t in tests)
    return lambda f: all(t(f) for t in tests)


def compile_query(q: QueryPredicate, cfg: WorldConfig) -> Callable[[Family], bool]:
    """A test of one family equal to ``eval_query(q, f)`` for every family f
    of cfg.

    `Exists`, `AllMatch` and `CountAtLeast` become set operations on the
    frozenset of cfg's children that match, so they run in C with no Python
    call per child. An `And` or `Or` is one test over its terms (`_compile_chain`).
    """
    match q:
        case Always():
            return lambda f: True
        case ChildSexIs(index=i, sex=s):
            return lambda f: f[i].sex == s
        case ChildDayIs(index=i, day=d):
            return lambda f: f[i].day == d
        case Exists(sex=s, day=d):
            disjoint = _matching_children(cfg, s, d).isdisjoint
            return lambda f: not disjoint(f)
        case AllMatch(sex=s, day=d):
            return _matching_children(cfg, s, d).issuperset
        case CountAtLeast(k=k, sex=s, day=d):
            count = _matching_children(cfg, s, d).__contains__
            return lambda f: sum(map(count, f)) >= k
        case And() | Or():
            return _compile_chain(q, cfg)
        case Not(inner=p):
            tp = compile_query(p, cfg)
            return lambda f: not tp(f)
    raise TypeError(f"not a query predicate: {q!r}")


def count_families(cfg: WorldConfig, q: QueryPredicate) -> int:
    return sum(eval_query(q, f) for f in enumerate_families(cfg))


def restrict_prior(prior: PriorDistribution, q: QueryPredicate) -> PriorDistribution:
    """Condition by rejection: zero out non-q families and renormalize exactly."""
    kept = {f: w for f, w in prior.items() if w > 0 and eval_query(q, f)}
    total = sum(kept.values(), Fraction(0))
    if total == 0:
        raise EmptySupport("no family in the support satisfies the predicate")
    return {f: w / total for f, w in kept.items()}
