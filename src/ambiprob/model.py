"""Outcome space for n-children families: enumeration, uniform prior, and an
event-predicate language evaluated by exhaustive enumeration.

All probability is exact: weights are `fractions.Fraction` throughout, and no
floating point appears in this module.
"""

from __future__ import annotations

import itertools
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
    return ",".join(f"{c.sex.value}@{c.day}" for c in f)


def enumerate_families(cfg: WorldConfig) -> list[Family]:
    """All (2d)^n families, lexicographic by (child index, sex, day)."""
    per_child = [
        Child(sex, day) for sex in (Sex.BOY, Sex.GIRL) for day in range(cfg.week_length)
    ]
    return [tuple(combo) for combo in itertools.product(per_child, repeat=cfg.family_size)]


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


@dataclass(frozen=True)
class And:
    left: "QueryPredicate"
    right: "QueryPredicate"


@dataclass(frozen=True)
class Or:
    left: "QueryPredicate"
    right: "QueryPredicate"


@dataclass(frozen=True)
class Not:
    inner: "QueryPredicate"


@dataclass(frozen=True)
class Always:
    """The trivially true event."""


QueryPredicate = (
    ChildSexIs | ChildDayIs | Exists | CountAtLeast | AllMatch | And | Or | Not | Always
)


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
        case And(left=a, right=b):
            return eval_query(a, f) and eval_query(b, f)
        case Or(left=a, right=b):
            return eval_query(a, f) or eval_query(b, f)
        case Not(inner=p):
            return not eval_query(p, f)
    raise TypeError(f"not a query predicate: {q!r}")


def check_well_formed(q: QueryPredicate, cfg: WorldConfig) -> None:
    """Raise ValueError if q references an index or day outside cfg."""
    match q:
        case ChildSexIs(index=i) | ChildDayIs(index=i):
            if not 0 <= i < cfg.family_size:
                raise ValueError(f"child index {i} out of range for n={cfg.family_size}")
        case And(left=a, right=b) | Or(left=a, right=b):
            check_well_formed(a, cfg)
            check_well_formed(b, cfg)
            return
        case Not(inner=p):
            check_well_formed(p, cfg)
            return
    day = getattr(q, "day", None)
    if day is not None and not 0 <= day < cfg.week_length:
        raise ValueError(f"day {day} out of range for d={cfg.week_length}")


def count_families(cfg: WorldConfig, q: QueryPredicate) -> int:
    return sum(eval_query(q, f) for f in enumerate_families(cfg))


def restrict_prior(prior: PriorDistribution, q: QueryPredicate) -> PriorDistribution:
    """Condition by rejection: zero out non-q families and renormalize exactly."""
    kept = {f: w for f, w in prior.items() if w > 0 and eval_query(q, f)}
    total = sum(kept.values(), Fraction(0))
    if total == 0:
        raise EmptySupport("no family in the support satisfies the predicate")
    return {f: w / total for f, w in kept.items()}
