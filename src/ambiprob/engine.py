"""Statement-emission kernels and exact Bayesian conditioning by enumeration.

A protocol is a per-family distribution over structured statements; weight not
assigned to any statement is reject mass. Posteriors are exact Bayes quotients
over the (pre-filter renormalized) uniform prior.

A kernel is a class table: families the procedure cannot tell apart share one
row, stored once under their class vector. The vectors in the table are the
support; every support family weighs the same, so `posterior` and `marginal`
sum each row's emission weights once, times its multiplicity (the number of
families with that vector), exactly (grouped by denominator, in integers) and
multiply by the family weight once. Neither tests the pre-filter (only
`validate_kernel` does, to check the rows against it), and neither builds the
per-family ``rows`` view. `posterior` generates, in `family_str` order, only
the families of the vectors that emit the statement, to test the event and
write the case table. `statement_mass` is one entry of `marginal`.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import NamedTuple

from .errors import EmptySupport, ZeroStatementMass
from .model import (
    Family,
    QueryPredicate,
    Sex,
    WorldConfig,
    compile_query,
    day_name,
    enumerate_families,
    family_str,
    week_children,
)


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Claim:
    """"I have a son/daughter born on <day>"; day None means day unmentioned."""

    sex: Sex
    day: int | None = None


@dataclass(frozen=True)
class AtLeastOne:
    sex: Sex


@dataclass(frozen=True)
class TwoOfAKind:
    sex: Sex


@dataclass(frozen=True)
class ProudOf:
    sex: Sex


@dataclass(frozen=True)
class YesNo:
    answer: bool


@dataclass(frozen=True)
class Text:
    label: str


Statement = Claim | AtLeastOne | TwoOfAKind | ProudOf | YesNo | Text


class _Reject:
    """Distinguished marginal key for unassigned (reject) mass."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "REJECT"


REJECT = _Reject()


def render_statement(s: Statement, cfg: WorldConfig) -> str:
    match s:
        case Claim(sex=sex, day=None):
            return f"claim({sex.name.lower()})"
        case Claim(sex=sex, day=day):
            return f"claim({sex.name.lower()},{day_name(day, cfg)})"
        case AtLeastOne(sex=sex):
            return f"atleastone({sex.name.lower()})"
        case TwoOfAKind(sex=sex):
            return f"twoofakind({sex.name.lower()})"
        case ProudOf(sex=sex):
            return f"proudof({sex.name.lower()})"
        case YesNo(answer=a):
            return "yes" if a else "no"
        case Text(label=label):
            return f"text({label!r})"
    raise TypeError(f"not a statement: {s!r}")


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------

Row = dict[Statement, Fraction]


@dataclass(frozen=True)
class ProtocolKernel:
    """Exact stochastic map from families to statements, with reject mass.

    ``child_class[i]`` is the class of ``week_children(config)[i]``: the index
    of the first child in its class. ``table`` maps each class vector in the
    support (the children's classes in birth order) to the emission weights
    that every family with that vector emits; weight left over from 1 is
    implicit reject mass. A family whose vector has no entry fails
    ``pre_filter``: it is sent home before speaking and renormalized away.
    Statements are ordered by first emission over ``table``. A row stands for
    many families, so it must not be mutated.
    """

    config: WorldConfig
    child_class: tuple[int, ...]
    table: dict[tuple[int, ...], Row]
    pre_filter: QueryPredicate | None = None

    @classmethod
    def from_rows(cls, config: WorldConfig, rows: Mapping[Family, Row],
                  pre_filter: QueryPredicate | None = None) -> ProtocolKernel:
        """The kernel whose support families emit ``rows``; every child is
        its own class, so each family is its own vector."""
        index = {c: i for i, c in enumerate(week_children(config))}
        table = {tuple(map(index.__getitem__, f)): row for f, row in rows.items()}
        return cls(config, tuple(index.values()), table, pre_filter)

    @functools.cached_property
    def rows(self) -> Mapping[Family, Row]:
        """Each support family's row, in `enumerate_families` order: a
        read-only view, built on first use."""
        n = self.config.family_size
        rows = zip(itertools.product(week_children(self.config), repeat=n),
                   map(self.table.get, itertools.product(self.child_class, repeat=n)))
        return MappingProxyType({f: row for f, row in rows if row is not None})

    def support(self) -> list[Family]:
        return list(self.rows)

    def multiplicities(self) -> list[int]:
        """The number of families of each vector in ``table``, in its order:
        the product of the sizes of the vector's classes."""
        size = Counter(self.child_class)
        if len(size) == len(self.child_class):  # one child per class
            return [1] * len(self.table)
        return [math.prod(map(size.__getitem__, vec)) for vec in self.table]


def validate_kernel(k: ProtocolKernel) -> list[str]:
    """Invariant check; returns one message per violation, empty iff valid."""
    classes = set(k.child_class)
    violations = [f"{vec}: class vector of no family" for vec in k.table
                  if len(vec) != k.config.family_size or not classes.issuperset(vec)]
    in_order = enumerate_families(k.config)
    if k.pre_filter is not None:
        in_order = list(filter(compile_query(k.pre_filter, k.config), in_order))
    support = set(in_order)
    for f in in_order:  # list order: the messages must not depend on hashing
        if f not in k.rows:
            violations.append(f"{family_str(f)}: no row for support family")
    for f, row in k.rows.items():
        tag = family_str(f)
        if f not in support:
            violations.append(f"{tag}: row for a family outside the support")
            continue
        total = Fraction(0)
        for s, w in row.items():
            if w < 0:
                violations.append(f"{tag}: negative weight {w} for {s!r}")
            if isinstance(s, Claim) and s.day is not None:
                if not 0 <= s.day < k.config.week_length:
                    violations.append(f"{tag}: statement day {s.day} out of range")
            total += w
        if total > 1:
            violations.append(f"{tag}: emission weights sum to {total} > 1")
    return violations


class CaseRow(NamedTuple):
    family: Family
    prior: Fraction
    emission: Fraction
    event: bool


@dataclass(frozen=True)
class PosteriorReport:
    statement: Statement
    statement_mass: Fraction
    joint_mass: Fraction
    posterior: Fraction
    case_table: tuple[CaseRow, ...] = field(repr=False)


def _case_order(cfg: WorldConfig, child_class: tuple[int, ...], vectors: Iterable[tuple]):
    """Each family whose class vector is in `vectors`, as (vector, family), in
    `family_str` order. That joins per-child keys ``<sex letter>@<day>`` with
    ``,``, which sorts below every digit, so ordering the children by (sex
    letter, day as text) orders the families without sorting them; a prefix
    grows only by the children whose class leads on to one of `vectors`.
    """
    order = sorted(zip(week_children(cfg), child_class),
                   key=lambda ck: (ck[0].sex.value, str(ck[0].day)))
    leads: dict[tuple, set[int]] = {}  # prefix -> the classes that may follow it
    for vec in vectors:
        for i, k in enumerate(vec):
            leads.setdefault(vec[:i], set()).add(k)
    grow = {p: [(c, p + (k,)) for c, k in order if k in ks] for p, ks in leads.items()}
    level = [((), ())]
    for _ in range(cfg.family_size):
        level = ((q, f + (c,)) for p, f in level for c, q in grow.get(p, ()))
    return level


def _add(acc: dict[int, int], w: Fraction, m: int = 1) -> None:
    """Add m * w to an exact sum kept as numerator totals per denominator."""
    n, d = w.as_integer_ratio()
    acc[d] = acc.get(d, 0) + n * m


def _total(acc: dict[int, int]) -> Fraction:
    return sum((Fraction(n, d) for d, n in acc.items()), Fraction(0))


def statement_mass(k: ProtocolKernel, s: Statement) -> Fraction:
    """P(s emitted): its `marginal` entry, or 0 if s is never emitted."""
    return marginal(k).get(s, Fraction(0))


def posterior(k: ProtocolKernel, s: Statement, q: QueryPredicate) -> PosteriorReport:
    """Exact Bayes quotient P(q | s emitted) with the full per-family case table."""
    if not k.table:
        raise EmptySupport("no family in the support satisfies the predicate")
    counts = k.multiplicities()
    emission: dict[tuple, Fraction] = {}  # class vector -> its weight of s, if not 0
    s_acc: dict[int, int] = {}
    for (vec, row), m in zip(k.table.items(), counts):
        e = row.get(s)
        if e:
            emission[vec] = e
            _add(s_acc, e, m)
    prior = Fraction(1, sum(counts))
    s_mass = _total(s_acc) * prior
    if s_mass == 0:
        raise ZeroStatementMass(
            f"statement {render_statement(s, k.config)} is never emitted under this protocol"
        )
    event = compile_query(q, k.config)
    cases = []
    hits = []  # the class vector of each emitting family where q holds
    for vec, f in _case_order(k.config, k.child_class, emission):
        holds = event(f)
        cases.append(CaseRow(f, prior, emission[vec], holds))
        if holds:
            hits.append(vec)
    joint_acc: dict[int, int] = {}
    for vec, m in Counter(hits).items():
        _add(joint_acc, emission[vec], m)
    joint = _total(joint_acc) * prior
    return PosteriorReport(s, s_mass, joint, joint / s_mass, tuple(cases))


def marginal(k: ProtocolKernel) -> dict:
    """Masses over every emitted statement plus a REJECT entry; sums to 1 exactly.

    Statements appear in order of first emission over ``table``.
    """
    if not k.table:
        raise EmptySupport("no family in the support satisfies the predicate")
    counts = k.multiplicities()
    accs: dict = {}
    emitted: dict[int, int] = {}
    for row, m in zip(k.table.values(), counts):
        for s, ew in row.items():
            n, d = ew.as_integer_ratio()
            if n > 0:
                acc = accs.get(s)
                if acc is None:
                    acc = accs[s] = {}
                acc[d] = acc.get(d, 0) + n * m
                emitted[d] = emitted.get(d, 0) + n * m
    size = sum(counts)
    prior = Fraction(1, size)
    out: dict = {s: _total(acc) * prior for s, acc in accs.items()}
    out[REJECT] = (size - _total(emitted)) * prior
    return out
