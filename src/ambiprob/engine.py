"""Statement-emission kernels and exact Bayesian conditioning by enumeration.

A protocol is a per-family distribution over structured statements; weight not
assigned to any statement is reject mass. Posteriors are exact Bayes quotients
over the (pre-filter renormalized) uniform prior.

A kernel's rows are its support: a family with no row was sent home. Under the
uniform prior every row weighs ``1/len(rows)``, so `posterior` and `marginal`
sum the emission weights exactly (grouped by denominator, in integers) and
multiply by that weight once; neither tests the pre-filter (only
`validate_kernel` does, to check the rows against it).

Families may share one row object (the compiler gives every family of a class
it cannot tell apart the same row), so rows are read-only. Both conditioners
sum over `ProtocolKernel.distinct_rows`, each distinct row once, weighted by
its multiplicity: the number of families that share it. `marginal` reads
nothing else; `posterior` walks the families in `family_str` order, generated
without sorting, only to test the event and write the case table in that
order. `statement_mass` is one entry of `marginal`.
"""

from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field
from fractions import Fraction
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

    ``rows`` maps each family in the support to its emission weights, in
    `enumerate_families` order; weight left over from 1 is implicit reject
    mass. A family with no row fails ``pre_filter``: it is sent home before
    speaking and renormalized away. Statements are ordered by first emission
    over ``rows``. Several families may map to the same row object, so a row
    must not be mutated.

    ``classes``, when its builder knows them (`dsl.compile_protocol` does),
    are the distinct rows and their multiplicities that `distinct_rows` would
    otherwise count, as two aligned tuples; `validate_kernel` checks them.
    """

    config: WorldConfig
    rows: dict[Family, Row]
    pre_filter: QueryPredicate | None = None
    classes: tuple[tuple[Row, ...], tuple[int, ...]] | None = field(
        default=None, repr=False, compare=False
    )

    def support(self) -> list[Family]:
        return list(self.rows)

    def distinct_rows(self) -> Iterable[tuple[Row, int]]:
        """Each distinct row object with its multiplicity, the number of
        families that share it, in order of first appearance in ``rows``.

        These are ``classes`` if given, else counted from ``rows``. Rows are
        told apart by identity, not by value: a kernel whose families hold
        rows of their own has multiplicity 1 everywhere.
        """
        if self.classes is not None:
            return zip(*self.classes)
        return _count_rows(self.rows)


def _count_rows(rows: dict[Family, Row]) -> list[tuple[Row, int]]:
    values = rows.values()
    counts = Counter(map(id, values))
    by_id = dict(zip(map(id, values), values))
    return [(by_id[i], m) for i, m in counts.items()]


def validate_kernel(k: ProtocolKernel) -> list[str]:
    """Invariant check; returns one message per violation, empty iff valid."""
    violations = []
    if k.classes is not None:
        counted = [(id(row), m) for row, m in _count_rows(k.rows)]
        if [(id(row), m) for row, m in k.distinct_rows()] != counted:
            violations.append("classes do not count the distinct rows of the kernel")
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


def _case_order(cfg: WorldConfig):
    """All families in `family_str` order, generated without sorting.

    `family_str` joins per-child keys ``<sex letter>@<day>`` with ``,``, which
    sorts below every digit, so ordering each child by (sex letter, day as
    text) and taking the product orders the joined strings too.
    """
    children = sorted(week_children(cfg), key=lambda c: (c.sex.value, str(c.day)))
    return itertools.product(children, repeat=cfg.family_size)


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
    rows = k.rows
    if not rows:
        raise EmptySupport("no family in the support satisfies the predicate")
    emission: dict[int, Fraction] = {}  # id(row) -> its weight of s, if not 0
    s_acc: dict[int, int] = {}
    for row, m in k.distinct_rows():
        e = row.get(s)
        if e:
            emission[id(row)] = e
            _add(s_acc, e, m)
    prior = Fraction(1, len(rows))
    s_mass = _total(s_acc) * prior
    if s_mass == 0:
        raise ZeroStatementMass(
            f"statement {render_statement(s, k.config)} is never emitted under this protocol"
        )
    event = compile_query(q, k.config)
    cases = []
    hits = []  # id(row) of each emitting family where q holds
    # the id of each family's row, in case order; id(None), for a family sent
    # home, is never in `emission`
    row_ids = list(map(id, map(rows.get, _case_order(k.config))))
    emits = list(map(emission.__contains__, row_ids))
    for f, rid in zip(itertools.compress(_case_order(k.config), emits),
                       itertools.compress(row_ids, emits)):
        holds = event(f)
        cases.append(CaseRow(f, prior, emission[rid], holds))
        if holds:
            hits.append(rid)
    joint_acc: dict[int, int] = {}
    for rid, m in Counter(hits).items():
        _add(joint_acc, emission[rid], m)
    joint = _total(joint_acc) * prior
    return PosteriorReport(s, s_mass, joint, joint / s_mass, tuple(cases))


def marginal(k: ProtocolKernel) -> dict:
    """Masses over every emitted statement plus a REJECT entry; sums to 1 exactly.

    Statements appear in order of first emission over ``rows``.
    """
    rows = k.rows
    if not rows:
        raise EmptySupport("no family in the support satisfies the predicate")
    accs: dict = {}
    emitted: dict[int, int] = {}
    for row, m in k.distinct_rows():
        for s, ew in row.items():
            n, d = ew.as_integer_ratio()
            if n > 0:
                acc = accs.get(s)
                if acc is None:
                    acc = accs[s] = {}
                acc[d] = acc.get(d, 0) + n * m
                emitted[d] = emitted.get(d, 0) + n * m
    prior = Fraction(1, len(rows))
    out: dict = {s: _total(acc) * prior for s, acc in accs.items()}
    out[REJECT] = (len(rows) - _total(emitted)) * prior
    return out
