"""Statement-emission kernels and exact Bayesian conditioning by enumeration.

A protocol is a per-family distribution over structured statements; weight not
assigned to any statement is reject mass. Posteriors are exact Bayes quotients
over the (pre-filter renormalized) uniform prior.

Statements are interned: each type's constructor returns one shared object
per field values, so a row lookup hashes and compares a statement by identity,
in C, as it does `Sex`. Copies and pickles rebuild through the constructor.

A kernel is a class table: families the procedure cannot tell apart share one
row, stored once under their class vector. The vectors in the table are the
support; every support family weighs the same, so `posterior` and `marginal`
sum each row's emission weights once, times its multiplicity (the number of
families with that vector), exactly (grouped by denominator, in integers) and
multiply by the family weight once. Neither tests the pre-filter nor walks
families: only `validate_kernel` does, once per family, to check the table
against the pre-filter, and no function here builds the per-family ``rows``
view. `posterior` refines the classes by what the event reads, tests the event
once per refined vector that emits the statement, and counts it by its number
of families. Its case table is a lazy `CaseTable`, whose length is a sum of
multiplicities and whose rows, in `family_str` order, are generated only when
it is iterated. `statement_mass` is one entry of `marginal`.

One rule, `_classes`, says when two children are alike: they are in one class,
have one sex, and neither was born on a tested day, one that some test
compares a child's day with (`_tested_days`). The compiler names a kernel's
classes by it, and `posterior` refines them by it for the days its event tests.

A kernel compiled for one statement (`dsl.compile_protocol`) tests fewer days:
where the full kernel would emit a claim of a day it does not test, it emits
`OTHER`, a key beside `REJECT` that stands for every statement it does not
tell apart. Nothing here treats OTHER apart from any other key, so
`posterior` of the statement the kernel was compiled for is the full kernel's,
and `marginal` reports OTHER's mass as one entry.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import Counter
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field, fields
from fractions import Fraction
from types import MappingProxyType
from typing import NamedTuple

from .errors import EmptySupport, ZeroStatementMass
from .model import (
    AllMatch,
    ChildDayIs,
    CountAtLeast,
    Exists,
    Family,
    QueryPredicate,
    Sex,
    WorldConfig,
    _leaves,
    compile_query,
    day_name,
    family_str,
    week_children,
)


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

_POOL: dict[tuple, Statement] = {}  # (type, *field values) -> the one such statement


def _intern(cls: type, *values) -> Statement:
    """The one statement of type cls with these field values, made on first use."""
    key = (cls, *values)
    st = _POOL.get(key)
    if st is None:
        st = object.__new__(cls)
        for f, v in zip(fields(cls), values):
            object.__setattr__(st, f.name, v)
        st = _POOL.setdefault(key, st)
    return st


class _Interned:
    """Base of the statement types: a copy or a pickle rebuilds through the
    constructor, so it is the pooled object too."""

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


@dataclass(frozen=True, eq=False, init=False)
class Claim(_Interned):
    """"I have a son/daughter born on <day>"; day None means day unmentioned."""

    sex: Sex
    day: int | None = None

    def __new__(cls, sex: Sex, day: int | None = None):
        return _intern(cls, sex, day)


@dataclass(frozen=True, eq=False, init=False)
class AtLeastOne(_Interned):
    sex: Sex

    def __new__(cls, sex: Sex):
        return _intern(cls, sex)


@dataclass(frozen=True, eq=False, init=False)
class TwoOfAKind(_Interned):
    sex: Sex

    def __new__(cls, sex: Sex):
        return _intern(cls, sex)


@dataclass(frozen=True, eq=False, init=False)
class ProudOf(_Interned):
    sex: Sex

    def __new__(cls, sex: Sex):
        return _intern(cls, sex)


@dataclass(frozen=True, eq=False, init=False)
class YesNo(_Interned):
    answer: bool

    def __new__(cls, answer: bool):
        return _intern(cls, answer)


@dataclass(frozen=True, eq=False, init=False)
class Text(_Interned):
    label: str

    def __new__(cls, label: str):
        return _intern(cls, label)


Statement = Claim | AtLeastOne | TwoOfAKind | ProudOf | YesNo | Text


class _Key:
    """A distinguished key of a row or of `marginal` that is not a statement;
    it copies and pickles as itself."""

    __slots__ = ("_name",)

    def __init__(self, name: str):
        self._name = name

    def __repr__(self):
        return self._name

    def __reduce__(self):
        return self._name


# the mass that no statement takes
REJECT = _Key("REJECT")
# the statements that a kernel compiled for one statement does not tell apart
# from each other (see `dsl.compile_protocol`); no `--say` text reads as it
OTHER = _Key("OTHER")


def render_statement(s: Statement, cfg: WorldConfig) -> str:
    """The statement as the protocol language writes it; `--say` reads it back."""
    match s:
        case Claim(sex=sex, day=None):
            return f"claim({sex.name.lower()})"
        case Claim(sex=sex, day=day):
            return f"claim({sex.name.lower()},{day_name(day, cfg)})"
        case AtLeastOne(sex=sex) | TwoOfAKind(sex=sex) | ProudOf(sex=sex):
            return f"{type(s).__name__.lower()}({sex.name.lower()})"
        case YesNo(answer=a):
            return "yes" if a else "no"
        case Text(label=label):
            escaped = label.replace("\\", "\\\\").replace('"', '\\"')
            return f'text("{escaped}")'
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
        its own class, so each family is its own vector. A family with a
        child outside the week is a ValueError."""
        index = {c: i for i, c in enumerate(week_children(config))}
        table = {}
        for f, row in rows.items():
            try:
                table[tuple(map(index.__getitem__, f))] = row
            except KeyError:
                raise ValueError(f"family {family_str(f)} has a child outside the "
                                 f"{config.week_length}-day week") from None
        return cls(config, tuple(index.values()), table, pre_filter)

    @functools.cached_property
    def rows(self) -> Mapping[Family, Row]:
        """Each support family's row, in `enumerate_families` order: a
        read-only view, built on first use."""
        n = self.config.family_size
        rows = zip(itertools.product(week_children(self.config), repeat=n),
                   map(self.table.get, itertools.product(self.child_class, repeat=n)))
        return MappingProxyType({f: row for f, row in rows if row is not None})

    def multiplicities(self) -> list[int]:
        """The number of families of each vector in ``table``, in its order:
        the product of the sizes of the vector's classes."""
        size = Counter(self.child_class)
        if len(size) == len(self.child_class):  # one child per class
            return [1] * len(self.table)
        return [math.prod(map(size.__getitem__, vec)) for vec in self.table]


def validate_kernel(k: ProtocolKernel) -> list[str]:
    """Invariant check; returns one message per violation, empty iff valid:
    each vector of no family, then each support family without a row, then
    each family's faults with its row, in `enumerate_families` order."""
    cfg, n = k.config, k.config.family_size
    classes = set(k.child_class)
    violations = [f"{vec}: class vector of no family" for vec in k.table
                  if len(vec) != n or not classes.issuperset(vec)]
    faults: dict[tuple[int, ...], list[str]] = {}  # each vector whose row has faults
    for vec, row in k.table.items():
        found = []
        for s, w in row.items():
            if w < 0:
                found.append(f"negative weight {w} for {s!r}")
            if isinstance(s, Claim) and s.day is not None and not 0 <= s.day < cfg.week_length:
                found.append(f"statement day {s.day} out of range")
        if (total := sum(row.values(), Fraction(0))) > 1:
            found.append(f"emission weights sum to {total} > 1")
        if found:
            faults[vec] = found
    keep = None if k.pre_filter is None else compile_query(k.pre_filter, cfg)
    missing, wrong = [], []
    for f, vec in zip(itertools.product(week_children(cfg), repeat=n),
                      itertools.product(k.child_class, repeat=n)):
        kept = keep is None or keep(f)
        if vec not in k.table:
            if kept:
                missing.append(f"{family_str(f)}: no row for support family")
        elif not kept:
            wrong.append(f"{family_str(f)}: row for a family outside the support")
        elif vec in faults:
            wrong.extend(f"{family_str(f)}: {fault}" for fault in faults[vec])
    return violations + missing + wrong


class CaseRow(NamedTuple):
    family: Family
    prior: Fraction
    emission: Fraction
    event: bool


class CaseTable:
    """The case rows of a posterior, one per family that emits its statement,
    in `family_str` order: a view that builds them only when iterated.

    ``child_class`` refines the kernel's classes by what the event reads, so
    every family of a refined vector has one emission and one event value;
    ``vectors`` maps each emitting refined vector to that pair. `len` is the
    number of rows, counted without building them. Two tables, or a table and
    a sequence of `CaseRow`s, are equal when their rows are.
    """

    __slots__ = ("config", "prior", "child_class", "vectors", "_len")

    def __init__(self, config: WorldConfig, prior: Fraction, child_class: tuple[int, ...],
                 vectors: dict[tuple[int, ...], tuple[Fraction, bool]], length: int):
        self.config = config
        self.prior = prior
        self.child_class = child_class
        self.vectors = vectors
        self._len = length

    def __len__(self) -> int:
        return self._len

    def families(self):
        """Each row's (refined vector, family), in `family_str` order (`_case_order`)."""
        return _case_order(self.config, self.child_class, self.vectors)

    def prefix_tree(self, labels: tuple | None = None):
        """The `_prefix_tree` that `families` walks, for writers that grow the
        rows' text a prefix at a time."""
        return _prefix_tree(self.config, self.child_class, self.vectors, labels)

    def __iter__(self):
        prior, vectors = self.prior, self.vectors
        for vec, f in self.families():
            emission, holds = vectors[vec]
            yield CaseRow(f, prior, emission, holds)

    def __eq__(self, other):
        if not isinstance(other, (CaseTable, tuple, list)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __hash__(self):
        return hash(tuple(self))


@dataclass(frozen=True)
class PosteriorReport:
    statement: Statement
    statement_mass: Fraction
    joint_mass: Fraction
    posterior: Fraction
    case_table: CaseTable = field(repr=False)


def _prefix_tree(cfg: WorldConfig, child_class: tuple[int, ...], vectors: Iterable[tuple],
                 labels: tuple | None = None) -> dict[tuple, list]:
    """Each prefix of a vector in `vectors` -> the children that may follow
    it, as [(label, longer prefix)] in `family_str` order; ``labels[i]``
    stands for ``week_children(cfg)[i]``, the children themselves by default.
    `family_str` joins per-child keys ``<sex letter>@<day>`` with ``,``, which
    sorts below every digit, so ordering the children by (sex letter, day as
    text) orders the families without sorting them; a prefix grows only by
    the children whose class leads on to one of `vectors`.
    """
    children = week_children(cfg)
    order = sorted(zip(children, labels or children, child_class),
                   key=lambda clk: (clk[0].sex.value, str(clk[0].day)))
    leads: dict[tuple, set[int]] = {}  # prefix -> the classes that may follow it
    for vec in vectors:
        for i, k in enumerate(vec):
            leads.setdefault(vec[:i], set()).add(k)
    return {p: [(c, p + (k,)) for _, c, k in order if k in ks] for p, ks in leads.items()}


def _case_order(cfg: WorldConfig, child_class: tuple[int, ...], vectors: Iterable[tuple]):
    """Each family whose class vector is in `vectors`, as (vector, family), in
    `family_str` order: the walk down `_prefix_tree`."""
    grow = _prefix_tree(cfg, child_class, vectors)
    level = [((), ())]
    for _ in range(cfg.family_size):
        level = ((q, f + (c,)) for p, f in level for c, q in grow.get(p, ()))
    return level


def _tested_days(q: QueryPredicate) -> set[int]:
    """The days that some test of q compares a child's day with."""
    return {leaf.day for leaf in _leaves(q)
            if isinstance(leaf, (Exists, AllMatch, CountAtLeast, ChildDayIs))
            and leaf.day is not None}


def _classes(cfg: WorldConfig, tested: set[int], within: Iterable[int]):
    """Each child's class, named by its first child, and the names in order:
    two children are alike when their classes in `within` are one, they have
    one sex and neither has a day in `tested`."""
    first: dict[tuple, int] = {}
    keys = zip(within, [c if c.day in tested else c.sex for c in week_children(cfg)])
    return tuple([first.setdefault(key, i) for i, key in enumerate(keys)]), tuple(first.values())


def _refine(k: ProtocolKernel, q: QueryPredicate):
    """The kernel's classes split by `_classes` for the days q tests, so
    every family of a refined vector agrees on q: each child's refined class
    and each class's refined classes in order, or None when no class splits."""
    refined, names = _classes(k.config, _tested_days(q), k.child_class)
    if len(names) == len(set(k.child_class)):
        return None
    parts: dict[int, dict[int, None]] = {}
    for cls, r in zip(k.child_class, refined):
        parts.setdefault(cls, {})[r] = None
    return refined, parts


def _add(acc: dict[int, int], w: Fraction, m: int = 1) -> None:
    """Add m * w to an exact sum kept as numerator totals per denominator."""
    n, d = w.as_integer_ratio()
    acc[d] = acc.get(d, 0) + n * m


def _total(acc: dict[int, int]) -> Fraction:
    return sum((Fraction(n, d) for d, n in acc.items()), Fraction(0))


def statement_mass(k: ProtocolKernel, s: Statement) -> Fraction:
    """P(s emitted): its `marginal` entry, or 0 if s is never emitted."""
    return marginal(k).get(s, Fraction(0))


def never_emitted(k: ProtocolKernel, s: Statement) -> ZeroStatementMass:
    """The error `posterior` and the sampler raise for a statement `k` never emits."""
    return ZeroStatementMass(
        f"statement {render_statement(s, k.config)} is never emitted under this protocol")


def posterior(k: ProtocolKernel, s: Statement, q: QueryPredicate) -> PosteriorReport:
    """Exact Bayes quotient P(q | s emitted), with its case table as a lazy
    `CaseTable`.

    The event is tested once per vector of the kernel's classes refined by
    what q reads (see `_refine`), on one family of it, and each vector's
    emission counts once per family, by multiplicity; no family is walked.
    """
    if not k.table:
        raise EmptySupport("no family in the support satisfies the predicate")
    counts = k.multiplicities()
    emitting = []  # (class vector, its weight of s, its multiplicity) where the weight is not 0
    s_acc: dict[int, int] = {}
    for (vec, row), m in zip(k.table.items(), counts):
        e = row.get(s)
        if e:
            emitting.append((vec, e, m))
            _add(s_acc, e, m)
    prior = Fraction(1, sum(counts))
    s_mass = _total(s_acc) * prior
    if s_mass == 0:
        raise never_emitted(k, s)
    event = compile_query(q, k.config)
    children = week_children(k.config)
    child_class, parts = _refine(k, q) or (k.child_class, None)
    size = Counter(child_class)
    cases: dict[tuple, tuple[Fraction, bool]] = {}  # refined vector -> (emission, event)
    joint_acc: dict[int, int] = {}
    for vec, e, m in emitting:
        # one test per refined vector, on its family of first children; a
        # vector that no class splits keeps its multiplicity
        for sub in itertools.product(*map(parts.__getitem__, vec)) if parts else (vec,):
            holds = event(tuple(map(children.__getitem__, sub)))
            cases[sub] = (e, holds)
            if holds:
                _add(joint_acc, e, math.prod(map(size.__getitem__, sub)) if parts else m)
    joint = _total(joint_acc) * prior
    table = CaseTable(k.config, prior, child_class, cases, sum(m for _, _, m in emitting))
    return PosteriorReport(s, s_mass, joint, joint / s_mass, table)


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
