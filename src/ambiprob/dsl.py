"""A small text language for disclosure procedures.

Grammar (informally)::

    procedure NAME [(day D = tue, prob P = 1/3, ...)] {
      require <pred>;            # optional, leading only; lowered to pre-filter
      if <pred> { ... } else { ... }
      pick VAR [where sex(VAR)=boy | day(VAR)=tue];
      flip 1/2 { ... } else { ... }
      say claim(boy, tue) | atleastone(boy) | twoofakind(girl)
          | proudof(girl) | yes | no | text("...");
      reject;
    }

Parameters are typed and carry a default. A `day` parameter may stand wherever
a day literal may, a `prob` parameter wherever a flip probability may.
`compile_protocol` binds the values it is given and the defaults for the rest.

Compilation is exact: every flip branch and uniform pick is expanded
symbolically into rational path weights; nothing is sampled. A path that falls
off the end of the procedure is an implicit reject (with a warning).

A `pick` binds its variable to the end of the enclosing block. The parser
resolves every child variable: each pick gets an env slot fixed while parsing,
every `sex(v)`/`day(v)` use carries that slot, and a variable no pick binds is
an `UnboundVariable` at the statement (or `require`) that uses it.

A `say` holds the engine's statement (`AtLeastOne`, `YesNo`, `Text`, ...)
from parsing on, and `and`/`or`/`not` are the engine's `And`/`Or`/`Not`. Only
the leaves that may need binding are the language's own: `PExists`, `PAll`,
`PCount`, `PChildTest` and `EClaim`, whose day may be a parameter and whose
sex and day may read a picked child.

Lowering happens once per compile: the body becomes nested closures in which
variable-free predicates are already compiled engine queries, day literals are
resolved and claims without child variables are built. Because of this, a day
literal that does not fit the week is an error even in a branch no family
reaches.

The closures see a child only through its sex and whether its day is one that
the procedure tests, so the chain runs once per class vector, a class of
families they cannot tell apart, and the compiled kernel is the class table
(see `compile_protocol`).
"""

from __future__ import annotations

import itertools
import re
import warnings
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType

from . import model
from .engine import (
    AtLeastOne,
    Claim,
    ProtocolKernel,
    ProudOf,
    Row,
    Statement,
    Text,
    TwoOfAKind,
    YesNo,
)
from .errors import (
    DayOutOfRange,
    DslSyntaxError,
    EmptyPick,
    InvalidFlipProbability,
    UnboundVariable,
)
from .model import (
    AllMatch,
    And,
    CountAtLeast,
    Exists,
    Family,
    Not,
    Or,
    QueryPredicate,
    Sex,
    WorldConfig,
    compile_query,
    family_str,
    week_children,
)

DAY_BY_NAME = {name: i for i, name in enumerate(model.DAY_NAMES)}


class DslWarning(UserWarning):
    """Compiler warnings (currently: implicit reject on fall-through)."""


@dataclass(frozen=True)
class SourceSpan:
    line: int
    column: int
    length: int = 1


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DayLit:
    """A day literal; named days render as mon..sun, others as d<N>."""

    value: int
    named: bool = False
    span: SourceSpan | None = field(default=None, compare=False)


@dataclass(frozen=True)
class ParamRef:
    """A use of a procedure parameter, as a day or as a flip probability."""

    name: str


Day = DayLit | ParamRef


@dataclass(frozen=True)
class PExists:
    sex: Sex | None = None
    day: Day | None = None


@dataclass(frozen=True)
class PCount:
    sex: Sex
    op: str  # one of >= <= > < =
    n: int


@dataclass(frozen=True)
class PAll:
    sex: Sex | None = None
    day: Day | None = None


@dataclass(frozen=True)
class PChildTest:
    """`sex(v)=...` or `day(v)=...`; `slot` is v's env slot, None in a `where`."""

    var: str
    kind: str  # "sex" or "day"
    sex: Sex | None = None
    day: Day | None = None
    slot: int | None = None


# The engine's And/Or/Not combine the language's own leaves.
Pred = PExists | PCount | PAll | PChildTest | And | Or | Not


@dataclass(frozen=True)
class VarSex:
    var: str
    slot: int


@dataclass(frozen=True)
class VarDay:
    var: str
    slot: int


SexArg = Sex | VarSex
DayArg = Day | VarDay


@dataclass(frozen=True)
class EClaim:
    sex: SexArg
    day: DayArg | None = None


# A `say` holds the engine's own statement, except a claim, whose day may be a
# parameter and whose sex and day may read a picked child.
StmtExpr = EClaim | AtLeastOne | TwoOfAKind | ProudOf | YesNo | Text


@dataclass(frozen=True)
class If:
    pred: Pred
    then: tuple["Stmt", ...]
    els: tuple["Stmt", ...] | None = None


@dataclass(frozen=True)
class Pick:
    var: str
    slot: int
    where: PChildTest | None = None
    span: SourceSpan | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Flip:
    prob: Fraction | ParamRef
    then: tuple["Stmt", ...]
    els: tuple["Stmt", ...]


@dataclass(frozen=True)
class Say:
    expr: StmtExpr


@dataclass(frozen=True)
class Reject:
    pass


Stmt = If | Pick | Flip | Say | Reject


@dataclass(frozen=True)
class Param:
    """A typed parameter with its default: `day D = tue` or `prob P = 1/3`."""

    kind: str  # "day" or "prob"
    name: str
    default: DayLit | Fraction


@dataclass(frozen=True)
class ProtocolAst:
    name: str
    requires: tuple[Pred, ...]
    body: tuple[Stmt, ...]
    params: tuple[Param, ...] = ()


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<comment>\#[^\n]*)
    | (?P<string>"(?:[^"\\]|\\.)*")
    | (?P<int>\d+)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<op><=|>=|[{}();,=<>/])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str  # "int" | "ident" | "string" | "op" | "eof"
    text: str
    span: SourceSpan


def tokenize(source: str) -> list[Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise DslSyntaxError(
                f"unexpected character {source[pos]!r}", SourceSpan(line, col)
            )
        text = m.group(0)
        kind = m.lastgroup
        if kind not in ("ws", "comment"):
            tokens.append(Token(kind, text, SourceSpan(line, col, len(text))))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        pos = m.end()
    tokens.append(Token("eof", "", SourceSpan(line, col, 0)))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_SEXES = {"boy": Sex.BOY, "girl": Sex.GIRL}
# Statements about one sex, by keyword: atleastone(boy), twoofakind(girl), ...
_SEX_STATEMENTS = {cls.__name__.lower(): cls for cls in (AtLeastOne, TwoOfAKind, ProudOf)}


def _check_probability(p: Fraction, what: str, span: SourceSpan | None) -> Fraction:
    if not 0 <= p <= 1:
        raise InvalidFlipProbability(f"{what} {p} outside [0, 1]", span)
    return p


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.params: dict[str, Param] = {}
        self.scope: dict[str, int] = {}  # child variable -> its pick's env slot
        self.picks = 0
        self.stmt_span: SourceSpan | None = None  # where an unbound variable is reported

    @property
    def cur(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.cur
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def fail(self, expected: str):
        tok = self.cur
        shown = tok.text if tok.kind != "eof" else "end of input"
        raise DslSyntaxError(f"expected {expected}, found {shown!r}", tok.span)

    def expect(self, text: str) -> Token:
        if self.cur.text != text:
            self.fail(f"'{text}'")
        return self.advance()

    def accept(self, text: str) -> bool:
        if self.cur.text == text:
            self.advance()
            return True
        return False

    def expect_ident(self, what="identifier") -> Token:
        if self.cur.kind != "ident":
            self.fail(what)
        return self.advance()

    # -- entry points -------------------------------------------------------

    def protocol(self) -> ProtocolAst:
        self.expect("procedure")
        name = self.expect_ident("procedure name").text
        if self.accept("("):
            self.param()
            while self.accept(","):
                self.param()
            self.expect(")")
        self.expect("{")
        requires = []
        while self.cur.text == "require":
            self.stmt_span = self.advance().span
            requires.append(self.pred())
            self.expect(";")
        body = []
        while self.cur.text != "}":
            if self.cur.text == "require":
                raise DslSyntaxError(
                    "'require' is only allowed before other statements",
                    self.cur.span,
                )
            body.append(self.stmt())
        self.expect("}")
        if self.cur.kind != "eof":
            self.fail("end of input")
        return ProtocolAst(name, tuple(requires), tuple(body), tuple(self.params.values()))

    def param(self) -> None:
        if self.cur.text not in ("day", "prob"):
            self.fail("a parameter kind ('day' or 'prob')")
        kind = self.advance().text
        name = self.expect_ident("parameter name")
        if name.text in self.params:
            raise DslSyntaxError(f"duplicate parameter '{name.text}'", name.span)
        if name.text in (*_SEXES, *DAY_BY_NAME, "sex", "day") or re.fullmatch(r"d\d+", name.text):
            raise DslSyntaxError(f"'{name.text}' cannot name a parameter", name.span)
        self.expect("=")
        at = self.cur
        if kind == "day":
            default = self.try_day()
            if not isinstance(default, DayLit):
                raise DslSyntaxError("a day parameter's default must be a day literal", at.span)
        else:
            default = _check_probability(self.rational(), "probability", at.span)
        self.params[name.text] = Param(kind, name.text, default)

    def param_ref(self, kind: str) -> ParamRef:
        tok = self.advance()
        declared = self.params[tok.text].kind
        if declared != kind:
            raise DslSyntaxError(f"parameter '{tok.text}' is a {declared}, not a {kind}", tok.span)
        return ParamRef(tok.text)

    def block(self) -> tuple[Stmt, ...]:
        self.expect("{")
        outer = self.scope
        stmts = []
        while self.cur.text != "}":
            stmts.append(self.stmt())
        self.expect("}")
        self.scope = outer
        return tuple(stmts)

    def stmt(self) -> Stmt:
        tok = self.cur
        self.stmt_span = tok.span
        if tok.text == "if":
            self.advance()
            pred = self.pred()
            then = self.block()
            els = self.block() if self.accept("else") else None
            return If(pred, then, els)
        if tok.text == "pick":
            self.advance()
            var = self.expect_ident("variable name").text
            slot = self.picks
            self.picks += 1
            self.scope = {**self.scope, var: slot}
            where = None
            if self.accept("where"):
                where = self.child_test(picked=var)
            self.expect(";")
            return Pick(var, slot, where, span=tok.span)
        if tok.text == "flip":
            self.advance()
            if self.cur.text in self.params:
                prob = self.param_ref("prob")
            else:
                prob = _check_probability(self.rational(), "flip probability", tok.span)
            then = self.block()
            self.expect("else")
            els = self.block()
            return Flip(prob, then, els)
        if tok.text == "say":
            self.advance()
            expr = self.stmt_expr()
            self.expect(";")
            return Say(expr)
        if tok.text == "reject":
            self.advance()
            self.expect(";")
            return Reject()
        self.fail("a statement (if/pick/flip/say/reject)")

    # -- pieces -------------------------------------------------------------

    def rational(self) -> Fraction:
        span = self.cur.span
        if self.cur.kind != "int":
            self.fail("a rational literal")
        num = int(self.advance().text)
        den = 1
        if self.accept("/"):
            if self.cur.kind != "int":
                self.fail("a denominator")
            den = int(self.advance().text)
        if den == 0:
            raise DslSyntaxError("zero denominator", span)
        return Fraction(num, den)

    def sex(self) -> Sex:
        if self.cur.text not in _SEXES:
            self.fail("'boy' or 'girl'")
        return _SEXES[self.advance().text]

    def sex_or_day(self) -> tuple[Sex | None, Day | None]:
        tok = self.cur
        if tok.kind == "ident" and tok.text in _SEXES:
            self.advance()
            return _SEXES[tok.text], None
        day = self.try_day()
        if day is not None:
            return None, day
        self.fail("'boy', 'girl', or a day")

    def try_day(self) -> Day | None:
        tok = self.cur
        if tok.kind != "ident":
            return None
        if tok.text in self.params:
            return self.param_ref("day")
        if tok.text in DAY_BY_NAME:
            self.advance()
            return DayLit(DAY_BY_NAME[tok.text], named=True, span=tok.span)
        m = re.fullmatch(r"d(\d+)", tok.text)
        if m:
            self.advance()
            return DayLit(int(m.group(1)), named=False, span=tok.span)
        return None

    def var(self) -> tuple[str, int]:
        """`(VAR)`: a child variable and the env slot of the pick that binds it."""
        self.expect("(")
        var = self.expect_ident("variable name").text
        self.expect(")")
        if var not in self.scope:
            raise UnboundVariable(f"variable '{var}' is not bound by a pick", self.stmt_span)
        return var, self.scope[var]

    def child_test(self, picked: str | None = None) -> PChildTest:
        """A test of a bound child, or of the candidates of the pick of `picked`."""
        tok = self.cur
        if tok.text not in ("sex", "day"):
            self.fail("'sex(var)=...' or 'day(var)=...'")
        kind = self.advance().text
        var, slot = self.var()
        self.expect("=")
        if picked is not None:
            if var != picked:
                raise DslSyntaxError(
                    f"'where' clause must test the picked variable '{picked}'",
                    tok.span,
                )
            slot = None
        if kind == "sex":
            return PChildTest(var, "sex", sex=self.sex(), slot=slot)
        day = self.try_day()
        if day is None:
            self.fail("a day literal")
        return PChildTest(var, "day", day=day, slot=slot)

    def pred(self) -> Pred:
        left = self.pred_and()
        while self.accept("or"):
            left = Or(left, self.pred_and())
        return left

    def pred_and(self) -> Pred:
        left = self.pred_atom()
        while self.accept("and"):
            left = And(left, self.pred_atom())
        return left

    def pred_atom(self) -> Pred:
        tok = self.cur
        if self.accept("not"):
            return Not(self.pred_atom())
        if self.accept("("):
            inner = self.pred()
            self.expect(")")
            return inner
        if tok.text == "exists":
            self.advance()
            self.expect("(")
            sex, day = self.sex_or_day()
            if self.accept(","):
                sex2, day2 = self.sex_or_day()
                sex = sex if sex2 is None else sex2 if sex is None else self.fail("a day")
                day = day if day2 is None else day2 if day is None else self.fail("a sex")
            self.expect(")")
            return PExists(sex, day)
        if tok.text == "all":
            self.advance()
            self.expect("(")
            sex, day = self.sex_or_day()
            self.expect(")")
            return PAll(sex, day)
        if tok.text == "count":
            self.advance()
            self.expect("(")
            sex = self.sex()
            self.expect(")")
            op = self.cur.text
            if op not in (">=", "<=", ">", "<", "="):
                self.fail("a comparison operator")
            self.advance()
            if self.cur.kind != "int":
                self.fail("an integer")
            n = int(self.advance().text)
            return PCount(sex, op, n)
        if tok.text in ("sex", "day"):
            return self.child_test()
        self.fail("a predicate")

    def stmt_expr(self) -> StmtExpr:
        tok = self.cur
        if tok.text == "claim":
            self.advance()
            self.expect("(")
            sex = self.sex_arg()
            day = None
            if self.accept(","):
                day = self.day_arg()
            self.expect(")")
            return EClaim(sex, day)
        if tok.text in _SEX_STATEMENTS:
            cls = _SEX_STATEMENTS[self.advance().text]
            self.expect("(")
            sex = self.sex()
            self.expect(")")
            return cls(sex)
        if tok.text in ("yes", "no"):
            return YesNo(self.advance().text == "yes")
        if tok.text == "text":
            self.advance()
            self.expect("(")
            if self.cur.kind != "string":
                self.fail("a string literal")
            raw = self.advance().text
            self.expect(")")
            label = raw[1:-1].replace('\\"', '"').replace("\\\\", "\\")
            return Text(label)
        self.fail("a statement expression")

    def sex_arg(self) -> SexArg:
        if self.cur.text in _SEXES:
            return _SEXES[self.advance().text]
        if self.accept("sex"):
            return VarSex(*self.var())
        self.fail("a sex or 'sex(var)'")

    def day_arg(self) -> DayArg:
        day = self.try_day()
        if day is not None:
            return day
        if self.accept("day"):
            return VarDay(*self.var())
        self.fail("a day or 'day(var)'")


def parse(source: str) -> ProtocolAst:
    """Parse a procedure; raises DslSyntaxError / UnboundVariable on bad input."""
    return _Parser(tokenize(source)).protocol()


def _leaves(p: Pred):
    """The tests under a predicate's and/or/not, left to right."""
    match p:
        case And(left=a, right=b) | Or(left=a, right=b):
            yield from _leaves(a)
            yield from _leaves(b)
        case Not(inner=i):
            yield from _leaves(i)
        case _:
            yield p


# ---------------------------------------------------------------------------
# Compiler
# ---------------------------------------------------------------------------

# Bound parameters: a day index for each `day`, a Fraction for each `prob`.
Bound = Mapping[str, int | Fraction]
_UNBOUND: Bound = MappingProxyType({})


def _day_value(day: Day, cfg: WorldConfig, bound: Bound) -> int:
    if isinstance(day, ParamRef):
        return bound[day.name]
    if day.named and cfg.week_length != 7:
        raise DslSyntaxError(
            f"named day '{model.DAY_NAMES[day.value]}' requires a 7-day week; "
            f"use d<N> for week_length={cfg.week_length}",
            day.span,
        )
    if not 0 <= day.value < cfg.week_length:
        raise DslSyntaxError(f"day {day.value} out of range for d={cfg.week_length}", day.span)
    return day.value


def pred_to_query(p: Pred, cfg: WorldConfig, bound: Bound = _UNBOUND) -> QueryPredicate:
    """Lower a variable-free DSL predicate to an engine event predicate."""
    match p:
        case PExists(sex=s, day=d):
            return Exists(s, None if d is None else _day_value(d, cfg, bound))
        case PAll(sex=s, day=d):
            return AllMatch(s, None if d is None else _day_value(d, cfg, bound))
        case PCount(sex=s, op=op, n=n):
            match op:
                case ">=":
                    return CountAtLeast(n, s)
                case ">":
                    return CountAtLeast(n + 1, s)
                case "<=":
                    return Not(CountAtLeast(n + 1, s))
                case "<":
                    return Not(CountAtLeast(n, s))
                case "=":
                    return And(CountAtLeast(n, s), Not(CountAtLeast(n + 1, s)))
        case And(left=a, right=b):
            return And(pred_to_query(a, cfg, bound), pred_to_query(b, cfg, bound))
        case Or(left=a, right=b):
            return Or(pred_to_query(a, cfg, bound), pred_to_query(b, cfg, bound))
        case Not(inner=i):
            return Not(pred_to_query(i, cfg, bound))
    raise TypeError(f"not a variable-free predicate: {p!r}")


def _const_statement(expr: StmtExpr, cfg: WorldConfig, bound: Bound) -> Statement:
    """The statement a `say` without child variables always makes."""
    if isinstance(expr, EClaim):
        return Claim(expr.sex, None if expr.day is None else _day_value(expr.day, cfg, bound))
    return expr


# A lowered statement runs every path of one family from that statement on:
# step(family, env, weight, row) adds each path's weight to `row` under the
# statement the path says. `env` holds the child index bound by each pick, in
# a slot fixed while parsing, so an inner pick never overwrites a variable
# that code after its block reads.
_Step = Callable[[Family, list[int], Fraction, Row], None]

_ONE = Fraction(1)


def _scale(w: Fraction, p: Fraction) -> Fraction:
    return p if w is _ONE else w * p


def _emit(row: Row, st: Statement, w: Fraction) -> None:
    old = row.get(st)
    row[st] = w if old is None else old + w


def _reject(f, env, w, row) -> None:
    pass


class _Lowering:
    """Turns a procedure body into nested closures, once per compile.

    Variable-free predicates become compiled queries, day literals are
    resolved, constant statements are built and flips carry ``1 - p`` here,
    so nothing is lowered again per family. Paths run depth-first in source order (a
    flip's first branch first, picked children in birth order); that order
    fixes the order of the statements in each row.

    ``tested`` collects every day that a predicate, a child test or the
    pre-filter compares a child's day with (all days once a `say` reads
    ``day(v)``). The closures see a child only through its sex and whether
    its day is one of those, so families whose children agree on that run
    the same paths.
    """

    def __init__(self, cfg: WorldConfig, bound: Bound):
        self.cfg = cfg
        self.bound = bound
        self.tested: set[int] = set()
        self.slots = 0  # env size: one past the highest pick slot lowered
        # each family whose pick matched no child, with the first such pick
        self.empty_picks: dict[Family, Pick] = {}
        self.fell_through = False
        # shares[m]: each child's share of a pick among m matching children
        self.shares = [None] + [Fraction(1, m) for m in range(1, cfg.family_size + 1)]

    def fall_through(self, f, env, w, row) -> None:
        self.fell_through = True

    def block(self, stmts: tuple[Stmt, ...], after: _Step) -> _Step:
        """Lower a block; `after` runs for paths that reach its end."""
        step = after
        for st in reversed(stmts):
            step = self.stmt(st, step)
        return step

    def stmt(self, st: Stmt, nxt: _Step) -> _Step:
        match st:
            case Say(expr=e):
                return self.say(e)
            case Reject():
                return _reject
            case Pick():
                return self.pick(st, nxt)
            case If(pred=p, then=t, els=e):
                then = self.block(t, nxt)
                els = nxt if e is None else self.block(e, nxt)
                test = self.pred(p)

                def branch(f, env, w, row):
                    (then if test(f, env) else els)(f, env, w, row)
                return branch
            case Flip(prob=p, then=t, els=e):
                if isinstance(p, ParamRef):
                    p = self.bound[p.name]
                q = 1 - p
                then = self.block(t, nxt)
                els = self.block(e, nxt)
                # a branch that only rejects emits nothing, so its weight is not needed
                take_then = p and then is not _reject
                take_els = q and els is not _reject

                def flip(f, env, w, row):
                    if take_then:
                        then(f, env, _scale(w, p), row)
                    if take_els:
                        els(f, env, _scale(w, q), row)
                return flip
        raise TypeError(f"not a statement: {st!r}")

    def pick(self, st: Pick, nxt: _Step) -> _Step:
        slot, shares, empty = st.slot, self.shares, self.empty_picks
        self.slots = max(self.slots, slot + 1)
        everyone = range(self.cfg.family_size)
        ok = None if st.where is None else self.child_test(st.where)

        def pick(f, env, w, row):
            matching = everyone if ok is None else [j for j, c in enumerate(f) if ok(c)]
            if not matching:
                empty.setdefault(f, st)
                return
            w = _scale(w, shares[len(matching)])
            for j in matching:
                env[slot] = j
                nxt(f, env, w, row)
        return pick

    def query(self, p: Pred) -> QueryPredicate:
        """A variable-free predicate as an engine query."""
        for leaf in _leaves(p):
            if isinstance(leaf, (PExists, PAll)) and leaf.day is not None:
                self.tested.add(_day_value(leaf.day, self.cfg, self.bound))
        return pred_to_query(p, self.cfg, self.bound)

    def child_test(self, p: PChildTest) -> Callable[[model.Child], bool]:
        if p.kind == "sex":
            sex = p.sex
            return lambda c: c.sex is sex
        day = _day_value(p.day, self.cfg, self.bound)
        self.tested.add(day)
        return lambda c: c.day == day

    def pred(self, p: Pred) -> Callable[[Family, list[int]], bool]:
        """A test of (family, env); variable-free parts are compiled queries."""
        if not any(isinstance(leaf, PChildTest) for leaf in _leaves(p)):
            test = compile_query(self.query(p), self.cfg)
            return lambda f, env: test(f)
        match p:
            case PChildTest(slot=slot):
                ok = self.child_test(p)
                return lambda f, env: ok(f[env[slot]])
            case And(left=a, right=b):
                ta, tb = self.pred(a), self.pred(b)
                return lambda f, env: ta(f, env) and tb(f, env)
            case Or(left=a, right=b):
                ta, tb = self.pred(a), self.pred(b)
                return lambda f, env: ta(f, env) or tb(f, env)
            case Not(inner=i):
                ti = self.pred(i)
                return lambda f, env: not ti(f, env)
        raise TypeError(f"not a predicate: {p!r}")

    def say(self, e: StmtExpr) -> _Step:
        sex, day = (e.sex, e.day) if isinstance(e, EClaim) else (None, None)
        sex_slot = sex.slot if isinstance(sex, VarSex) else None
        day_slot = day.slot if isinstance(day, VarDay) else None
        if sex_slot is None and day_slot is None:
            st = _const_statement(e, self.cfg, self.bound)
            return lambda f, env, w, row: _emit(row, st, w)
        if day is not None and day_slot is None:
            day = _day_value(day, self.cfg, self.bound)
        if day_slot is not None:  # the statement names the child's own day
            self.tested.update(range(self.cfg.week_length))
        claims: dict[tuple, Claim] = {}

        def say_claim(f, env, w, row):
            key = (sex if sex_slot is None else f[env[sex_slot]].sex,
                   day if day_slot is None else f[env[day_slot]].day)
            st = claims.get(key)
            if st is None:
                st = claims[key] = Claim(*key)
            _emit(row, st, w)
        return say_claim


def _bind(ast: ProtocolAst, cfg: WorldConfig, values: Mapping[str, int | Fraction]) -> Bound:
    """Each parameter's value: the one in `values`, else its default."""
    unknown = sorted(set(values) - {prm.name for prm in ast.params})
    if unknown:
        raise TypeError(f"procedure '{ast.name}' has no parameter '{unknown[0]}'")
    bound: dict[str, int | Fraction] = {}
    for prm in ast.params:
        if prm.name not in values:
            value = prm.default if prm.kind == "prob" else _day_value(prm.default, cfg, _UNBOUND)
        elif prm.kind == "prob":
            value = _check_probability(Fraction(values[prm.name]), f"parameter {prm.name} =", None)
        else:
            value = values[prm.name]
            if not 0 <= value < cfg.week_length:
                raise DayOutOfRange(f"day {value} out of range for d={cfg.week_length}")
        bound[prm.name] = value
    return bound


def compile_protocol(
    ast: ProtocolAst, cfg: WorldConfig, values: Mapping[str, int | Fraction] = _UNBOUND
) -> ProtocolKernel:
    """Exact lowering: expand every flip and pick into rational path weights.

    `values` binds parameters by name (a day index or a probability); the
    others take their defaults. The body is lowered to closures once
    (`_Lowering`). A child's class is its sex and, if some test reads it,
    its day; families with the same class vector are sent home alike and
    build equal rows. So the closure chain runs once per class vector, on its
    first family in `enumerate_families` order, and the kernel's table holds
    that row once for every family of the vector. When every day is tested,
    each vector is one family.
    """
    bound = _bind(ast, cfg, values)
    lowering = _Lowering(cfg, bound)
    pre_filter: QueryPredicate | None = None
    for p in ast.requires:
        q = lowering.query(p)
        pre_filter = q if pre_filter is None else And(pre_filter, q)
    body = lowering.block(ast.body, lowering.fall_through)
    env = [0] * lowering.slots

    # child_class[i]: the class of children[i], named by the index of its first child
    children = week_children(cfg)
    first: dict[tuple, int] = {}
    child_class = tuple(
        first.setdefault((c.sex, c.day if c.day in lowering.tested else None), i)
        for i, c in enumerate(children)
    )
    n = cfg.family_size
    # each class vector with its first family; the pre-filter sends a class home whole
    keep = None if pre_filter is None else compile_query(pre_filter, cfg)
    table: dict[tuple[int, ...], Row] = {}
    for vec, f in zip(itertools.product(first.values(), repeat=n),
                      itertools.product([children[i] for i in first.values()], repeat=n)):
        if keep is None or keep(f):
            row: Row = {}
            body(f, env, _ONE, row)
            table[vec] = row
    if lowering.empty_picks:  # every family of a failing class fails
        rep = [children[i] for i in child_class]
        failed = [f for f, r in zip(itertools.product(children, repeat=n),
                                    itertools.product(rep, repeat=n))
                  if r in lowering.empty_picks]
        shown = ", ".join(map(family_str, failed[:5]))
        raise EmptyPick(
            f"pick matches no child in {len(failed)} reachable "
            f"families (e.g. {shown}); guard the pick or use an explicit reject",
            families=failed,
            span=next(iter(lowering.empty_picks.values())).span,
        )
    if lowering.fell_through:
        warnings.warn(
            f"procedure '{ast.name}': some execution paths end without "
            "say/reject; treating them as reject",
            DslWarning,
            stacklevel=2,
        )
    return ProtocolKernel(cfg, child_class, table, pre_filter)


def load_protocol(path, cfg: WorldConfig) -> ProtocolKernel:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        source = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = data[:exc.start].decode("utf-8")
        raise DslSyntaxError(
            f"{path} is not UTF-8: can't decode byte 0x{data[exc.start]:02x}",
            SourceSpan(before.count("\n") + 1, len(before) - before.rfind("\n")),
        )
    return compile_protocol(parse(source), cfg)


# ---------------------------------------------------------------------------
# Renderer
# ---------------------------------------------------------------------------

def _render_day(day: Day) -> str:
    if isinstance(day, ParamRef):
        return day.name
    return model.DAY_NAMES[day.value] if day.named else f"d{day.value}"


def _render_sex(sex: Sex) -> str:
    return sex.name.lower()


def _render_pred(p: Pred, parent_prec: int = 0) -> str:
    # precedence: or=1, and=2, atoms/not=3
    match p:
        case PExists(sex=s, day=d):
            args = [x for x in (None if s is None else _render_sex(s),
                                None if d is None else _render_day(d)) if x]
            text, prec = f"exists({', '.join(args)})", 3
        case PAll(sex=s, day=d):
            arg = _render_sex(s) if s is not None else _render_day(d)
            text, prec = f"all({arg})", 3
        case PCount(sex=s, op=op, n=n):
            text, prec = f"count({_render_sex(s)}) {op} {n}", 3
        case PChildTest(var=v, kind=kind, sex=s, day=d):
            value = _render_sex(s) if kind == "sex" else _render_day(d)
            text, prec = f"{kind}({v}) = {value}", 3
        case And(left=a, right=b):
            text, prec = f"{_render_pred(a, 2)} and {_render_pred(b, 3)}", 2
        case Or(left=a, right=b):
            text, prec = f"{_render_pred(a, 1)} or {_render_pred(b, 2)}", 1
        case Not(inner=i):
            text, prec = f"not {_render_pred(i, 3)}", 3
        case _:
            raise TypeError(f"not a predicate: {p!r}")
    return f"({text})" if prec < parent_prec else text


def _render_stmt_expr(e: StmtExpr) -> str:
    match e:
        case EClaim(sex=s, day=d):
            sex = f"sex({s.var})" if isinstance(s, VarSex) else _render_sex(s)
            if d is None:
                return f"claim({sex})"
            day = f"day({d.var})" if isinstance(d, VarDay) else _render_day(d)
            return f"claim({sex}, {day})"
        case AtLeastOne(sex=s) | TwoOfAKind(sex=s) | ProudOf(sex=s):
            return f"{type(e).__name__.lower()}({_render_sex(s)})"
        case YesNo(answer=a):
            return "yes" if a else "no"
        case Text(label=label):
            escaped = label.replace("\\", "\\\\").replace('"', '\\"')
            return f'text("{escaped}")'
    raise TypeError(f"not a statement expression: {e!r}")


def _render_block(stmts, indent: int, lines: list[str]) -> None:
    pad = "  " * indent
    for st in stmts:
        match st:
            case Say(expr=e):
                lines.append(f"{pad}say {_render_stmt_expr(e)};")
            case Reject():
                lines.append(f"{pad}reject;")
            case Pick(var=v, where=w):
                clause = "" if w is None else f" where {_render_where(w)}"
                lines.append(f"{pad}pick {v}{clause};")
            case If(pred=p, then=t, els=e):
                lines.append(f"{pad}if {_render_pred(p)} {{")
                _render_block(t, indent + 1, lines)
                if e is None:
                    lines.append(f"{pad}}}")
                else:
                    lines.append(f"{pad}}} else {{")
                    _render_block(e, indent + 1, lines)
                    lines.append(f"{pad}}}")
            case Flip(prob=p, then=t, els=e):
                prob = p.name if isinstance(p, ParamRef) else p
                lines.append(f"{pad}flip {prob} {{")
                _render_block(t, indent + 1, lines)
                lines.append(f"{pad}}} else {{")
                _render_block(e, indent + 1, lines)
                lines.append(f"{pad}}}")


def _render_where(w: PChildTest) -> str:
    value = _render_sex(w.sex) if w.kind == "sex" else _render_day(w.day)
    return f"{w.kind}({w.var})={value}"


def render(ast: ProtocolAst) -> str:
    """Canonical source text; parse(render(ast)) == ast."""
    params = ", ".join(
        f"{prm.kind} {prm.name} = "
        + (_render_day(prm.default) if prm.kind == "day" else str(prm.default))
        for prm in ast.params
    )
    lines = [f"procedure {ast.name}{f'({params})' if params else ''} {{"]
    for pred in ast.requires:
        lines.append(f"  require {_render_pred(pred)};")
    _render_block(ast.body, 1, lines)
    lines.append("}")
    return "\n".join(lines) + "\n"


# CLI entry points: the statement and event sub-grammars, standalone.

def parse_statement_text(text: str, cfg: WorldConfig) -> Statement:
    """Parse a bare statement expression, e.g. ``claim(boy,tue)``."""
    parser = _Parser(tokenize(text))
    expr = parser.stmt_expr()
    if parser.cur.kind != "eof":
        parser.fail("end of input")
    return _const_statement(expr, cfg, _UNBOUND)


def parse_event_text(text: str, cfg: WorldConfig) -> QueryPredicate:
    """Parse a bare family-level predicate, e.g. ``all(boy)``."""
    parser = _Parser(tokenize(text))
    pred = parser.pred()
    if parser.cur.kind != "eof":
        parser.fail("end of input")
    return pred_to_query(pred, cfg)
