"""Builtin disclosure procedures with their known answers.

Each builtin is one `.proc` file in `procs/` plus one row of `_BUILTINS`: its
description, the closed form of its answer, and its canonical statement, an
engine statement built from the target day and the week's default day. Every
builtin's query is `AllMatch(Sex.BOY)`, so binding a builtin parses no text
but its `.proc` file, once per process. `build_scenario` compiles the file
with the target day bound to its `day` parameter and p to its `prob`
parameter, and owns their defaults: p is 1/2, and the target day is Tuesday on
a 7-day week. No other week has a default target day, so there a builtin with
a `day` parameter needs one (DayOutOfRange), while a day-neutral builtin
states its claims of day 0. The closed forms are for two-children families,
so any other family size raises UnsupportedConfig; the week length is free, so
the week-length sweep can generalize d=7.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import NamedTuple

from . import dsl
from .engine import AtLeastOne, Claim, ProtocolKernel, Statement, YesNo, posterior
from .errors import DayOutOfRange, UnsupportedConfig
from .model import AllMatch, QueryPredicate, Sex, WorldConfig


@dataclass(frozen=True)
class Scenario:
    id: str
    description: str
    kernel: ProtocolKernel
    canonical_statement: Statement
    canonical_query: QueryPredicate
    expected_answer: Fraction | None = None


@dataclass(frozen=True)
class _Builtin:
    file: str
    # (target day, the week's default day) -> canonical statement
    statement: Callable[[int, int], Statement]
    answer: Callable[[int, Fraction], Fraction]  # (week length d, p) -> posterior
    description: str


# Every builtin asks the same question: are both children boys?
_QUERY = AllMatch(Sex.BOY)


def _default_day(cfg: WorldConfig) -> int:
    # Tuesday when the week is the usual one, else day 0.
    return 1 if cfg.week_length == 7 else 0


def sweep_formula(d: int) -> Fraction:
    return Fraction(2 * d - 1, 4 * d - 1)


# Stable ids, in order; part of the CLI contract.
_BUILTINS = {
    "any-answer": _Builtin(
        "any_answer.proc", lambda day, default: AtLeastOne(Sex.BOY), lambda d, p: p,
        "tunable procedure hitting any posterior in [0, 1]",
    ),
    "bc-dn": _Builtin(
        "bc_dn.proc", lambda day, default: Claim(Sex.BOY, default), lambda d, p: Fraction(1, 3),
        "boy-centered, day-neutral: no-son families sent home; a son's day is stated",
    ),
    "bc-tc": _Builtin(
        "bc_tc.proc", lambda day, default: Claim(Sex.BOY, day), lambda d, p: sweep_formula(d),
        "boy-centered, day-centered: kept only if a son was born on the target day",
    ),
    "brag": _Builtin(
        "brag.proc", lambda day, default: AtLeastOne(Sex.BOY), lambda d, p: Fraction(0),
        "always mentions as many boys as he can",
    ),
    "classic-coinflip": _Builtin(
        "classic_coinflip.proc", lambda day, default: AtLeastOne(Sex.BOY),
        lambda d, p: Fraction(1, 2),
        "random family; a coin decides which sex gets the 'at least one' sentence",
    ),
    "classic-selection": _Builtin(
        "classic_selection.proc", lambda day, default: AtLeastOne(Sex.BOY),
        lambda d, p: Fraction(1, 3),
        "pick a family known to have a boy; it reports 'at least one is a boy'",
    ),
    "deemphasize": _Builtin(
        "deemphasize.proc", lambda day, default: AtLeastOne(Sex.BOY), lambda d, p: Fraction(1),
        "plays down the number of boys",
    ),
    "gn-dn": _Builtin(
        "gn_dn.proc", lambda day, default: Claim(Sex.BOY, default), lambda d, p: Fraction(1, 2),
        "gender-neutral, day-neutral: a coin picks the child described",
    ),
    "gn-tc": _Builtin(
        "gn_tc.proc", lambda day, default: Claim(Sex.BOY, day), lambda d, p: Fraction(1, 2),
        "gender-neutral, day-centered: kept only if a child was born on the target day",
    ),
    "yesno": _Builtin(
        "yesno.proc", lambda day, default: YesNo(True), lambda d, p: sweep_formula(d),
        "unambiguous yes/no question about a son born on the target day",
    ),
}
BUILTIN_IDS = tuple(_BUILTINS)


@functools.cache
def _builtin_ast(file: str) -> dsl.ProtocolAst:
    source = resources.files(__package__).joinpath("procs", file).read_text(encoding="utf-8")
    return dsl.parse(source)


class Binding(NamedTuple):
    """A builtin with its parameters bound, ready to compile: its procedure,
    parameter values, canonical statement and query, answer and description."""

    ast: dsl.ProtocolAst
    values: dsl.Bound
    statement: Statement
    query: QueryPredicate
    answer: Fraction
    description: str


def bind_builtin(
    scenario_id: str,
    cfg: WorldConfig,
    day: int | None = None,
    p: Fraction | None = None,
) -> Binding:
    """Bind `day` to builtin `scenario_id`'s day parameter and `p` to its
    probability parameter, where it has them; None means the default."""
    builtin = _BUILTINS.get(scenario_id)
    if builtin is None:
        raise KeyError(f"unknown scenario id: {scenario_id}")
    if cfg.family_size != 2:
        raise UnsupportedConfig(
            f"builtin scenarios model two-children families, got n={cfg.family_size}"
        )
    ast = _builtin_ast(builtin.file)
    if day is None:
        if cfg.week_length != 7 and any(prm.kind == "day" for prm in ast.params):
            raise DayOutOfRange(f"{scenario_id} needs a target day on a {cfg.week_length}-day "
                                f"week; the default, Tuesday, needs a 7-day week")
        day = _default_day(cfg)
    p = Fraction(1, 2) if p is None else p
    # bound before the statement is built, so a bad day is a DayOutOfRange
    values = dsl._bind(ast, cfg, {prm.name: day if prm.kind == "day" else p
                                  for prm in ast.params})
    return Binding(ast, values, builtin.statement(day, _default_day(cfg)), _QUERY,
                   builtin.answer(cfg.week_length, Fraction(p)), builtin.description)


def build_scenario(
    scenario_id: str,
    cfg: WorldConfig,
    day: int | None = None,
    p: Fraction | None = None,
) -> Scenario:
    """Compile builtin `scenario_id` as `bind_builtin` binds it; the kernel
    tells every statement apart."""
    b = bind_builtin(scenario_id, cfg, day, p)
    return Scenario(scenario_id, b.description, dsl.compile_protocol(b.ast, cfg, b.values),
                    b.statement, b.query, b.answer)


def week_sweep(d_range) -> list[tuple[int, Fraction]]:
    """Exact day-centered posterior for each week length d (target day 0)."""
    out = []
    for d in d_range:
        sc = build_scenario("bc-tc", WorldConfig(week_length=d, family_size=2), day=0)
        rep = posterior(sc.kernel, sc.canonical_statement, sc.canonical_query)
        out.append((d, rep.posterior))
    return out
