"""`ambiprob` command-line front end.

Exit codes: 0 ok, 2 usage / unknown id, 3 undefined conditional (zero statement
mass or empty support), 4 protocol-language error, 5 a cross-check disagreed (the
Monte Carlo with the exact answer, or a `sweep` row with (2d-1)/(4d-1)),
6 degenerate protocol.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import re
import sys
from fractions import Fraction
from itertools import repeat
from json.encoder import encode_basestring_ascii

from . import dsl, mc
from .engine import PosteriorReport, posterior, render_statement
from .errors import (
    DayOutOfRange,
    DegenerateProtocol,
    DslError,
    EmptySupport,
    InvalidProbability,
    UnsupportedConfig,
    ZeroStatementMass,
)
from .model import DAY_NAMES, WorldConfig, family_str, week_children
from .scenarios import BUILTIN_IDS, build_scenario, sweep_formula, week_sweep

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_UNDEFINED = 3
EXIT_DSL = 4
EXIT_DISAGREE = 5
EXIT_DEGENERATE = 6

# Largest (2d)^n that run/eval/mc/sweep enumerate: gn-dn at d=365 (532,900
# families) and n=5 at d=7 (537,824) fit, with room to spare.
MAX_FAMILIES = 2_000_000

# Library errors the CLI reports as an exit code; the first match wins.
EXIT_CODES = {
    ZeroStatementMass: EXIT_UNDEFINED,
    EmptySupport: EXIT_UNDEFINED,
    DslError: EXIT_DSL,
    DegenerateProtocol: EXIT_DEGENERATE,
    OSError: EXIT_USAGE,  # a .proc path that is missing, a directory, unreadable
}


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _parse_day(text: str, cfg: WorldConfig) -> int:
    if cfg.week_length == 7 and text in DAY_NAMES:
        return DAY_NAMES.index(text)
    m = re.fullmatch(r"d?(\d+)", text)
    if m:
        day = int(m.group(1))
        if 0 <= day < cfg.week_length:
            return day
    raise CliError(f"invalid day {text!r} for a {cfg.week_length}-day week", EXIT_USAGE)


def _int_at_least(low: int):
    """An argparse type: an int no smaller than `low`."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise CliError(f"invalid rational {text!r}", EXIT_USAGE)


def _frac_str(x: Fraction, decimal: bool) -> str:
    s = str(x)
    if decimal:
        s += f" (~{float(x):.6f})"
    return s


# Rows per write: bounded strings, few writes.
_BATCH = 1000


def _emit_rows(header, rows, fmt, out):
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    elif fmt == "json":
        json.dump([dict(zip(header, row)) for row in rows], out, indent=2)
        out.write("\n")
    else:
        # column by column, so the per-cell work runs in C
        padded = []
        for column in zip(header, *rows):
            column = list(map(str, column))
            padded.append(map(str.ljust, column, repeat(max(map(len, column)))))
        lines = list(map(str.rstrip, map("  ".join, zip(*padded))))
        for start in range(0, len(lines), _BATCH):
            out.write("\n".join(lines[start:start + _BATCH]) + "\n")


def _case_cells(cases, cfg: WorldConfig):
    """The family, prior, emission and event ("1" or "0") text of each case row.

    Each child, prior and emission is rendered once: a family's text joins
    its children's, and families that share a row share its weights, so a
    `Fraction` is rendered once per object."""
    child = {c: family_str((c,)) for c in week_children(cfg)}
    texts: dict[int, str] = {}

    def text(x: Fraction) -> str:
        t = texts.get(id(x))
        if t is None:
            t = texts[id(x)] = str(x)
        return t

    return [(",".join(map(child.__getitem__, r.family)), text(r.prior), text(r.emission),
             "1" if r.event else "0")
            for r in cases]


def _write_json_report(rep: PosteriorReport, stmt: str, cells, decimal: bool, out) -> None:
    """Write the bytes `json.dump(payload, out, indent=2)` would, without
    building the payload or running the pure-Python encoder. Family and
    `Fraction` strings need no escaping; the statement may (a text label)."""
    out.write(
        f'{{\n  "statement": {encode_basestring_ascii(stmt)},\n'
        f'  "statement_mass": "{rep.statement_mass}",\n'
        f'  "joint_mass": "{rep.joint_mass}",\n'
        f'  "posterior": "{rep.posterior}",\n  "cases": ['
    )
    cases = [
        f'\n    {{\n      "family": "{fam}",\n      "prior": "{prior}",\n'
        f'      "emission": "{em}",\n      "event": {"true" if ev == "1" else "false"}\n    }}'
        for fam, prior, em, ev in cells
    ]
    for start in range(0, len(cases), _BATCH):
        batch = ",".join(cases[start:start + _BATCH])
        out.write("," + batch if start else batch)
    out.write("\n  ]" if cases else "]")
    if decimal:
        out.write(f',\n  "posterior_decimal": {json.dumps(float(rep.posterior))}')
    out.write("\n}\n")


def _print_report(rep: PosteriorReport, cfg: WorldConfig, args, out):
    stmt = render_statement(rep.statement, cfg)
    cells = _case_cells(rep.case_table, cfg)
    if args.format == "json":
        _write_json_report(rep, stmt, cells, args.decimal, out)
        return
    header = ("family", "prior", "emission", "event")
    if args.format == "csv":
        # the summary rows go through the same writer, which quotes a statement
        # that holds the delimiter
        cells += [("statement", stmt), ("statement_mass", rep.statement_mass),
                  ("joint_mass", rep.joint_mass), ("posterior", rep.posterior)]
        if args.decimal:
            cells.append(("posterior_decimal", json.dumps(float(rep.posterior))))
        _emit_rows(header, cells, "csv", out)
        return
    _emit_rows(header, cells, "table", out)
    out.write(f"statement = {stmt}\n")
    out.write(f"statement mass = {_frac_str(rep.statement_mass, args.decimal)}\n")
    out.write(f"joint mass = {_frac_str(rep.joint_mass, args.decimal)}\n")
    out.write(f"posterior = {_frac_str(rep.posterior, args.decimal)}\n")


def _check_outcome_space(d: int, n: int, remedy: str) -> None:
    """Exit 2 before enumerating when (2d)^n exceeds MAX_FAMILIES."""
    families = 1
    for _ in range(n):  # stops early, so huge n costs nothing
        families *= 2 * d
        if families > MAX_FAMILIES:
            raise CliError(
                f"the outcome space (2d)^n = ({2 * d})^{n} "
                f"exceeds {MAX_FAMILIES:,} families; {remedy}",
                EXIT_USAGE,
            )


def _world(args) -> WorldConfig:
    try:
        cfg = WorldConfig(week_length=args.week_days, family_size=args.children)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_USAGE)
    _check_outcome_space(cfg.week_length, cfg.family_size, "lower --week-days or --children")
    return cfg


def _scenario(args, cfg: WorldConfig, target: str):
    if target not in BUILTIN_IDS:
        raise CliError(
            f"unknown scenario id {target!r}; see `ambiprob list`", EXIT_USAGE
        )
    day = _parse_day("tue" if args.day is None else args.day, cfg)
    p = _parse_fraction("1/2" if args.p is None else args.p)
    try:
        return build_scenario(target, cfg, day=day, p=p)
    except (DayOutOfRange, InvalidProbability, UnsupportedConfig) as exc:
        raise CliError(str(exc), EXIT_USAGE)


def cmd_list(args, out):
    cfg = WorldConfig()
    rows = []
    for sid in sorted(BUILTIN_IDS):
        sc = build_scenario(sid, cfg)
        answer = str(sc.expected_answer) if sid != "any-answer" else "p"
        rows.append([sid, answer, sc.description])
    _emit_rows(["id", "answer", "description"], rows, args.format, out)
    return EXIT_OK


def cmd_run(args, out):
    cfg = _world(args)
    sc = _scenario(args, cfg, args.scenario)
    rep = posterior(sc.kernel, sc.canonical_statement, sc.canonical_query)
    _print_report(rep, cfg, args, out)
    return EXIT_OK


def cmd_eval(args, out):
    cfg = _world(args)
    kernel = dsl.load_protocol(args.file, cfg)
    statement = dsl.parse_statement_text(args.say, cfg)
    event = dsl.parse_event_text(args.event, cfg)
    rep = posterior(kernel, statement, event)
    _print_report(rep, cfg, args, out)
    return EXIT_OK


def _mc_target(args, cfg):
    if args.target.endswith(".proc"):
        if not args.say or not args.event:
            raise CliError("--say and --event are required for .proc targets", EXIT_USAGE)
        if args.day is not None or args.p is not None:
            raise CliError(
                "--day and --p apply to builtin scenarios only; "
                "a .proc target uses its parameters' defaults",
                EXIT_USAGE,
            )
        kernel = dsl.load_protocol(args.target, cfg)
        statement = dsl.parse_statement_text(args.say, cfg)
        event = dsl.parse_event_text(args.event, cfg)
    else:
        sc = _scenario(args, cfg, args.target)
        kernel, statement, event = sc.kernel, sc.canonical_statement, sc.canonical_query
    return kernel, statement, event


def cmd_mc(args, out):
    cfg = _world(args)
    kernel, statement, event = _mc_target(args, cfg)
    report = mc.agreement_check(
        kernel, statement, event, args.trials, args.seed, shards=args.shards
    )
    r = report.result
    verdict = "PASS" if report.passed else "FAIL"
    if args.format == "json":
        json.dump(
            {
                "estimate": r.estimate,
                "stderr": r.stderr,
                "exact": str(report.exact),
                "tolerance": report.tolerance,
                "verdict": verdict,
                "trials": r.trials,
                "statement_matches": r.statement_matches,
                "hits": r.hits,
                "rejected_families": r.rejected_families,
                "rejected_runs": r.rejected_runs,
                "seed": r.seed,
                "shards": r.shards,
            },
            out,
            indent=2,
        )
        out.write("\n")
    else:
        rows = [
            ["estimate", f"{r.estimate:.6f}"],
            ["stderr", f"{r.stderr:.6f}"],
            ["exact", str(report.exact)],
            ["tolerance", f"{report.tolerance:.6f}"],
            ["statement_matches", r.statement_matches],
            ["hits", r.hits],
            ["rejected_families", r.rejected_families],
            ["rejected_runs", r.rejected_runs],
            ["seed", r.seed],
            ["verdict", verdict],
        ]
        _emit_rows(["field", "value"], rows, args.format, out)
    return EXIT_OK if report.passed else EXIT_DISAGREE


def cmd_sweep(args, out):
    if not 1 <= args.d_min <= args.d_max:
        raise CliError("need 1 <= d_min <= d_max", EXIT_USAGE)
    _check_outcome_space(args.d_max, 2, "lower d_max")
    rows = []
    all_match = True
    for d, exact in week_sweep(range(args.d_min, args.d_max + 1)):
        formula = sweep_formula(d)
        ok = exact == formula
        all_match &= ok
        rows.append([d, str(exact), str(formula), "yes" if ok else "NO"])
    _emit_rows(["d", "posterior", "formula", "match"], rows, args.format, out)
    return EXIT_OK if all_match else EXIT_DISAGREE


# One parser per process: parse_args does not change it.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ambiprob",
        description="Exact disclosure-procedure analysis of the Two-Children "
        "and Tuesday-Child puzzles, with a Monte Carlo cross-check.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, about):
        p = sub.add_parser(name, help=about)
        p.add_argument("--format", choices=["table", "csv", "json"], default="table")
        p.set_defaults(func=func)
        return p

    def world(p):
        p.add_argument("--week-days", type=int, default=7, metavar="D")
        p.add_argument("--children", type=int, default=2, metavar="N")

    def builtin(p):  # read only when a builtin scenario is built
        p.add_argument("--day", help="target day (tue, d3, ...; default tue)")
        p.add_argument("--p", help="posterior for the any-answer scenario (default 1/2)")

    def decimal(p):  # read only by the posterior report
        p.add_argument("--decimal", action="store_true",
                       help="also show 6-digit decimal approximations")

    command("list", cmd_list, "list builtin scenarios")

    p_run = command("run", cmd_run, "exact posterior of a builtin scenario")
    p_run.add_argument("scenario")
    world(p_run)
    builtin(p_run)
    decimal(p_run)

    p_eval = command("eval", cmd_eval, "evaluate a .proc file")
    p_eval.add_argument("file")
    p_eval.add_argument("--say", required=True, help='statement, e.g. "claim(boy,tue)"')
    p_eval.add_argument("--event", required=True, help='event predicate, e.g. "all(boy)"')
    world(p_eval)
    decimal(p_eval)

    p_mc = command("mc", cmd_mc, "Monte Carlo cross-check")
    p_mc.add_argument("target", help="scenario id or .proc file")
    p_mc.add_argument("--say", help="statement (required for .proc targets)")
    p_mc.add_argument("--event", help="event predicate (required for .proc targets)")
    p_mc.add_argument("--trials", type=_int_at_least(1), default=1_000_000)
    p_mc.add_argument("--seed", type=_int_at_least(0), default=42)
    p_mc.add_argument("--shards", type=_int_at_least(1), default=1)
    world(p_mc)
    builtin(p_mc)

    p_sweep = command("sweep", cmd_sweep, "week-length sweep against (2d-1)/(4d-1)")
    p_sweep.add_argument("d_min", type=int)
    p_sweep.add_argument("d_max", type=int)

    return parser


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args, out)
    except (CliError, *EXIT_CODES) as exc:
        print(f"ambiprob: {exc}", file=sys.stderr)
        if isinstance(exc, CliError):
            return exc.code
        return next(code for kind, code in EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
