"""`ambiprob` command-line front end.

`run`, `eval` and `mc` resolve their target in `_target`: a builtin takes --day
and --p and refuses --say and --event, a .proc file the other way round. An
absent --day or --p leaves `bind_builtin` its default; the CLI has none. `mc`
takes a target that is not a builtin id for a file when its name ends in .proc
or it is given --say or --event.
Each compiles the kernel for its statement once: `run` and `eval` condition on
it, and `mc` samples it.

`COMMANDS` is the command line: per command a handler, a help line and rows
(name, dest, convert, default, help); a name without `-` is a positional, a
`convert` of None a switch. `parse_args` reads argv in one pass by argparse's
rules (`--flag=value`, a flag's value is the next argument whatever it is,
unambiguous prefixes, the last repeat wins, `--` ends the flags) and sets
every dest of the table, so a flag a command does not take reads as None.

Exit codes: 0 ok, 5 a cross-check disagreed (the Monte Carlo with the exact
answer, or a `sweep` row with (2d-1)/(4d-1)); `EXIT_CODES` maps each error to
2 usage, 3 undefined conditional, 4 protocol-language error or 6 degenerate
protocol. A usage error, argv's own included, is one `ambiprob:` line, and
each warning a command raises (a procedure path that falls through) is one
`ambiprob: warning:` line, both on stderr.
"""

from __future__ import annotations

import csv
import json
import re
import sys
import warnings
from collections import Counter
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace

from . import dsl
from .engine import CaseTable, PosteriorReport, YesNo, posterior, render_statement
from .errors import (
    DayOutOfRange,
    DegenerateProtocol,
    DslError,
    EmptySupport,
    InvalidProbability,
    UnsupportedConfig,
    ZeroStatementMass,
)
from .model import DAY_NAMES, WorldConfig, child_labels
from .scenarios import BUILTIN_IDS, bind_builtin, sweep_formula, week_sweep

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_UNDEFINED = 3
EXIT_DSL = 4
EXIT_DISAGREE = 5
EXIT_DEGENERATE = 6

# Largest (2d)^n that run/eval/mc/sweep enumerate: gn-dn at d=365 (532,900
# families) and n=5 at d=7 (537,824) fit, with room to spare.
MAX_FAMILIES = 2_000_000


class CliError(Exception):
    """A command-line argument the command cannot use."""


# The only map from an error to its exit code; no error class falls under two rows.
EXIT_CODES = {
    CliError: EXIT_USAGE,
    DayOutOfRange: EXIT_USAGE,
    InvalidProbability: EXIT_USAGE,
    UnsupportedConfig: EXIT_USAGE,
    OSError: EXIT_USAGE,  # a .proc path that is missing, a directory, unreadable
    ZeroStatementMass: EXIT_UNDEFINED,
    EmptySupport: EXIT_UNDEFINED,
    DslError: EXIT_DSL,
    RecursionError: EXIT_DSL,  # procedure text nested too deeply to compile
    DegenerateProtocol: EXIT_DEGENERATE,
}


def _parse_day(text: str, cfg: WorldConfig) -> int:
    if cfg.week_length == 7 and text in DAY_NAMES:
        return DAY_NAMES.index(text)
    m = re.fullmatch(r"d?(\d+)", text)
    if m:
        day = int(m.group(1))
        if 0 <= day < cfg.week_length:
            return day
    raise CliError(f"invalid day {text!r} for a {cfg.week_length}-day week")


def _int_at_least(low: int):
    """An int no smaller than `low`."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise CliError(f"must be >= {low}, got {value}")
        return value
    return parse


def _choice(*names: str):
    def parse(text: str) -> str:
        if text not in names:
            raise CliError(f"invalid choice: {text!r} (choose from {', '.join(map(repr, names))})")
        return text
    return parse


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise CliError(f"invalid rational {text!r}")


def _frac_str(x: Fraction, decimal: bool) -> str:
    s = str(x)
    if decimal:
        s += f" (~{float(x):.6f})"
    return s


def _emit_rows(header, rows, fmt, out):
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    elif fmt == "json":
        json.dump([dict(zip(header, row)) for row in rows], out, indent=2)
        out.write("\n")
    else:
        cells = [list(map(str, row)) for row in (header, *rows)]
        widths = [max(map(len, column)) for column in zip(*cells)]
        for row in cells:
            out.write("  ".join(map(str.ljust, row, widths)).rstrip() + "\n")


def _write_cases(table: CaseTable, head: str, suffix: dict, out, sep: str = "",
                 width: int = 0) -> None:
    """Write each case row as `head`, its family's text left-justified to
    `width`, and the suffix of its refined vector, joined by `sep`. The suffix
    holds the row's prior, emission and event, rendered once per vector.

    Rows are written a prefix at a time: the text of each family's first n-2
    children (at least one) grows down `CaseTable.prefix_tree`, and a prefix's
    rows are one `str.join` of `rest`, what follows that text in each row: the
    last two children, the last padded to what is left of `width`, and the
    suffix. `rest` depends only on the prefix vector and that padding, and is
    built from the lists of the prefix's one-child extensions. Each list is
    kept for reuse where its vector holds a class of two or more children,
    since only there can a second prefix share the key. An (n-2)-child prefix
    whose vector holds no such class would read its list once, so its rows are
    written one join per (n-1)-child prefix, as are the rows of a table of one
    or two children."""
    n = table.config.family_size
    grow = table.prefix_tree(child_labels(table.config))
    shared = {k for k, m in Counter(table.child_class).items() if m > 1}
    kept: dict[tuple, list[str]] = {}

    def rest(p: tuple, pad: int) -> list[str]:
        """What follows the text of a prefix of vector `p` in each of its
        rows, where `pad` is what is left of `width` after that text."""
        got = kept.get((p, pad))
        if got is None:
            if len(p) == n - 1:
                got = [c.ljust(pad) + suffix[q] for c, q in grow.get(p, ())]
            else:
                got = []
                for c, q in grow.get(p, ()):
                    c += ","
                    got += [c + t for t in rest(q, width and pad - len(c))]
            if not shared.isdisjoint(p):
                kept[p, pad] = got
        return got

    level = [((), "")]
    for _ in range(n - 2):
        level = ((q, f + c + ",") for p, f in level for c, q in grow.get(p, ()))
    if n > 1:  # a prefix whose vector cannot recur grows by one more child
        level = (pf for p, f in level for pf in (
            ((p, f),) if not shared.isdisjoint(p)
            else ((q, f + c + ",") for c, q in grow.get(p, ()))))
    lead = ""
    for p, f in level:
        pad = width and width - len(f)  # no padding in csv or JSON
        f = head + f
        out.write(lead + f + (sep + f).join(rest(p, pad)))
        lead = sep


def _cells(table: CaseTable):
    """Each refined vector's prior, emission and event ("1" or "0") text.

    The vectors share a handful of emission objects, so each is rendered
    once, found by identity: hashing a `Fraction` costs more than `str`."""
    prior = str(table.prior)
    cells, rendered = {}, {}
    for vec, (e, holds) in table.vectors.items():
        cell = rendered.get((id(e), holds))
        if cell is None:
            cell = rendered[id(e), holds] = (prior, str(e), "1" if holds else "0")
        cells[vec] = cell
    return cells


# The summary rows of a `run`/`eval` report, in every format, after its statement.
_SUMMARY = ("statement_mass", "joint_mass", "posterior")


def _write_json_report(rep: PosteriorReport, stmt: str, decimal: bool, out) -> None:
    """Write the bytes `json.dump(payload, out, indent=2)` would, without
    building the payload or running the pure-Python encoder. Family and
    `Fraction` strings need no escaping; the statement may (a text label)."""
    out.write(f'{{\n  "statement": {encode_basestring_ascii(stmt)},\n'
              + "".join(f'  "{name}": "{getattr(rep, name)}",\n' for name in _SUMMARY)
              + '  "cases": [')
    suffix = {vec: f'",\n      "prior": "{prior}",\n      "emission": "{em}",\n'
                   f'      "event": {"true" if ev == "1" else "false"}\n    }}'
              for vec, (prior, em, ev) in _cells(rep.case_table).items()}
    _write_cases(rep.case_table, '\n    {\n      "family": "', suffix, out, sep=",")
    out.write("\n  ]" if len(rep.case_table) else "]")
    if decimal:
        out.write(f',\n  "posterior_decimal": {json.dumps(float(rep.posterior))}')
    out.write("\n}\n")


def _print_report(rep: PosteriorReport, cfg: WorldConfig, args, out):
    stmt = render_statement(rep.statement, cfg)
    if args.format == "json":
        _write_json_report(rep, stmt, args.decimal, out)
        return
    table = rep.case_table
    cells = _cells(table)
    header = ("family", "prior", "emission", "event")
    if args.format == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        # csv quotes a field that holds its delimiter: the family of two or
        # more children; no other case field needs quoting
        quote = '"' if cfg.family_size > 1 else ""
        suffix = {vec: f"{quote},{prior},{em},{ev}\n" for vec, (prior, em, ev) in cells.items()}
        _write_cases(table, quote, suffix, out)
        # the summary rows go through the same writer, which quotes a statement
        # that holds the delimiter
        writer.writerow(("statement", stmt))
        writer.writerows((name, getattr(rep, name)) for name in _SUMMARY)
        if args.decimal:
            writer.writerow(("posterior_decimal", json.dumps(float(rep.posterior))))
        return
    # the columns `_emit_rows` pads, each as wide as its widest cell; a refined
    # vector's widest family joins the widest child of each of its classes
    longest: dict[int, int] = {}
    for label, k in zip(child_labels(cfg), table.child_class):
        longest[k] = max(longest.get(k, 0), len(label))
    widths = [max([len(h)] + [len(cell[i]) for cell in cells.values()])
              for i, h in enumerate(header[1:3])]
    family = max([len(header[0])] + [sum(map(longest.__getitem__, vec)) + len(vec) - 1
                                     for vec in cells])
    suffix = {vec: f"  {prior:<{widths[0]}}  {em:<{widths[1]}}  {ev}\n"
              for vec, (prior, em, ev) in cells.items()}
    out.write(f"{header[0]:<{family}}  {header[1]:<{widths[0]}}  {header[2]:<{widths[1]}}  "
              f"{header[3]}\n")
    _write_cases(table, "", suffix, out, width=family)
    out.write(f"statement = {stmt}\n")
    for name in _SUMMARY:
        out.write(f"{name.replace('_', ' ')} = {_frac_str(getattr(rep, name), args.decimal)}\n")


def _check_outcome_space(d: int, n: int, remedy: str) -> None:
    """Exit 2 before enumerating when (2d)^n exceeds MAX_FAMILIES."""
    families = 1
    for _ in range(n):  # stops early, so huge n costs nothing
        families *= 2 * d
        if families > MAX_FAMILIES:
            raise CliError(f"the outcome space (2d)^n = ({2 * d})^{n} "
                           f"exceeds {MAX_FAMILIES:,} families; {remedy}")


def _world(args) -> WorldConfig:
    _check_outcome_space(args.week_days, args.children, "lower --week-days or --children")
    return WorldConfig(week_length=args.week_days, family_size=args.children)


def _target(args, cfg: WorldConfig, builtin: bool):
    """The target's kernel, compiled for its statement (see
    `dsl.compile_protocol`), the statement and the event: what `run` and
    `eval` condition on and `mc` samples.

    A builtin states its own and reads only --day and --p, where an absent flag
    leaves `bind_builtin` its default; a .proc file reads only --say and --event."""
    if builtin:
        if args.say is not None or args.event is not None:
            raise CliError("--say and --event apply to .proc targets only; "
                           "a builtin scenario states its own")
        if args.target not in BUILTIN_IDS:
            raise CliError(f"unknown scenario id {args.target!r}; see `ambiprob list`")
        day = None if args.day is None else _parse_day(args.day, cfg)
        b = bind_builtin(args.target, cfg, day=day, p=args.p)
        return dsl.compile_protocol(b.ast, cfg, b.values, b.statement), b.statement, b.query
    if args.say is None or args.event is None:
        raise CliError("--say and --event are required for .proc targets")
    if args.day is not None or args.p is not None:
        raise CliError("--day and --p apply to builtin scenarios only; "
                       "a .proc target uses its parameters' defaults")
    try:
        say = dsl.parse_statement_text(args.say, cfg)
    except DslError:
        # the file's own errors come first; a compile for a statement that
        # names no day raises them all and tells few days apart
        dsl.load_protocol(args.target, cfg, YesNo(True))
        raise
    return dsl.load_protocol(args.target, cfg, say), say, dsl.parse_event_text(args.event, cfg)


def cmd_list(args, out):
    rows = []
    for sid in sorted(BUILTIN_IDS):
        b = bind_builtin(sid, WorldConfig())  # the answer and description; no compile
        rows.append([sid, str(b.answer) if sid != "any-answer" else "p", b.description])
    _emit_rows(["id", "answer", "description"], rows, args.format, out)
    return EXIT_OK


def cmd_posterior(args, out):
    """`run` a builtin or `eval` a .proc file: the exact posterior report."""
    cfg = _world(args)
    rep = posterior(*_target(args, cfg, builtin=args.command == "run"))
    _print_report(rep, cfg, args, out)
    return EXIT_OK


# The fields of `mc`'s table and csv reports, in order; JSON holds every field.
_MC_ROWS = ("estimate", "stderr", "exact", "tolerance", "statement_matches", "hits",
            "rejected_families", "rejected_runs", "seed", "verdict")


def cmd_mc(args, out):
    from . import mc  # numpy, which only `mc` needs, takes as long to import as the rest

    cfg = _world(args)
    builtin = args.target in BUILTIN_IDS or not (
        args.target.endswith(".proc") or args.say is not None or args.event is not None)
    report = mc.agreement_check(*_target(args, cfg, builtin=builtin),
                                args.trials, args.seed, shards=args.shards)
    r = report.result
    fields = {"estimate": r.estimate, "stderr": r.stderr, "exact": str(report.exact),
              "tolerance": report.tolerance, "verdict": "PASS" if report.passed else "FAIL",
              "trials": r.trials, "statement_matches": r.statement_matches, "hits": r.hits,
              "rejected_families": r.rejected_families, "rejected_runs": r.rejected_runs,
              "seed": r.seed, "shards": r.shards}
    if args.format == "json":
        json.dump(fields, out, indent=2)
        out.write("\n")
    else:  # a float to six places
        shown = (f"{v:.6f}" if isinstance(v, float) else v for v in map(fields.get, _MC_ROWS))
        _emit_rows(["field", "value"], zip(_MC_ROWS, shown), args.format, out)
    return EXIT_OK if report.passed else EXIT_DISAGREE


def cmd_sweep(args, out):
    if not 1 <= args.d_min <= args.d_max:
        raise CliError("need 1 <= d_min <= d_max")
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


REQUIRED = object()  # the default of an argument a command cannot run without

_FORMAT = ("--format", "format", _choice("table", "csv", "json"), "table", "table, csv or json")
_WORLD = (("--week-days", "week_days", _int_at_least(1), 7, "days in a week"),
          ("--children", "children", _int_at_least(1), 2, "children in a family"))
_BUILTIN = (("--day", "day", str, None, "target day, e.g. wed or d3 (default tue on a 7-day week)"),
            ("--p", "p", _parse_fraction, None, "posterior of the any-answer scenario (default 1/2)"))
_DECIMAL = ("--decimal", "decimal", None, False, "also show 6-digit decimal approximations")

# A usage error that names several arguments names them in row order.
COMMANDS = {
    "list": (cmd_list, "list builtin scenarios", (_FORMAT,)),
    "run": (cmd_posterior, "exact posterior of a builtin scenario", (
        _FORMAT, ("scenario", "target", str, REQUIRED, "builtin scenario id"),
        *_WORLD, *_BUILTIN, _DECIMAL)),
    "eval": (cmd_posterior, "evaluate a .proc file", (
        _FORMAT, ("file", "target", str, REQUIRED, "procedure file"),
        ("--say", "say", str, REQUIRED, 'statement, e.g. "claim(boy,tue)" (required)'),
        ("--event", "event", str, REQUIRED, 'event predicate, e.g. "all(boy)" (required)'),
        *_WORLD, _DECIMAL)),
    "mc": (cmd_mc, "Monte Carlo cross-check", (
        _FORMAT, ("target", "target", str, REQUIRED, "scenario id or .proc file"),
        ("--say", "say", str, None, "statement (required for .proc targets)"),
        ("--event", "event", str, None, "event predicate (required for .proc targets)"),
        ("--trials", "trials", _int_at_least(1), 1_000_000, "trials to draw"),
        ("--seed", "seed", _int_at_least(0), 42, "seed of the random stream"),
        ("--shards", "shards", _int_at_least(1), 1, "streams the trials are split over"),
        *_WORLD, *_BUILTIN)),
    "sweep": (cmd_sweep, "week-length sweep against (2d-1)/(4d-1)", (
        _FORMAT, ("d_min", "d_min", int, REQUIRED, "shortest week"),
        ("d_max", "d_max", int, REQUIRED, "longest week"))),
}
_ABSENT = dict.fromkeys(arg[1] for _, _, spec in COMMANDS.values() for arg in spec)


def parse_args(argv) -> SimpleNamespace:
    """Read argv against `COMMANDS` (see the module docstring); -h/--help
    gives a namespace whose handler writes the help, built only then."""
    argv = iter(argv)
    command = next(argv, None)
    if command in ("-h", "--help"):
        return SimpleNamespace(func=_help, command=None)
    if command not in COMMANDS:
        raise CliError("the following arguments are required: command" if command is None else
                       f"argument command: invalid choice: {command!r} "
                       f"(choose from {', '.join(map(repr, COMMANDS))})")
    func, _, spec = COMMANDS[command]
    flags = {arg[0]: arg for arg in spec if arg[0][0] == "-"}
    values = {**_ABSENT, **{arg[1]: arg[3] for arg in spec}, "command": command, "func": func}
    given, positional, extra = [], [], []
    for text in argv:
        if text == "--":
            positional += argv
        elif text[:1] != "-" or text == "-" or text[1:].isdigit():
            positional.append(text)
        else:
            name, eq, value = text.partition("=")
            name = "--help" if name == "-h" else name
            hits = [name] if name in flags else [f for f in (*flags, "--help") if f.startswith(name)]
            if len(hits) > 1:
                raise CliError(f"ambiguous option: {name} could match {', '.join(hits)}")
            arg = flags.get(hits[0]) if hits else None
            if hits == ["--help"]:
                return SimpleNamespace(func=_help, command=command)
            if arg is None or eq and arg[2] is None:  # unknown, or a switch given a value
                extra.append(text)
            elif arg[2] is None or eq or (value := next(argv, None)) is not None:
                given.append((arg, value))
            else:
                raise CliError(f"argument {arg[0]}: expected one argument")
    todo = [arg for arg in spec if arg[0][0] != "-"]
    for arg, text in given + list(zip(todo, positional)):
        try:
            values[arg[1]] = True if arg[2] is None else arg[2](text)
        except ValueError:  # int() is the one converter that raises it
            raise CliError(f"argument {arg[0]}: invalid int value: {text!r}") from None
        except CliError as exc:
            raise CliError(f"argument {arg[0]}: {exc}") from None
    if missing := [arg[0] for arg in spec if values[arg[1]] is REQUIRED]:
        raise CliError(f"the following arguments are required: {', '.join(missing)}")
    if extra := extra + positional[len(todo):]:
        raise CliError(f"unrecognized arguments: {' '.join(extra)}")
    return SimpleNamespace(**values)


def _help(args, out) -> int:
    """Write the help of `args.command`, or of every command, from `COMMANDS`."""
    for command in [args.command] if args.command else COMMANDS:
        _, about, spec = COMMANDS[command]
        usage = " ".join([command, "[options]", *(a[0] for a in spec if a[0][0] != "-")])
        out.write(f"usage: ambiprob {usage}\n\n{about}\n\n")
        _emit_rows(["argument", "help"], [("-h, --help", "show this help message and exit"),
                                          *((a[0], a[4]) for a in spec)], "table", out)
        out.write("\n")
    return EXIT_OK


def _warn(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"ambiprob: warning: {message}", file=sys.stderr)


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    with warnings.catch_warnings():
        warnings.showwarning = _warn  # restored on leaving the block
        try:
            args = parse_args(sys.argv[1:] if argv is None else argv)
            return args.func(args, out)
        except tuple(EXIT_CODES) as exc:
            print(f"ambiprob: {exc}", file=sys.stderr)
            return next(code for kind, code in EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
