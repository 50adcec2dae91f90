"""One benchmark operation: a user request, how to issue it, and how to check it.

An op is either an in-process `ambiprob.cli.main(argv, out=buffer)` call or
the README's library call `marginal(build_scenario(...).kernel)`. Each op
carries a check that compares the program's output with answers the benchmark
derives itself (see `answers.py`).
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from answers import week_formula

OK, KNOWN, BAD = "ok", "known", "bad"


@dataclass
class Op:
    label: str
    argv: list[str] | None  # None for the library `marginal` call
    check: Callable  # (exit_code_or_value, output_text) -> failure reason or None
    marginal: tuple | None = None  # (scenario id, d, day, p) for library ops
    # A known defect: the name of the exception class this commit raises
    # instead of passing `check`. Raising it counts as a failure, but an
    # expected one.
    known_defect: str | None = None


@dataclass
class Outcome:
    latency: float
    status: str  # OK, KNOWN or BAD
    reason: str | None
    out_bytes: int


def _call(op: Op):
    """Issue the op through the package's current module attributes, so that a
    tracer that patched them sees the call."""
    if op.argv is not None:
        buf = io.StringIO()
        cli = sys.modules["ambiprob.cli"]
        t0 = time.perf_counter()
        value = cli.main(op.argv, out=buf)
        t1 = time.perf_counter()
        return value, buf.getvalue(), t1 - t0
    pkg = sys.modules["ambiprob"]
    sid, d, day, p = op.marginal
    t0 = time.perf_counter()
    value = pkg.marginal(
        pkg.build_scenario(sid, pkg.WorldConfig(week_length=d, family_size=2), day=day, p=p).kernel
    )
    t1 = time.perf_counter()
    return value, "", t1 - t0


def execute(op: Op) -> Outcome:
    # Each op starts with an empty collector state, as a fresh `ambiprob`
    # process would, so when the cyclic GC runs inside an op does not depend
    # on which ops ran before it.
    gc.collect()
    err = io.StringIO()
    t_start = time.perf_counter()
    with contextlib.redirect_stderr(err):
        try:
            value, text, latency = _call(op)
        except Exception as exc:  # an op that raises is a failed op, not a crash of the benchmark
            latency = time.perf_counter() - t_start
            if type(exc).__name__ == op.known_defect:
                return Outcome(latency, KNOWN, f"known defect: {exc!r}", 0)
            return Outcome(latency, BAD, f"raised {exc!r}", 0)
    try:
        reason = op.check(value, text)
    except (ValueError, KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
        reason = f"unparseable output ({exc!r})"
    return Outcome(latency, OK if reason is None else BAD, reason, len(text))


# ---------------------------------------------------------------------------
# Output readers, one per --format
# ---------------------------------------------------------------------------

def _fields(text: str, fmt: str) -> dict[str, str]:
    """Trailing `key = value` / `key,value` lines of run/eval, or the JSON payload."""
    if fmt == "json":
        return json.loads(text)
    sep = "," if fmt == "csv" else " = "
    out = {}
    for line in text.splitlines():
        key, found, value = line.partition(sep)
        if found:
            out[key.replace(" ", "_")] = value.split(" (~")[0]
    return out


def _rows(text: str, fmt: str) -> list[dict[str, str]]:
    """The rows of an `_emit_rows` table in any format."""
    if fmt == "json":
        return json.loads(text)
    lines = text.splitlines()
    split = (lambda s: s.split(",")) if fmt == "csv" else str.split
    header = split(lines[0])
    return [dict(zip(header, split(line))) for line in lines[1:]]


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def expect_exit(code: int):
    def check(value, text):
        return None if value == code else f"exit {value}, expected {code}"
    return check


def expect_posterior(fmt: str, post: Fraction, mass: Fraction):
    """`run` / `eval`: exit 0 with the exact posterior and statement mass."""
    def check(value, text):
        if value != 0:
            return f"exit {value}, expected 0"
        f = _fields(text, fmt)
        got_post, got_mass = Fraction(f["posterior"]), Fraction(f["statement_mass"])
        if got_post != post:
            return f"posterior {got_post}, expected {post}"
        if got_mass != mass:
            return f"statement mass {got_mass}, expected {mass}"
        return None
    return check


def expect_mc(fmt: str, exact: Fraction, trials: int):
    """`mc`: exit 0, PASS, the exact answer, the requested number of matches,
    and an estimate inside max(0.005, 5 stderr) of the exact answer."""
    def check(value, text):
        if value != 0:
            return f"exit {value}, expected 0"
        f = _fields(text, "json") if fmt == "json" else {
            r["field"]: r["value"] for r in _rows(text, fmt)
        }
        if f["verdict"] != "PASS":
            return f"verdict {f['verdict']}"
        if Fraction(f["exact"]) != exact:
            return f"exact {f['exact']}, expected {exact}"
        if int(f["statement_matches"]) != trials:
            return f"{f['statement_matches']} statement matches, expected {trials}"
        estimate, stderr = float(f["estimate"]), float(f["stderr"])
        # table/csv print six decimals
        if abs(estimate - float(exact)) > max(0.005, 5 * stderr) + 2e-6:
            return f"estimate {estimate} outside tolerance of {exact}"
        return None
    return check


def expect_sweep(fmt: str, d_min: int, d_max: int):
    """`sweep`: one `yes` row per d, each posterior equal to (2d-1)/(4d-1)."""
    def check(value, text):
        if value != 0:
            return f"exit {value}, expected 0"
        rows = _rows(text, fmt)
        if [int(r["d"]) for r in rows] != list(range(d_min, d_max + 1)):
            return "wrong d column"
        for r in rows:
            want = week_formula(int(r["d"]))
            if r["match"] != "yes" or Fraction(r["posterior"]) != want or Fraction(r["formula"]) != want:
                return f"row {r} does not match {want}"
        return None
    return check


def expect_marginal(statement_of: Callable, mass: Fraction, reject: Fraction):
    """Library `marginal`: masses sum to exactly 1, with the expected reject mass
    and canonical-statement mass. `statement_of(pkg)` builds the statement."""
    def check(value, text):
        pkg = sys.modules["ambiprob"]
        total = sum(value.values(), Fraction(0))
        if total != 1:
            return f"masses sum to {total}"
        if value[pkg.REJECT] != reject:
            return f"reject mass {value[pkg.REJECT]}, expected {reject}"
        got = value.get(statement_of(pkg), Fraction(0))
        if got != mass:
            return f"statement mass {got}, expected {mass}"
        return None
    return check
