import csv
import io
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest

import ambiprob
from ambiprob import cli, dsl, mc
from ambiprob.cli import COMMANDS, EXIT_CODES, _emit_rows, _target, main, parse_args
from ambiprob.engine import posterior, render_statement
from ambiprob.errors import AmbiprobError
from ambiprob.model import WorldConfig, family_str, week_children
from ambiprob.scenarios import BUILTIN_IDS, sweep_formula

PROC_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "ambiprob", "procs")


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_list_has_ten_sorted_rows():
    code, text = run_cli("list")
    assert code == 0
    lines = text.strip().splitlines()
    assert len(lines) == 11  # header + ten scenarios
    ids = [line.split()[0] for line in lines[1:]]
    assert ids == sorted(ids)
    assert any(line.startswith("bc-tc") and "13/27" in line for line in lines)


@pytest.mark.parametrize("argv, header", [
    (("list",), ["id", "answer", "description"]),
    (("sweep", "1", "5"), ["d", "posterior", "formula", "match"]),
])
def test_json_table_is_one_object_per_csv_row(argv, header):
    code, text = run_cli(*argv, "--format", "json")
    assert code == 0
    records = json.loads(text)
    assert text == json.dumps(records, indent=2) + "\n"
    assert [list(r) for r in records] == [header] * len(records)
    rows = list(csv.reader(io.StringIO(run_cli(*argv, "--format", "csv")[1])))
    assert rows == [header] + [[str(v) for v in r.values()] for r in records]


def test_list_csv():
    code, text = run_cli("list", "--format", "csv")
    assert code == 0
    lines = text.strip().split("\n")
    assert lines[0] == "id,answer,description"
    assert len(lines) == 11


def test_run_bc_tc():
    code, text = run_cli("run", "bc-tc")
    assert code == 0
    assert "posterior = 13/27" in text


def test_run_bc_tc_one_day_week():
    code, text = run_cli("run", "bc-tc", "--week-days", "1", "--day", "d0")
    assert code == 0
    assert "posterior = 1/3" in text


def test_run_bc_tc_on_a_named_day():
    code, text = run_cli("run", "bc-tc", "--day", "wed")
    assert code == 0
    assert "statement = claim(boy,wed)\nstatement mass = " in text
    assert "posterior = 13/27\n" in text


def test_run_classic_selection():
    code, text = run_cli("run", "classic-selection")
    assert code == 0
    assert "posterior = 1/3" in text


def test_run_unknown_id_exits_2():
    code, _ = run_cli("run", "does-not-exist")
    assert code == 2


def test_run_json_fractions_are_strings():
    code, text = run_cli("run", "yesno", "--format", "json")
    assert code == 0
    payload = json.loads(text)
    assert payload["posterior"] == "13/27"
    assert payload["statement_mass"] == "27/196"
    assert all("/" in row["prior"] for row in payload["cases"])


@pytest.mark.parametrize("extra", [
    (),
    ("--decimal",),
    ("--week-days", "30"),  # 3,600 case rows: several write batches
])
def test_json_report_is_the_indented_json_encoding(extra, tmp_path):
    say = 'text("a\\"\u00e9")'  # a label with a quote and a non-ASCII letter
    proc = tmp_path / "p.proc"
    proc.write_text(f"procedure p {{\n  flip 1/3 {{ say {say}; }} else {{ say yes; }}\n}}\n",
                    encoding="utf-8")
    code, text = run_cli("eval", str(proc), "--say", say, "--event", "all(boy)",
                         "--format", "json", *extra)
    assert code == 0
    payload = json.loads(text)
    assert text == json.dumps(payload, indent=2) + "\n"
    assert payload["statement"] == 'text("a\\"\u00e9")'
    assert ("posterior_decimal" in payload) == ("--decimal" in extra)


@pytest.mark.parametrize("decimal", [(), ("--decimal",)])
@pytest.mark.parametrize("target, say", [
    ("bc-tc", "claim(boy,tue)"),
    ("yesno", "yes"),
    ("p.proc", 'text("a, \\"b\\"")'),  # a label with the delimiter and a quote
])
def test_csv_report_reads_back_with_the_csv_module(target, say, decimal, tmp_path):
    if target.endswith(".proc"):
        proc = tmp_path / target
        proc.write_text(f"procedure p {{\n  flip 1/3 {{ say {say}; }} else {{ say yes; }}\n}}\n")
        argv = ("eval", str(proc), "--say", say, "--event", "all(boy)", *decimal)
    else:
        argv = ("run", target, *decimal)
    code, text = run_cli(*argv, "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["family", "prior", "emission", "event"]
    cases = next(i for i, row in enumerate(rows) if len(row) != 4)
    summary = rows[cases:]
    assert cases > 1 and all(len(row) == 2 for row in summary)
    names = ["statement", "statement_mass", "joint_mass", "posterior"]
    assert [name for name, _ in summary] == names + ["posterior_decimal"] * bool(decimal)
    fields = dict(summary)
    cfg = WorldConfig()
    assert fields["statement"] == render_statement(dsl.parse_statement_text(say, cfg), cfg)
    payload = json.loads(run_cli(*argv, "--format", "json")[1])
    assert {name: fields[name] for name in names} == {name: payload[name] for name in names}
    if decimal:
        assert fields["posterior_decimal"] == json.dumps(payload["posterior_decimal"])
        assert float(fields["posterior_decimal"]) == float(Fraction(fields["posterior"]))


def test_run_decimal_flag():
    code, text = run_cli("run", "bc-tc", "--decimal")
    assert code == 0
    assert "13/27 (~0.481481)" in text


def test_eval_gn_dn():
    path = os.path.join(PROC_DIR, "gn_dn.proc")
    code, text = run_cli("eval", path, "--say", "claim(boy,tue)", "--event", "all(boy)")
    assert code == 0
    assert "posterior = 1/2" in text


def test_eval_complement_event():
    path = os.path.join(PROC_DIR, "gn_dn.proc")
    code, text = run_cli("eval", path, "--say", "claim(boy,tue)", "--event", "not all(boy)")
    assert code == 0
    assert "posterior = 1/2" in text


def test_eval_malformed_file_exits_4(tmp_path):
    bad = tmp_path / "bad.proc"
    bad.write_text("procedure p {\n  say yes\n}\n")
    code, _ = run_cli("eval", str(bad), "--say", "yes", "--event", "all(boy)")
    assert code == 4


def test_eval_zero_mass_exits_3(tmp_path):
    proc = tmp_path / "p.proc"
    proc.write_text("procedure p { say yes; }\n")
    code, _ = run_cli("eval", str(proc), "--say", "no", "--event", "all(boy)")
    assert code == 3


def test_eval_dead_statement_exits_4_on_one_line(tmp_path, capsys):
    # `say no` can never run, so the file is an error, not a statement never emitted
    proc = tmp_path / "p.proc"
    proc.write_text("procedure p { say yes; say no; }\n")
    assert run_cli("eval", str(proc), "--say", "no", "--event", "all(boy)") == (4, "")
    assert capsys.readouterr().err == "ambiprob: 1:24: unreachable statement after 'say'\n"


@pytest.mark.parametrize("command", ["eval", "mc"])
def test_a_fall_through_warns_on_one_line(command, tmp_path, capsys):
    proc = tmp_path / "p.proc"
    proc.write_text("procedure p { if all(boy) { say yes; } }\n")
    code, _ = run_cli(command, str(proc), "--say", "yes", "--event", "all(boy)",
                      *(["--trials", "100"] if command == "mc" else []))
    assert code == 0
    assert capsys.readouterr().err == (
        "ambiprob: warning: procedure 'p': some execution paths end without say/reject; "
        "treating them as reject\n")


def test_mc_pass_and_determinism():
    code1, text1 = run_cli("mc", "bc-tc", "--trials", "50000", "--seed", "42")
    code2, text2 = run_cli("mc", "bc-tc", "--trials", "50000", "--seed", "42")
    assert code1 == code2 == 0
    assert text1 == text2
    assert "PASS" in text1


def test_mc_json_report():
    code, text = run_cli("mc", "bc-tc", "--trials", "20000", "--seed", "7", "--format", "json")
    assert code == 0
    payload = json.loads(text)
    assert list(payload) == ["estimate", "stderr", "exact", "tolerance", "verdict", "trials",
                             "statement_matches", "hits", "rejected_families", "rejected_runs",
                             "seed", "shards"]
    assert (payload["exact"], payload["verdict"]) == ("13/27", "PASS")
    # bc-tc says one statement, so every run that speaks matches it
    assert payload["statement_matches"] == payload["trials"] == 20000


@pytest.mark.parametrize("argv", [
    ("bc-tc", "--trials", "3000", "--seed", "5"),
    ("brag", "--trials", "2000", "--seed", "1", "--shards", "3"),
    (os.path.join(PROC_DIR, "gn_dn.proc"), "--say", "claim(boy,tue)", "--event", "all(boy)",
     "--trials", "2000"),
])
def test_mc_formats_give_the_same_fields(argv):
    # table and csv give the same (field, value) rows; JSON holds each value,
    # which they show to six places where it is a float
    reports = [run_cli("mc", *argv, "--format", fmt) for fmt in ("table", "csv", "json")]
    assert [code for code, _ in reports] == [0, 0, 0]
    table = [line.split() for line in reports[0][1].splitlines()]
    rows = list(csv.reader(io.StringIO(reports[1][1])))
    assert table == rows
    assert rows[0] == ["field", "value"] and len(rows) == 11
    payload = json.loads(reports[2][1])
    for field, value in rows[1:]:
        want = payload[field]
        assert value == (f"{want:.6f}" if isinstance(want, float) else str(want))


@pytest.mark.parametrize("argv, vectors", [
    (("gn-dn", "--week-days", "365"), 16),  # not the (2d)^2 = 532,900 of every claim
    ((os.path.join(PROC_DIR, "gn_dn.proc"), "--children", "4", "--say", "claim(boy,tue)",
      "--event", "all(boy)"), 256),  # not 14^4 = 38,416
])
def test_mc_samples_the_kernel_compiled_for_its_statement(argv, vectors, monkeypatch):
    sampled = []

    def agreement_check(kernel, *rest, real=mc.agreement_check, **kwargs):
        sampled.append(kernel)
        return real(kernel, *rest, **kwargs)

    monkeypatch.setattr(mc, "agreement_check", agreement_check)
    assert run_cli("mc", *argv, "--trials", "2000", "--seed", "1")[0] == 0
    assert [len(k.table) for k in sampled] == [vectors]


def _proc_argv(name, children):
    return (os.path.join(PROC_DIR, name), "--children", str(children),
            "--say", "claim(boy,tue)", "--event", "all(boy)")


# the targets whose `say` reads a child's own day, so their kernel lumps the
# days it does not name into OTHER
DAY_READING = [
    ("gn-dn", "--week-days", "30", "--day", "d3"),
    ("bc-dn", "--week-days", "30", "--day", "d3"),
    _proc_argv("gn_dn.proc", 3),
    _proc_argv("bc_dn.proc", 3),
]


@pytest.mark.parametrize("argv", [(sid,) for sid in sorted(BUILTIN_IDS)] + DAY_READING)
def test_mc_exact_is_the_posterior_run_and_eval_report(argv):
    command = "eval" if argv[0].endswith(".proc") else "run"
    code, text = run_cli(command, *argv, "--format", "json")
    assert code == 0
    seeds = (1, 2, 3) if argv in DAY_READING else (1,)
    for seed in seeds:
        code, report = run_cli("mc", *argv, "--trials", "20000", "--seed", str(seed),
                               "--format", "json")
        payload = json.loads(report)
        assert payload["exact"] == json.loads(text)["posterior"]
        assert (code, payload["verdict"]) == (0, "PASS")


def test_mc_trials_that_are_not_a_number_exit_2(capsys):
    assert run_cli("mc", "bc-tc", "--trials", "many") == (2, "")
    assert "argument --trials: invalid int value: 'many'" in capsys.readouterr().err


def test_mc_single_trial_deterministic():
    code1, text1 = run_cli("mc", "classic-selection", "--trials", "1", "--seed", "5")
    code2, text2 = run_cli("mc", "classic-selection", "--trials", "1", "--seed", "5")
    assert text1 == text2


def test_mc_proc_target_requires_specs(tmp_path):
    proc = tmp_path / "p.proc"
    proc.write_text("procedure p { say yes; }\n")
    code, _ = run_cli("mc", str(proc), "--trials", "10")
    assert code == 2
    code2, text = run_cli(
        "mc", str(proc), "--say", "yes", "--event", "count(boy) >= 0",
        "--trials", "1000", "--seed", "1",
    )
    assert code2 == 0


def test_mc_reads_a_target_with_say_and_event_as_a_file_whatever_its_name(tmp_path):
    proc = tmp_path / "p.txt"
    proc.write_text("procedure p { say yes; }\n")
    flags = ("--say", "yes", "--event", "all(boy)")
    code, text = run_cli("eval", str(proc), *flags)
    assert (code, "posterior = 1/4\n" in text) == (0, True)
    code, text = run_cli("mc", str(proc), *flags, "--trials", "10", "--seed", "1")
    assert (code, text.splitlines()[3].split()) == (0, ["exact", "1/4"])


@pytest.mark.parametrize("argv, message", [
    # not a builtin id, and nothing to read it as a file by
    (("bc_tc",), "unknown scenario id 'bc_tc'; see `ambiprob list`"),
    ((os.path.join(PROC_DIR, "gn_dn.proc"),), "--say and --event are required for .proc targets"),
    (("bc-tc", "--say", "yes"), "--say and --event apply to .proc targets only"),
])
def test_mc_target_rule_keeps_its_usage_errors(argv, message, capsys):
    assert run_cli("mc", *argv, "--trials", "10") == (2, "")
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--day", "wed"), ("--p", "1/5")])
def test_mc_proc_target_rejects_builtin_options(flag, value, capsys):
    path = os.path.join(PROC_DIR, "any_answer.proc")
    code, text = run_cli("mc", path, "--say", "atleastone(boy)", "--event", "all(boy)",
                         flag, value, "--trials", "100")
    assert (code, text) == (2, "")
    assert "--day and --p apply to builtin scenarios only" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--trials", "0"), ("--trials", "-3"), ("--shards", "0")])
def test_mc_non_positive_trials_or_shards_exit_2(flag, value, capsys):
    code, text = run_cli("mc", "bc-tc", flag, value)
    assert code == 2
    assert text == ""
    assert "must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "mc"])
def test_flip_probability_out_of_range_exits_4(command, tmp_path, capsys):
    proc = tmp_path / "p.proc"
    proc.write_text("procedure p {\n  flip 3/2 { say yes; } else { say no; }\n}\n")
    code, _ = run_cli(command, str(proc), "--say", "yes", "--event", "all(boy)")
    assert code == 4
    assert "2:3: flip probability 3/2 outside [0, 1]" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("run", "gn-dn", "--week-days", "100000"),
    ("eval", os.path.join(PROC_DIR, "gn_dn.proc"), "--say", "yes", "--event", "all(boy)",
     "--children", "12"),
    ("mc", "gn-dn", "--children", "1000000000"),
])
def test_outcome_space_budget_exits_2(argv, capsys):
    code, text = run_cli(*argv)
    assert code == 2
    assert text == ""
    assert "exceeds 2,000,000 families" in capsys.readouterr().err


@pytest.mark.parametrize("d, n, admitted", [
    (365, 2, True), (7, 5, True), (1_000_000, 1, True), (1_000_001, 1, False), (7, 6, False),
])
def test_outcome_space_budget_boundary(d, n, admitted):
    from argparse import Namespace

    from ambiprob.cli import CliError, _world

    args = Namespace(week_days=d, children=n)
    if admitted:
        assert _world(args).n_outcomes <= 2_000_000
    else:
        with pytest.raises(CliError):
            _world(args)


def test_day_out_of_range_exits_4_with_span(tmp_path, capsys):
    proc = tmp_path / "p.proc"
    proc.write_text("procedure p {\n  if all(girl) { say claim(boy, d40); } else { say yes; }\n}\n")
    code, _ = run_cli("eval", str(proc), "--say", "yes", "--event", "all(boy)")
    assert code == 4
    assert "2:33: day 40 out of range for d=7" in capsys.readouterr().err


def test_sweep():
    code, text = run_cli("sweep", "1", "30")
    assert code == 0
    lines = text.strip().splitlines()
    assert len(lines) == 31
    assert all(line.endswith("yes") for line in lines[1:])
    assert any(line.startswith("7") and "13/27" in line for line in lines)
    assert any(line.startswith("1 ") and "1/3" in line for line in lines)


def test_sweep_mismatch_exits_5(monkeypatch):
    monkeypatch.setattr("ambiprob.cli.sweep_formula", lambda d: sweep_formula(d) + (d == 2))
    code, text = run_cli("sweep", "1", "3")
    assert code == 5
    assert [line.split()[-1] for line in text.splitlines()[1:]] == ["yes", "NO", "yes"]


def test_sweep_bad_range_exits_2():
    code, _ = run_cli("sweep", "5", "2")
    assert code == 2


def test_sweep_csv_round_trip():
    code, text = run_cli("sweep", "1", "5", "--format", "csv")
    assert code == 0
    lines = text.strip().split("\n")
    assert lines[0] == "d,posterior,formula,match"
    d7 = dict(line.split(",")[0:2] for line in lines[1:])
    assert d7["3"] == "5/11"


def test_sweep_over_budget_exits_2_before_enumerating(capsys):
    code, text = run_cli("sweep", "1", "708")
    assert code == 2
    assert text == ""
    assert "exceeds 2,000,000 families" in capsys.readouterr().err


@pytest.mark.parametrize("d_max, admitted", [(707, True), (708, False)])
def test_sweep_budget_boundary(d_max, admitted):
    from ambiprob.cli import CliError, _check_outcome_space

    if admitted:
        _check_outcome_space(d_max, 2, "lower d_max")  # 1414^2 = 1,999,396
    else:
        with pytest.raises(CliError, match=r"\(1416\)\^2 exceeds"):
            _check_outcome_space(d_max, 2, "lower d_max")


def test_default_named_day_on_other_week_exits_4(capsys):
    path = os.path.join(PROC_DIR, "bc_tc.proc")
    code, text = run_cli("eval", path, "--say", "claim(boy,d0)", "--event", "all(boy)",
                         "--week-days", "12")
    assert code == 4
    assert text == ""
    assert "1:25: named day 'tue' requires a 7-day week" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("run", "any-answer", "--p", "3/2"),
    ("run", "bc-dn", "--children", "3"),
    ("mc", "any-answer", "--p=-1/2", "--trials", "10"),
    ("mc", "gn-tc", "--week-days", "30", "--trials", "10"),  # no default day on a 30-day week
    ("run", "bc-tc", "--day", "xyz"),
    ("run", "any-answer", "--p", "x"),
    ("run", "yesno", "--week-days", "0"),
])
def test_bad_builtin_arguments_exit_2(argv, capsys):
    code, text = run_cli(*argv)
    assert code == 2
    assert text == ""
    assert capsys.readouterr().err.startswith("ambiprob: ")


@pytest.mark.parametrize("sid, answer", [("brag", "0"), ("gn-dn", "1/2")])
def test_day_neutral_builtin_runs_on_any_week_without_a_day(sid, answer):
    code, text = run_cli("run", sid, "--week-days", "30")
    assert code == 0
    assert f"posterior = {answer}\n" in text


@pytest.mark.parametrize("argv", [
    ("run", "bc-tc", "--week-days", "30"),
    ("mc", "yesno", "--week-days", "30", "--trials", "10"),
])
def test_day_centred_builtin_asks_for_a_target_day_on_other_weeks(argv, capsys):
    assert run_cli(*argv) == (2, "")
    assert "needs a target day on a 30-day week" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ("--say", "claim(boy,wed)", "--event", "all(boy)"),
    ("--say", "yes"),
    ("--event", "all(boy)"),
])
def test_mc_builtin_target_refuses_say_and_event(flags, capsys):
    assert run_cli("mc", "bc-tc", *flags, "--trials", "10") == (2, "")
    assert "--say and --event apply to .proc targets only" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "mc"])
def test_empty_say_is_a_protocol_language_error(command, capsys):
    path = os.path.join(PROC_DIR, "bc_tc.proc")
    assert run_cli(command, path, "--say", "", "--event", "all(boy)") == (4, "")
    assert "1:1: expected a statement expression" in capsys.readouterr().err


@pytest.mark.parametrize("argv, code, message", [
    (("eval", "folder.proc", "--say", "yes", "--event", "all(boy)"), 2, "Is a directory"),
    (("mc", "folder.proc", "--say", "yes", "--event", "all(boy)"), 2, "Is a directory"),
    (("eval", "latin1.proc", "--say", "yes", "--event", "all(boy)"), 4, "can't decode"),
    (("mc", "bc-tc", "--seed", "-1", "--trials", "10"), 2, "must be >= 0"),
    (("eval", "empty.proc", "--say", "yes", "--event", "all(boy)"), 3, "no family in the support"),
    (("mc", "rare.proc", "--say", "yes", "--event", "all(boy)", "--trials", "1"), 6,
     "consecutive draws without a statement match"),
])
def test_unreadable_proc_or_negative_seed_exits_cleanly(argv, code, message, tmp_path,
                                                       monkeypatch, capsys):
    (tmp_path / "folder.proc").mkdir()
    (tmp_path / "latin1.proc").write_bytes(b'procedure p { say text("\xff"); }\n')
    (tmp_path / "empty.proc").write_text("procedure p { require count(boy) >= 3; say yes; }\n")
    # one statement match in 10^12 draws: the 10^7 redraw cap runs out first,
    # on the two-draw path (196 families x 10^12 exceed the code table's bound)
    (tmp_path / "rare.proc").write_text(
        "procedure p { flip 1/1000000000000 { say yes; } else { reject; } }\n")
    monkeypatch.chdir(tmp_path)
    assert run_cli(*argv) == (code, "")
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("eval", os.path.join(PROC_DIR, "bc_tc.proc"), "--say", "claim(boy,wed)",
     "--event", "all(boy)", "--day", "wed"),
    ("eval", os.path.join(PROC_DIR, "any_answer.proc"), "--say", "atleastone(boy)",
     "--event", "all(boy)", "--p", "1/3"),
    ("mc", "bc-tc", "--trials", "10", "--decimal"),
])
def test_options_a_command_would_ignore_exit_2(argv, capsys):
    assert run_cli(*argv) == (2, "")
    assert "unrecognized arguments" in capsys.readouterr().err


NOT_3000 = "not " * 3000 + "all(boy)"
DEEP_EVENT = "event is nested too deeply to compile"
DEEP_PROC = "{proc} is nested too deeply to compile"


@pytest.mark.parametrize("command, body, event, message", [
    ("eval", "say yes;", NOT_3000, DEEP_EVENT),
    ("mc", "say yes;", NOT_3000, DEEP_EVENT),
    ("eval", "if all(boy) { " * 2000 + "say yes; " + "} " * 2000, "all(boy)", DEEP_PROC),
    # recurses through the lowered closure chain, not the parser
    ("eval", "if all(boy) { } " * 1200 + "say yes;", "all(boy)", DEEP_PROC),
], ids=["eval-not-3000", "mc-not-3000", "eval-nested-if-2000", "eval-if-row-1200"])
def test_procedure_text_nested_too_deeply_exits_4(command, body, event, message, tmp_path,
                                                  capsys):
    proc = tmp_path / "p.proc"
    proc.write_text(f"procedure p {{\n{body}\n}}\n")
    trials = ("--trials", "10") if command == "mc" else ()
    assert run_cli(command, str(proc), "--say", "yes", "--event", event, *trials) == (4, "")
    # the message names the input that is too deep
    assert capsys.readouterr().err == f"ambiprob: {message.format(proc=proc)}\n"


def _chain(terms, op, length):
    """`length` terms, cycling through `terms`, joined by `op`."""
    return f" {op} ".join(itertools.islice(itertools.cycle(terms), length))


# A chain is one node however long it is, so its length is not depth: each
# chain gives the answer of its first 900 terms, a length that compiled even
# while the parser folded a chain into a tree as deep as it was long.
@pytest.mark.parametrize("op, terms", [("and", ("exists(boy)", "not exists(girl, mon)")),
                                       ("or", ("all(girl)", "exists(boy, sun)"))],
                         ids=["and", "or"])
@pytest.mark.parametrize("command", ["eval", "mc"])
def test_a_flat_chain_of_any_length_gives_the_answer_of_its_cut(command, op, terms, tmp_path):
    proc = tmp_path / "p.proc"
    proc.write_text("procedure p {\n  pick c;\n"
                    "  if sex(c) = boy { say claim(boy, day(c)); } else { say yes; }\n}\n")
    trials = ("--trials", "200") if command == "mc" else ()
    cut, full = (run_cli(command, str(proc), "--say", "yes", "--event", _chain(terms, op, n),
                         *trials) for n in (900, 100_000))
    assert cut[0] == 0 and ("posterior" if command == "eval" else "estimate") in cut[1]
    assert full == cut


def test_a_procedure_with_long_chains_gives_the_answer_of_its_cut(tmp_path):
    def run(n):
        proc = tmp_path / f"p{n}.proc"
        proc.write_text(
            f"procedure p {{\n  require {_chain(('exists(boy, tue)', 'count(girl) >= 2'), 'or', n)};\n"
            f"  pick c;\n  if {_chain(('sex(c) = boy', 'not day(c) = mon'), 'and', n)} "
            "{ say claim(boy, day(c)); } else { say yes; }\n}\n")
        return run_cli("eval", str(proc), "--say", "yes", "--event", "exists(girl)")

    cut, full = run(900), run(10_000)
    assert cut[0] == 0 and "posterior" in cut[1]
    assert full == cut


def _subclasses(kind):
    for sub in kind.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_error_falls_under_exactly_one_exit_code_row():
    for kind in {*_subclasses(AmbiprobError), *EXIT_CODES}:
        rows = [row for row in EXIT_CODES if issubclass(kind, row)]
        assert len(rows) == 1, (kind, rows)
    # mc samples a denominator past int64 exactly (`mc._Wide`), so no
    # OverflowError reaches the CLI and the table needs no row for it
    assert not any(issubclass(OverflowError, row) for row in EXIT_CODES)


def test_mc_of_a_vanishing_statement_exits_6_on_one_line(tmp_path, capsys):
    # P(yes) = 1e-9 per draw: the first run of misses passes the redraw cap of
    # 10,000,000 draws at the end of its 611th block of 2^14 without a match
    proc = tmp_path / "rare.proc"
    proc.write_text("procedure p { flip 1/1000000000 { say yes; } else { reject; } }\n")
    assert run_cli("mc", str(proc), "--say", "yes", "--event", "all(boy)") == (6, "")
    assert capsys.readouterr().err == (
        "ambiprob: 10010624 consecutive draws without a statement match (cap exceeded); "
        "statement mass is zero or vanishingly small\n")


def test_usage_error_prints_one_complete_line(capsys):
    assert run_cli("run", "bc-tc", "--day", "xyz") == (2, "")
    assert capsys.readouterr().err == "ambiprob: invalid day 'xyz' for a 7-day week\n"


@pytest.mark.parametrize("argv, message", [
    ((), "the following arguments are required: command"),
    (("walk",), "argument command: invalid choice: 'walk' "
                "(choose from 'list', 'run', 'eval', 'mc', 'sweep')"),
    (("run", "bc-tc", "--bogus"), "unrecognized arguments: --bogus"),
    (("mc", "bc-tc", "--trials"), "argument --trials: expected one argument"),
    (("run", "bc-tc", "--week-days", "seven"), "argument --week-days: invalid int value: 'seven'"),
    (("mc", "bc-tc", "--trials", "many"), "argument --trials: invalid int value: 'many'"),
    (("sweep", "1", "x"), "argument d_max: invalid int value: 'x'"),
    (("mc", "bc-tc", "--trials", "0"), "argument --trials: must be >= 1, got 0"),
    (("mc", "bc-tc", "--seed", "-1"), "argument --seed: must be >= 0, got -1"),
    (("run", "bc-tc", "--format", "xml"),
     "argument --format: invalid choice: 'xml' (choose from 'table', 'csv', 'json')"),
    (("eval", "p.proc", "--event", "all(boy)"), "the following arguments are required: --say"),
    (("eval", "p.proc"), "the following arguments are required: --say, --event"),
    (("sweep", "3"), "the following arguments are required: d_max"),
    (("mc", "bc-tc", "--s", "3"), "ambiguous option: --s could match --say, --seed, --shards"),
])
def test_every_usage_error_is_one_line(argv, message, capsys):
    assert run_cli(*argv) == (2, "")
    assert capsys.readouterr().err == f"ambiprob: {message}\n"


FLAGS = {
    "list": ["--format"],
    "run": ["--format", "--week-days", "--children", "--day", "--p", "--decimal"],
    "eval": ["--format", "--say", "--event", "--week-days", "--children", "--decimal"],
    "mc": ["--format", "--say", "--event", "--trials", "--seed", "--shards", "--week-days",
           "--children", "--day", "--p"],
    "sweep": ["--format"],
}


@pytest.mark.parametrize("flag", ["-h", "--help"])
@pytest.mark.parametrize("command", [None, *FLAGS])
def test_help_names_every_flag_and_exits_0(command, flag, capsys):
    code, text = run_cli(*[command] * (command is not None), flag)
    assert (code, capsys.readouterr().err) == (0, "")
    assert text.startswith("usage: ambiprob ")
    # the program's own help is the help of every command
    names = [*FLAGS, *itertools.chain(*FLAGS.values())] if command is None else FLAGS[command]
    assert [name for name in [flag, *names] if name not in text] == []
    assert set(FLAGS) == set(COMMANDS)


@pytest.mark.parametrize("argv", [
    ("run", "gn-dn", "--week-days=30"),
    ("run", "gn-dn", "--week", "30"),
    ("run", "--week-days", "30", "--", "gn-dn"),
    ("run", "gn-dn", "--week-days", "7", "--week-days", "30"),
])
def test_argparse_spellings_still_read_as_argparse_read_them(argv):
    assert run_cli(*argv) == run_cli("run", "gn-dn", "--week-days", "30")


def test_repeated_format_keeps_the_last():
    want = run_cli("run", "bc-tc", "--format", "csv")
    assert want[0] == 0 and want[1].startswith("family,prior")
    assert run_cli("run", "bc-tc", "--format", "json", "--format", "csv") == want


def test_unbound_variable_before_a_syntax_error_exits_4(tmp_path, capsys):
    proc = tmp_path / "p.proc"
    proc.write_text("procedure p {\n  if sex(c) = boy { say yes; }\n  say\n}\n")
    assert run_cli("eval", str(proc), "--say", "yes", "--event", "all(boy)") == (4, "")
    assert "2:3: variable 'c' is not bound by a pick" in capsys.readouterr().err


def test_zero_mass_names_the_statement_as_the_language_writes_it(capsys):
    path = os.path.join(PROC_DIR, "gn_dn.proc")
    code, _ = run_cli("eval", path, "--say", "claim(boy)", "--event", "all(boy)")
    assert code == 3
    assert capsys.readouterr().err == (
        "ambiprob: statement claim(boy) is never emitted under this protocol\n"
    )


def test_main_calls_stay_independent_and_import_no_argparse(capsys):
    # each call writes what it writes in a process of its own
    calls = (["run", "bc-tc", "--decimal"], ["run", "bc-tc", "--bogus"], ["run", "bc-tc"])
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ambiprob.__file__)))
    alone = [
        subprocess.run([sys.executable, "-m", "ambiprob.cli", *argv],
                       capture_output=True, text=True, env=env, timeout=120)
        for argv in calls
    ]
    assert [p.returncode for p in alone] == [0, 2, 0]
    for argv, p in zip(calls, alone):
        code = main(argv)
        got = capsys.readouterr()
        assert (code, got.out, got.err) == (p.returncode, p.stdout, p.stderr)

    # argv is read from the table, so neither the import nor a usage error
    # loads argparse
    probe = ("import sys; from ambiprob import cli; cli.main(['run', 'bc-tc', '--bogus']); "
             "sys.exit('argparse' in sys.modules)")
    p = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env,
                       timeout=120)
    assert (p.returncode, p.stderr) == (0, "ambiprob: unrecognized arguments: --bogus\n")


def _generic_report(argv, fmt, decimal):
    """The report as the generic writers lay it out from the materialized case
    rows: `_emit_rows`' column padding, `csv.writer` or `json.dumps`."""
    cfg = WorldConfig(int(argv[argv.index("--week-days") + 1]) if "--week-days" in argv else 7,
                      int(argv[argv.index("--children") + 1]) if "--children" in argv else 2)
    args = parse_args(argv)
    rep = posterior(*_target(args, cfg, builtin=args.command == "run"))
    stmt = render_statement(rep.statement, cfg)
    cells = [(family_str(r.family), str(r.prior), str(r.emission), "1" if r.event else "0")
             for r in tuple(rep.case_table)]
    header = ["family", "prior", "emission", "event"]
    out = io.StringIO()
    if fmt == "json":
        payload = {"statement": stmt, "statement_mass": str(rep.statement_mass),
                   "joint_mass": str(rep.joint_mass), "posterior": str(rep.posterior),
                   "cases": [{"family": f, "prior": p, "emission": e, "event": ev == "1"}
                             for f, p, e, ev in cells]}
        if decimal:
            payload["posterior_decimal"] = float(rep.posterior)
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "csv":
        summary = [("statement", stmt), ("statement_mass", rep.statement_mass),
                   ("joint_mass", rep.joint_mass), ("posterior", rep.posterior)]
        if decimal:
            summary.append(("posterior_decimal", json.dumps(float(rep.posterior))))
        csv.writer(out, lineterminator="\n").writerows([header, *cells, *summary])
        return out.getvalue()
    _emit_rows(header, cells, "table", out)
    out.write(f"statement = {stmt}\n")
    for name, value in [("statement mass", rep.statement_mass), ("joint mass", rep.joint_mass),
                        ("posterior", rep.posterior)]:
        out.write(f"{name} = {value}" + (f" (~{float(value):.6f})" if decimal else "") + "\n")
    return out.getvalue()


@pytest.mark.parametrize("decimal", [(), ("--decimal",)])
@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
@pytest.mark.parametrize("argv", [
    ("run", "classic-coinflip", "--week-days", "100"),  # 30,000 case rows
    # one child: the family field holds no comma, so csv leaves it unquoted
    ("eval", os.path.join(PROC_DIR, "classic_coinflip.proc"), "--say", "atleastone(boy)",
     "--event", "exists(d3) or all(boy)", "--children", "1", "--week-days", "12"),
    ("eval", os.path.join(PROC_DIR, "bc_tc.proc"), "--say", "claim(boy,tue)",
     "--event", "count(boy) >= 2 and not exists(girl,d5)", "--children", "3"),
    # labels 3 and 4 characters wide, so one prefix vector pads its tails two
    # ways; the event tests a day, which refines the classes
    ("eval", os.path.join(PROC_DIR, "bc_dn.proc"), "--say", "claim(boy,d1)",
     "--event", "exists(girl,d10) or all(boy)", "--children", "3", "--week-days", "12"),
    ("eval", os.path.join(PROC_DIR, "gn_dn.proc"), "--say", "claim(boy,d3)",
     "--event", "all(boy)", "--children", "4", "--week-days", "11"),
])
def test_case_writers_write_the_generic_layout_byte_for_byte(argv, fmt, decimal):
    argv = [*argv, "--format", fmt, *decimal]
    code, text = run_cli(*argv)
    assert code == 0
    _assert_same_lines(text, _generic_report(argv, fmt, bool(decimal)))


def _assert_same_lines(text, want):
    """`text == want`, reporting the first lines that differ: pytest's own
    diff of two reports of 30,000 rows runs for minutes."""
    got, want = text.splitlines(keepends=True), want.splitlines(keepends=True)
    assert [pair for pair in zip(got, want) if pair[0] != pair[1]][:3] == []
    assert len(got) == len(want)


def test_case_writer_pads_166531_rows_at_n5_as_the_generic_table():
    argv = ["eval", os.path.join(PROC_DIR, "gn_dn.proc"), "--children", "5",
            "--say", "claim(boy,tue)", "--event", "all(boy)", "--format", "table"]
    code, text = run_cli(*argv)
    assert code == 0
    assert text.count("\n") == 166_536  # header, rows, four summary lines
    _assert_same_lines(text, _generic_report(argv, "table", False))


def _per_row_writer(table, head, suffix, out, sep="", width=0):
    """The case rows as they were written before a prefix at a time: each
    family's labels joined and padded on its own, a thousand rows a write."""
    cfg = table.config
    grow = table.prefix_tree(tuple(family_str((c,)) for c in week_children(cfg)))
    rows = [((), ())]
    for _ in range(cfg.family_size):
        rows = ((q, f + (c,)) for p, f in rows for c, q in grow.get(p, ()))
    lead = ""
    while batch := list(itertools.islice(rows, 1000)):
        out.write(lead + sep.join([head + ",".join(f).ljust(width) + suffix[vec]
                                   for vec, f in batch]))
        lead = sep


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
@pytest.mark.parametrize("children", [3, 4])
@pytest.mark.parametrize("proc, say, event", [
    ("gn_dn", "claim(boy,tue)", "all(boy)"),
    # a girl born on a Wednesday is a class of her own: the prefixes of her
    # alone hold no shared class and are written a child later
    ("classic_coinflip", "atleastone(boy)", "exists(girl,wed) or count(boy) >= 2"),
])
def test_case_writer_writes_the_per_row_bytes_where_classes_are_shared(proc, say, event,
                                                                        children, fmt,
                                                                        monkeypatch):
    argv = ["eval", os.path.join(PROC_DIR, f"{proc}.proc"), "--say", say, "--event", event,
            "--children", str(children), "--format", fmt]
    mine = run_cli(*argv)
    monkeypatch.setattr(cli, "_write_cases", _per_row_writer)
    per_row = run_cli(*argv)
    assert mine[0] == per_row[0] == 0
    _assert_same_lines(mine[1], per_row[1])


def _assert_own_classes_write_as_per_row(children, d, fmt, monkeypatch):
    """With an event that tests every day, so each child is a class of its
    own, the writer writes the per-row bytes and peaks no higher."""
    argv = ["eval", os.path.join(PROC_DIR, "classic_coinflip.proc"), "--say", "atleastone(boy)",
            "--event", " or ".join(f"exists(d{k})" for k in range(d)),
            "--week-days", str(d), "--children", str(children), "--format", fmt]
    args = parse_args(argv)
    cfg = WorldConfig(d, children)
    rep = posterior(*_target(args, cfg, builtin=False))
    assert len(set(rep.case_table.child_class)) == 2 * d

    def peak():
        out = io.StringIO()
        tracemalloc.start()
        try:
            cli._print_report(rep, cfg, args, out)
            return tracemalloc.get_traced_memory()[1], out.getvalue()
        finally:
            tracemalloc.stop()

    peak()  # anything a first report caches
    mine = peak()
    monkeypatch.setattr(cli, "_write_cases", _per_row_writer)
    per_row = peak()
    assert mine[1] == per_row[1], "the writers wrote different bytes"
    # both peak while the prefix tree is built (4.4 MB at n=2, d=60); keeping
    # every list would add 0.5 to 1.2 MB there, and the allocator's noise is a
    # few hundred bytes
    assert mine[0] <= per_row[0] + 4096, (mine[0], per_row[0])


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_case_writer_keeps_no_tails_when_every_child_is_its_own_class(fmt, monkeypatch):
    # no prefix vector repeats, so a kept tail would never be read again
    _assert_own_classes_write_as_per_row(2, 60, fmt, monkeypatch)


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_case_writer_writes_a_child_later_when_every_child_is_its_own_class(fmt, monkeypatch):
    # no one-child prefix holds a shared class, so the rows are written one
    # join per two-child prefix and no list is kept
    _assert_own_classes_write_as_per_row(3, 8, fmt, monkeypatch)
