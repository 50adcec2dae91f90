import argparse
import csv
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import ambiprob
from ambiprob import dsl
from ambiprob.cli import main
from ambiprob.engine import render_statement
from ambiprob.model import WorldConfig
from ambiprob.scenarios import sweep_formula

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
    assert payload["statement"] == "text('a\"\u00e9')"
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


def test_mc_pass_and_determinism():
    code1, text1 = run_cli("mc", "bc-tc", "--trials", "50000", "--seed", "42")
    code2, text2 = run_cli("mc", "bc-tc", "--trials", "50000", "--seed", "42")
    assert code1 == code2 == 0
    assert text1 == text2
    assert "PASS" in text1


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
    ("mc", "gn-tc", "--week-days", "30", "--trials", "10"),  # default day tue
])
def test_bad_builtin_arguments_exit_2(argv, capsys):
    code, text = run_cli(*argv)
    assert code == 2
    assert text == ""
    assert capsys.readouterr().err.startswith("ambiprob: ")


@pytest.mark.parametrize("argv, code, message", [
    (("eval", "folder.proc", "--say", "yes", "--event", "all(boy)"), 2, "Is a directory"),
    (("mc", "folder.proc", "--say", "yes", "--event", "all(boy)"), 2, "Is a directory"),
    (("eval", "latin1.proc", "--say", "yes", "--event", "all(boy)"), 4, "can't decode"),
    (("mc", "bc-tc", "--seed", "-1", "--trials", "10"), 2, "must be >= 0"),
])
def test_unreadable_proc_or_negative_seed_exits_cleanly(argv, code, message, tmp_path,
                                                       monkeypatch, capsys):
    (tmp_path / "folder.proc").mkdir()
    (tmp_path / "latin1.proc").write_bytes(b'procedure p { say text("\xff"); }\n')
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


def test_main_builds_its_parser_once_and_calls_stay_independent(capsys, monkeypatch):
    # each call writes what it writes in a process of its own
    calls = (["run", "bc-tc", "--decimal"], ["run", "bc-tc", "--bogus"], ["run", "bc-tc"])
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ambiprob.__file__)))
    alone = [
        subprocess.run([sys.executable, "-m", "ambiprob.cli", *argv],
                       capture_output=True, text=True, env=env, timeout=120)
        for argv in calls
    ]
    assert [p.returncode for p in alone] == [0, 2, 0]

    # building the parser adds its subcommands once
    built = []

    def add_subparsers(self, real=argparse.ArgumentParser.add_subparsers, **kwargs):
        built.append(self)
        return real(self, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", add_subparsers)
    for argv, p in zip(calls, alone):
        code = main(argv)
        got = capsys.readouterr()
        assert (code, got.out, got.err) == (p.returncode, p.stdout, p.stderr)
    assert len(built) <= 1
