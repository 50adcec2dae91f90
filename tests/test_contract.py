"""The CLI's exit-code contract over generated input.

Procedure text from `test_dsl._procedures`, mutated a token at a time, is run
by `eval` or `mc` in-process with `--say`, `--event` and extra arguments drawn
from valid and broken values. Whatever the input, `cli.main` raises nothing and
returns 0, 2, 3, 4, 5 or 6. An error exit writes nothing on stdout and exactly
one stderr line that is not a warning, and it starts with `ambiprob: `; exit 0
writes warnings only, and exit 5 is a FAIL verdict on stdout, with no error
line.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambiprob import dsl
from ambiprob.cli import main
from test_dsl import _procedures

# Tokens a mutation inserts or puts in place of another: keywords, punctuation,
# sex and day words, and flip literals, whose denominators pass int32 and int64
# in the last two.
_VOCABULARY = (
    "procedure", "p", "require", "pick", "where", "if", "else", "flip", "say", "reject",
    "day", "prob", "exists", "all", "count", "sex", "and", "or", "not", "claim",
    "atleastone", "twoofakind", "proudof", "yes", "no", "text", '"t"', "v0", "v1", "D", "P",
    "{", "}", "(", ")", ";", ",", "=", "<", ">", "<=", ">=", "/",
    "boy", "girl", "d0", "d1", "d2", "d9", "tue",
    "0", "1", "2", "1/2", "3/2", "1/999983", "1/4294967311", "2/18446744073709551629",
)

_SAYS = (
    "claim(boy)", "claim(girl, d0)", "claim(boy,d1)", "atleastone(boy)", "twoofakind(girl)",
    "proudof(boy)", "yes", "no", 'text("t")',
    "", "claim(", "claim(boy, d9)", "claim(boy,tue)", "maybe", "text(t)", "yes; no", "claim(dog)",
)
_EVENTS = (
    "all(boy)", "exists(girl)", "exists(boy, d0)", "count(boy) >= 1", "not all(girl)",
    "all(boy) and exists(d1)", "all(girl) or exists(boy, d0)",
    "", "all(", "exists(boy, d9)", "count(boy) >=", "sex(v0) = boy", "all(dog)", "all(boy) and",
)
_EXTRAS = (
    ("--day", "wed"), ("--p", "1/3"), ("--seed", "-1"), ("--seed", "7"), ("--trials", "0"),
    ("--trials", "20"), ("--shards", "0"), ("--shards", "2"), ("--format=xml",),
    ("--format", "json"), ("--tri=5",), ("--",), ("-h",), ("--decimal",), ("--children", "2"),
    ("--week-days", "0"), ("--week-days", "2"), ("--bogus",), ("extra",), ("--say",),
)


@st.composite
def _mutated(draw):
    """A generated procedure's text after 0-3 token mutations, and its world."""
    source, cfg, _ = draw(_procedures())
    tokens = [t.text for t in dsl.tokenize(source)[:-1]]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(tokens)))
        kind = draw(st.sampled_from(("delete", "duplicate", "replace", "insert")))
        if kind == "insert" or i == len(tokens):
            tokens.insert(i, draw(st.sampled_from(_VOCABULARY)))
        elif kind == "delete":
            del tokens[i]
        elif kind == "duplicate":
            tokens.insert(i, tokens[i])
        else:
            tokens[i] = draw(st.sampled_from(_VOCABULARY))
    return " ".join(tokens), cfg


@st.composite
def _invocations(draw):
    """The procedure text and argv for one in-process run; argv names the
    file as {proc}."""
    text, cfg = draw(_mutated())
    command = draw(st.sampled_from(("eval", "mc")))
    argv = [command, "{proc}", "--say", draw(st.sampled_from(_SAYS)),
            "--event", draw(st.sampled_from(_EVENTS)),
            "--week-days", str(cfg.week_length), "--children", str(cfg.family_size),
            "--format", draw(st.sampled_from(("table", "csv", "json")))]
    if command == "mc":
        argv += ["--trials", draw(st.sampled_from(("1", "50", "200"))),
                 "--shards", draw(st.sampled_from(("1", "3")))]
    for extra in draw(st.lists(st.sampled_from(_EXTRAS), max_size=3)):
        argv += extra
    return text, argv


@pytest.fixture(scope="module")
def proc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("contract") / "p.proc"


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_invocations())
def test_every_generated_input_keeps_the_exit_code_contract(proc_path, case):
    text, argv = case
    proc_path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([str(proc_path) if a == "{proc}" else a for a in argv], out=out)
    assert code in (0, 2, 3, 4, 5, 6)
    errors = [line for line in err.getvalue().splitlines()
              if not line.startswith("ambiprob: warning: ")]
    if code in (0, 5):
        assert errors == []
        assert (code == 5) == ("FAIL" in out.getvalue())
    else:
        assert len(errors) == 1 and errors[0].startswith("ambiprob: "), errors
        assert out.getvalue() == ""
