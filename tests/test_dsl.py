import glob
import itertools
import os
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambiprob import dsl, mc
from ambiprob.dsl import (
    DslWarning,
    PAll,
    PExists,
    compile_protocol,
    load_protocol,
    parse,
    parse_event_text,
    parse_statement_text,
    pred_to_query,
    render,
)
from ambiprob.engine import (
    REJECT, AtLeastOne, Claim, ProtocolKernel, ProudOf, Text, TwoOfAKind, YesNo, marginal,
    posterior, render_statement, validate_kernel,
)
from ambiprob.errors import (
    DayOutOfRange,
    DslError,
    DslSyntaxError,
    EmptyPick,
    InvalidFlipProbability,
    InvalidProbability,
    UnboundVariable,
)
from ambiprob.model import (
    AllMatch, And, CountAtLeast, Exists, Not, Sex, WorldConfig, enumerate_families, eval_query,
    family_str,
)
from ambiprob.scenarios import build_scenario
from test_golden import builtin_digest_matches

TUE = 1
CFG = WorldConfig(7, 2)
PROC_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "ambiprob", "procs")

PROC_TO_ID = {
    "classic_selection": "classic-selection",
    "classic_coinflip": "classic-coinflip",
    "brag": "brag",
    "deemphasize": "deemphasize",
    "gn_dn": "gn-dn",
    "bc_dn": "bc-dn",
    "bc_tc": "bc-tc",
    "gn_tc": "gn-tc",
    "yesno": "yesno",
    "any_answer": "any-answer",
}


def proc_files():
    return sorted(glob.glob(os.path.join(PROC_DIR, "*.proc")))


def test_all_ten_builtin_files_present():
    names = {os.path.splitext(os.path.basename(p))[0] for p in proc_files()}
    assert names == set(PROC_TO_ID)


def test_parse_reference_gn_dn():
    src = "procedure gn_dn {\n  pick c;\n  say claim(sex(c), day(c));\n}\n"
    ast = parse(src)
    assert ast.name == "gn_dn"
    assert len(ast.body) == 2
    assert render(ast) == src


@pytest.mark.parametrize("path", proc_files(), ids=os.path.basename)
def test_round_trip_builtin_files(path):
    with open(path) as fh:
        ast = parse(fh.read())
    assert parse(render(ast)) == ast


@pytest.mark.parametrize("path", proc_files(), ids=os.path.basename)
def test_builtin_files_compile_to_constructor_kernels(path):
    # The hand-built constructors are gone; their kernels live on as the
    # `builtin:` golden digests, which include (d=7, day=1, p=13/27).
    sid = PROC_TO_ID[os.path.splitext(os.path.basename(path))[0]]
    with open(path) as fh:
        kernel = compile_protocol(parse(fh.read()), CFG)
    assert kernel == build_scenario(sid, CFG, day=TUE, p=Fraction(13, 27)).kernel
    assert builtin_digest_matches(sid, 7)


def test_compiled_bc_tc_posterior():
    with open(os.path.join(PROC_DIR, "bc_tc.proc")) as fh:
        kernel = compile_protocol(parse(fh.read()), CFG)
    rep = posterior(kernel, Claim(Sex.BOY, TUE), AllMatch(sex=Sex.BOY))
    assert rep.posterior == Fraction(13, 27)


def test_syntax_error_carries_position():
    with pytest.raises(DslSyntaxError) as exc:
        parse("procedure p {\n  say yes\n}\n")
    assert "3:1" in str(exc.value)


def test_unexpected_character():
    with pytest.raises(DslSyntaxError):
        parse("procedure p { say yes; } $")


def test_unbound_variable():
    with pytest.raises(UnboundVariable):
        parse("procedure p { say claim(sex(x), day(x)); }")


def test_variable_scope_does_not_escape_block():
    src = """
    procedure p {
      if exists(boy) {
        pick c where sex(c)=boy;
        say claim(sex(c));
      }
      say claim(sex(c));
    }
    """
    with pytest.raises(UnboundVariable):
        parse(src)


def test_unbound_variable_in_if_carries_span():
    with pytest.raises(UnboundVariable) as info:
        parse("procedure p {\n  if sex(c) = boy { say yes; } else { say no; }\n}")
    assert "2:3: variable 'c' is not bound by a pick" in str(info.value)
    assert (info.value.span.line, info.value.span.column) == (2, 3)


@pytest.mark.parametrize("src, where", [
    ("procedure p {\n  say yes; say claim(sex(c));\n}", "2:12"),
    ("procedure p {\n  require exists(boy);\n  require sex(c) = boy;\n  say yes;\n}", "3:3"),
])
def test_unbound_variable_carries_the_span_of_its_statement(src, where):
    with pytest.raises(UnboundVariable) as info:
        parse(src)
    assert f"{where}: variable 'c' is not bound by a pick" in str(info.value)


def test_and_or_not_are_the_engine_combinators():
    (branch,) = parse("procedure p { if exists(boy) and not all(girl) { say yes; } }").body
    assert branch.pred == And(PExists(Sex.BOY), Not(PAll(Sex.GIRL)))


def test_non_utf8_file_is_a_syntax_error_with_a_position(tmp_path):
    path = tmp_path / "latin1.proc"
    path.write_bytes(b'procedure p { say text("\xff"); }\n')
    with pytest.raises(DslSyntaxError) as info:
        load_protocol(path, CFG)
    assert (info.value.span.line, info.value.span.column) == (1, 25)
    assert f"{path} is not UTF-8: can't decode byte 0xff" in str(info.value)


def test_day_out_of_range_carries_span():
    ast = parse("procedure p {\n  require exists(boy, d40);\n  say yes;\n}")
    with pytest.raises(DslSyntaxError) as info:
        compile_protocol(ast, CFG)
    assert "2:23: day 40 out of range for d=7" in str(info.value)


def test_named_day_on_other_week_carries_span():
    ast = parse("procedure p {\n  pick c;\n  say claim(sex(c), tue);\n}")
    with pytest.raises(DslSyntaxError) as info:
        compile_protocol(ast, WorldConfig(3, 2))
    assert (info.value.span.line, info.value.span.column) == (3, 21)
    assert "named day 'tue' requires a 7-day week" in str(info.value)


def test_bad_day_in_unreached_branch_is_an_error():
    # every day literal is resolved while lowering, reached or not
    ast = parse("procedure p { if count(boy) > 5 { say claim(boy, d40); } else { say yes; } }")
    with pytest.raises(DslSyntaxError, match="day 40 out of range"):
        compile_protocol(ast, CFG)


def test_inner_pick_does_not_clobber_outer_variable():
    src = """
    procedure p {
      pick c;
      if exists(girl) {
        pick c where sex(c)=girl;
        if sex(c)=boy { reject; }
      }
      say claim(sex(c), day(c));
    }
    """
    cfg = WorldConfig(2, 2)
    gn_dn = load_protocol(os.path.join(PROC_DIR, "gn_dn.proc"), cfg)
    assert compile_protocol(parse(src), cfg).rows == gn_dn.rows


def test_require_must_come_first():
    with pytest.raises(DslSyntaxError):
        parse("procedure p { say yes; require exists(boy); }")


def test_require_rejects_child_tests():
    with pytest.raises(UnboundVariable):
        parse("procedure p { require sex(c)=boy; say yes; }")


def test_flip_probability_range():
    with pytest.raises(InvalidProbability):
        parse("procedure p { flip 3/2 { say yes; } else { say no; } }")


def test_flip_probability_error_carries_span():
    with pytest.raises(DslError) as info:
        parse("procedure p {\n  say yes;\n  flip 2 { say yes; } else { say no; }\n}")
    assert isinstance(info.value, InvalidProbability)
    assert (info.value.span.line, info.value.span.column) == (3, 3)


def test_fall_through_is_reject_with_warning():
    src = "procedure p { if all(boy) { say atleastone(boy); } }"
    with pytest.warns(DslWarning):
        kernel = compile_protocol(parse(src), CFG)
    m = marginal(kernel)
    assert m[AtLeastOne(Sex.BOY)] == Fraction(1, 4)
    assert m[REJECT] == Fraction(3, 4)


def test_explicit_reject_silences_warning():
    src = "procedure p { if all(boy) { say atleastone(boy); } else { reject; } }"
    with warnings.catch_warnings():
        warnings.simplefilter("error", DslWarning)
        compile_protocol(parse(src), CFG)


def test_empty_pick_is_a_diagnostic():
    src = "procedure p { pick c where sex(c)=boy; say claim(sex(c)); }"
    with pytest.raises(EmptyPick) as exc:
        compile_protocol(parse(src), CFG)
    assert len(exc.value.families) == 49  # the all-girl families


@pytest.mark.parametrize(
    "src, cfg, n_failed",
    [
        # the first pick branches into two paths per family, both reaching
        # the failing pick
        ("procedure p { pick a; pick c where sex(c)=boy; say yes; }", CFG, 49),
        ("procedure p { flip 1/2 { pick c where sex(c)=boy; say yes; }"
         " else { pick c where sex(c)=boy; say no; } }", WorldConfig(1, 2), 1),
    ],
    ids=["pick-before-pick", "pick-in-each-flip-branch"],
)
def test_empty_pick_counts_each_family_once(src, cfg, n_failed):
    with pytest.raises(EmptyPick) as exc:
        compile_protocol(parse(src), cfg)
    families = exc.value.families
    assert len(families) == len(set(families)) == n_failed
    assert f"no child in {n_failed} reachable families" in str(exc.value)
    shown = str(exc.value).split("(e.g. ")[1].split(")")[0].split(", ")
    assert len(shown) == len(set(shown)) == min(n_failed, 5)
    # the span is the first pick that failed
    first = src.index("pick c")
    assert (exc.value.span.line, exc.value.span.column) == (1, first + 1)


def test_constant_flip_marginal():
    src = "procedure p { flip 1/3 { say yes; } else { say no; } }"
    kernel = compile_protocol(parse(src), CFG)
    m = marginal(kernel)
    from ambiprob.engine import YesNo

    assert m[YesNo(True)] == Fraction(1, 3)
    assert m[YesNo(False)] == Fraction(2, 3)


def test_flip_symmetry():
    a = compile_protocol(
        parse("procedure p { flip 1/3 { say yes; } else { say no; } }"), CFG
    )
    b = compile_protocol(
        parse("procedure p { flip 2/3 { say no; } else { say yes; } }"), CFG
    )
    assert a == b


def test_pick_uniformity():
    src = "procedure p { pick c; say claim(sex(c), day(c)); }"
    kernel = compile_protocol(parse(src), CFG)
    for f, row in kernel.rows.items():
        k = len({(c.sex, c.day) for c in f})
        if k == 2:
            assert all(w == Fraction(1, 2) for w in row.values())
        else:
            assert row[Claim(f[0].sex, f[0].day)] == 1


def test_per_family_weights_account_for_all_paths():
    src = """
    procedure p {
      flip 1/4 {
        pick c;
        say claim(sex(c));
      } else {
        flip 1/2 { reject; } else { say text("fallback"); }
      }
    }
    """
    kernel = compile_protocol(parse(src), CFG)
    for row in kernel.rows.values():
        total = sum(row.values(), Fraction(0))
        assert total == Fraction(1, 4) + Fraction(3, 8)  # reject mass 3/8


def test_named_days_require_seven_day_week():
    src = "procedure p { require exists(boy, tue); say yes; }"
    compile_protocol(parse(src), CFG)
    with pytest.raises(DslSyntaxError):
        compile_protocol(parse(src), WorldConfig(3, 2))
    numeric = "procedure p { require exists(boy, d2); say yes; }"
    compile_protocol(parse(numeric), WorldConfig(3, 2))
    with pytest.raises(DslSyntaxError):
        compile_protocol(parse(numeric), WorldConfig(2, 2))


def test_render_normalizes_rationals():
    src = "procedure p { flip 2/4 { say yes; } else { say no; } }"
    assert "flip 1/2" in render(parse(src))


def test_render_preserves_nesting():
    src = """
    procedure p {
      if exists(boy) {
        flip 1/2 {
          if all(boy) { say yes; } else { say no; }
        } else {
          reject;
        }
      } else {
        reject;
      }
    }
    """
    ast = parse(src)
    assert parse(render(ast)) == ast


def test_pred_precedence_round_trip():
    src = "procedure p { if exists(boy) and (all(girl) or count(boy) >= 1) { say yes; } else { say no; } }"
    ast = parse(src)
    assert parse(render(ast)) == ast
    flat = "procedure p { if not all(girl) or all(boy) and exists(girl) { say yes; } else { say no; } }"
    ast2 = parse(flat)
    assert parse(render(ast2)) == ast2


def test_parse_statement_text():
    assert parse_statement_text("claim(boy,tue)", CFG) == Claim(Sex.BOY, TUE)
    assert parse_statement_text("claim(girl)", CFG) == Claim(Sex.GIRL, None)
    assert parse_statement_text('text("hello")', CFG) == Text("hello")
    with pytest.raises(UnboundVariable):
        parse_statement_text("claim(sex(c))", CFG)
    with pytest.raises(DslSyntaxError):
        parse_statement_text("claim(boy) extra", CFG)


def test_parse_event_text():
    assert parse_event_text("all(boy)", CFG) == AllMatch(sex=Sex.BOY)
    assert parse_event_text("not all(boy)", CFG) == Not(AllMatch(sex=Sex.BOY))
    assert parse_event_text("exists(boy,tue)", CFG) == Exists(Sex.BOY, TUE)
    assert parse_event_text("count(girl) >= 2", CFG) == CountAtLeast(2, Sex.GIRL)
    combined = parse_event_text("exists(boy) and not all(boy)", CFG)
    assert combined == And(Exists(Sex.BOY), Not(AllMatch(sex=Sex.BOY)))


def test_count_comparison_lowering():
    # count(boy) = 1 means exactly one boy
    q = parse_event_text("count(boy) = 1", CFG)
    from ambiprob.model import count_families

    assert count_families(CFG, q) == 98
    assert count_families(CFG, parse_event_text("count(boy) < 1", CFG)) == 49
    assert count_families(CFG, parse_event_text("count(boy) > 1", CFG)) == 49
    assert count_families(CFG, parse_event_text("count(boy) <= 1", CFG)) == 147


PARAMS_SRC = """\
procedure p(day D = d2, prob P = 1/3) {
  require exists(D) or all(girl);
  if all(D) or exists(boy, D) {
    flip P {
      pick c where day(c)=D;
      if day(c) = D and sex(c) = boy {
        say claim(sex(c), D);
      } else {
        reject;
      }
    } else {
      say yes;
    }
  } else {
    say claim(girl, D);
  }
}
"""


def _literal(day: str, prob: str):
    """PARAMS_SRC with the parameters written out as literals."""
    body = PARAMS_SRC.split("\n", 1)[1].replace("D", day).replace("P", prob)
    return parse("procedure p {\n" + body)


def test_parameters_round_trip():
    ast = parse(PARAMS_SRC)
    assert [(prm.kind, prm.name) for prm in ast.params] == [("day", "D"), ("prob", "P")]
    assert render(ast) == PARAMS_SRC
    assert parse(render(ast)) == ast


def test_parameters_bind_like_literals():
    cfg = WorldConfig(3, 2)
    ast = parse(PARAMS_SRC)
    assert compile_protocol(ast, cfg) == compile_protocol(_literal("d2", "1/3"), cfg)
    bound = compile_protocol(ast, cfg, {"D": 0, "P": Fraction(3, 4)})
    assert bound == compile_protocol(_literal("d0", "3/4"), cfg)
    assert compile_protocol(ast, cfg, {"P": 1}) == compile_protocol(_literal("d2", "1"), cfg)


def test_duplicate_parameter_is_a_syntax_error():
    with pytest.raises(DslSyntaxError) as info:
        parse("procedure p(day D = tue, prob D = 1/2) { say yes; }")
    assert "1:31: duplicate parameter 'D'" in str(info.value)


@pytest.mark.parametrize("src, use", [
    ("procedure p(day D = tue) { flip D { say yes; } else { say no; } }", "D {"),
    ("procedure p(prob P = 1/2) { say claim(boy, P); }", "P)"),
    ("procedure p(prob P = 1/2) { require exists(P); say yes; }", "P)"),
])
def test_parameter_of_the_wrong_kind_is_a_syntax_error(src, use):
    with pytest.raises(DslSyntaxError, match="not a") as info:
        parse(src)
    assert (info.value.span.line, info.value.span.column) == (1, src.index(use) + 1)


@pytest.mark.parametrize("default", ["3", "D", "boy"])
def test_day_default_must_be_a_day_literal(default):
    with pytest.raises(DslSyntaxError) as info:
        parse(f"procedure p(day D = tue, day E = {default}) {{ say yes; }}")
    assert (info.value.span.line, info.value.span.column) == (1, 34)


@pytest.mark.parametrize("name", ["tue", "d3", "boy", "day"])
def test_parameter_may_not_shadow_a_word_of_the_language(name):
    with pytest.raises(DslSyntaxError, match="cannot name a parameter"):
        parse(f"procedure p(day {name} = wed) {{ say yes; }}")


def test_probability_parameter_range():
    with pytest.raises(InvalidFlipProbability) as info:
        parse("procedure p(prob P = 3/2) { say yes; }")
    assert (info.value.span.line, info.value.span.column) == (1, 22)
    ast = parse(PARAMS_SRC)
    for bad in (Fraction(3, 2), Fraction(-1, 5)):
        with pytest.raises(InvalidFlipProbability, match="outside"):
            compile_protocol(ast, CFG, {"P": bad})


def test_bound_day_out_of_range_and_unknown_names():
    ast = parse(PARAMS_SRC)
    with pytest.raises(DayOutOfRange):
        compile_protocol(ast, CFG, {"D": 7})
    with pytest.raises(TypeError, match="no parameter 'Q'"):
        compile_protocol(ast, CFG, {"Q": 1})


def test_default_day_must_fit_the_week():
    ast = parse(PARAMS_SRC)
    with pytest.raises(DslSyntaxError, match="day 2 out of range for d=2") as info:
        compile_protocol(ast, WorldConfig(2, 2))
    assert (info.value.span.line, info.value.span.column) == (1, 21)
    compile_protocol(ast, WorldConfig(2, 2), {"D": 1})


@pytest.mark.parametrize("text, statement", [
    ("atleastone(boy)", AtLeastOne(Sex.BOY)),
    ("twoofakind(girl)", TwoOfAKind(Sex.GIRL)),
    ("proudof(boy)", ProudOf(Sex.BOY)),
    ("yes", YesNo(True)),
    ("no", YesNo(False)),
    ('text("x")', Text("x")),
])
def test_say_holds_the_engine_statement(text, statement):
    (say,) = parse(f"procedure p {{ say {text}; }}").body
    assert say.expr == statement  # dataclass equality compares the classes too
    assert parse_statement_text(text, CFG) == statement


# ---------------------------------------------------------------------------
# Class-compiled kernels against a per-family reference
# ---------------------------------------------------------------------------

def _per_family(ast, cfg, values):
    """The per-family reference of `compile_protocol`: the lowered body run
    on every family that passes the pre-filter (tested with the reference
    interpreter), each with a row of its own. Returns (rows, empty-pick
    families, span of the first failing pick, whether a path fell through)."""
    bound = dsl._bind(ast, cfg, values)
    pre = [pred_to_query(p, cfg, bound) for p in ast.requires]
    lowering = dsl._Lowering(cfg, bound)
    body = lowering.block(ast.body, lowering.fall_through)
    env = [0] * lowering.slots
    rows = {}
    for f in enumerate_families(cfg):
        if all(eval_query(q, f) for q in pre):
            row = {}
            body(f, env, dsl._ONE, row)
            rows[f] = row
    failed = list(lowering.empty_picks)
    span = lowering.empty_picks[failed[0]].span if failed else None
    return rows, failed, span, lowering.fell_through


def _sampler_view(kernel, st, event):
    """The sampler's tables as each family sees them: its event, whether it is
    sent home, its thresholds, and the common denominator."""
    event, which, lo, hi, tot, denom = mc._compile_tables(kernel, st, event)
    return event, which == len(lo) - 1, lo[which], hi[which], tot[which], denom


def _rows_text(rows, cfg):
    return [(family_str(f), [(render_statement(s, cfg), str(w)) for s, w in row.items()])
            for f, row in rows.items()]


_PROBS = ("0", "1", "1/2", "1/3", "2/7")


@st.composite
def _procedures(draw):
    """Random procedure text over a small world, with parameter values."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 3))
    days = [f"d{i}" for i in range(d)]
    params, values = [], {}
    if draw(st.booleans()):
        params.append(f"day D = {draw(st.sampled_from(days))}")
        days.append("D")
        if draw(st.booleans()):
            values["D"] = draw(st.integers(0, d - 1))
    probs = list(_PROBS)
    if draw(st.booleans()):
        params.append(f"prob P = {draw(st.sampled_from(_PROBS))}")
        probs.append("P")
        if draw(st.booleans()):
            values["P"] = Fraction(draw(st.sampled_from(_PROBS)))
    picks = iter(range(100))

    def sex():
        return draw(st.sampled_from(("boy", "girl")))

    def day():
        return draw(st.sampled_from(days))

    def pred(scope, depth=0):
        kinds = ["exists-sex", "exists-day", "exists-both", "all-sex", "all-day", "count"]
        kinds += ["child-sex", "child-day"] * bool(scope)
        kinds += ["and", "or", "not"] * (depth < 2)
        kind = draw(st.sampled_from(kinds))
        if kind == "exists-sex":
            return f"exists({sex()})"
        if kind == "exists-day":
            return f"exists({day()})"
        if kind == "exists-both":
            return f"exists({sex()}, {day()})"
        if kind == "all-sex":
            return f"all({sex()})"
        if kind == "all-day":
            return f"all({day()})"
        if kind == "count":
            op = draw(st.sampled_from((">=", "<=", ">", "<", "=")))
            return f"count({sex()}) {op} {draw(st.integers(0, 3))}"
        if kind == "child-sex":
            return f"sex({draw(st.sampled_from(scope))}) = {sex()}"
        if kind == "child-day":
            return f"day({draw(st.sampled_from(scope))}) = {day()}"
        if kind == "not":
            return f"not ({pred(scope, depth + 1)})"
        return f"({pred(scope, depth + 1)}) {kind} ({pred(scope, depth + 1)})"

    def say(scope):
        forms = ["claim(boy)", f"claim({sex()}, {day()})", "atleastone(boy)",
                 "twoofakind(girl)", "proudof(boy)", "yes", "no", 'text("t")']
        if scope and draw(st.booleans()):
            v = draw(st.sampled_from(scope))
            forms = [f"claim(sex({v}))", f"claim(sex({v}), day({v}))",
                     f"claim({sex()}, day({v}))", f"claim(sex({v}), {day()})"]
        return f"say {draw(st.sampled_from(forms))};"

    def block(scope, depth):
        """Picks, ifs and flips, then a say, a reject or nothing (a path that
        reaches the end of a branch goes on after the if or flip)."""
        scope = list(scope)
        lines = []
        for _ in range(draw(st.integers(0, 2))):
            kind = draw(st.sampled_from(("pick", "if", "flip") if depth < 3 else ("pick",)))
            if kind == "pick":
                v = f"v{next(picks)}"
                where = draw(st.sampled_from(("", "", f" where sex({v})={sex()}",
                                              f" where day({v})={day()}")))
                lines.append(f"pick {v}{where};")
                scope.append(v)
            elif kind == "if":
                text = f"if {pred(scope)} {{ {block(scope, depth + 1)} }}"
                if draw(st.booleans()):
                    text += f" else {{ {block(scope, depth + 1)} }}"
                lines.append(text)
            else:
                lines.append(f"flip {draw(st.sampled_from(probs))} "
                             f"{{ {block(scope, depth + 1)} }} else {{ {block(scope, depth + 1)} }}")
        end = draw(st.sampled_from(("say", "say", "say", "reject", "")))
        if end == "say":
            lines.append(say(scope))
        elif end == "reject":
            lines.append("reject;")
        return " ".join(lines)

    require = f"require {pred([])}; " if draw(st.booleans()) else ""
    head = f"({', '.join(params)})" if params else ""
    source = f"procedure p{head} {{ {require}{block([], 0)} }}"
    return source, WorldConfig(d, n), values


@settings(max_examples=150, deadline=None)
@given(_procedures())
def test_class_compile_matches_per_family_compile(case):
    source, cfg, values = case
    ast = parse(source)
    rows, failed, span, fell_through = _per_family(ast, cfg, values)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            kernel = compile_protocol(ast, cfg, values)
        except EmptyPick as exc:
            assert list(exc.families) == failed
            assert exc.span == span
            return
    assert failed == []
    assert _rows_text(kernel.rows, cfg) == _rows_text(rows, cfg)
    assert [w.category for w in caught] == [DslWarning] * fell_through
    assert validate_kernel(kernel) == []

    # the class table, with its derived multiplicities and family -> vector
    # map, conditions and samples like one class per child
    if not rows:
        return
    reference = ProtocolKernel.from_rows(cfg, rows, kernel.pre_filter)
    assert list(marginal(kernel).items()) == list(marginal(reference).items())
    said = [s for s in marginal(reference) if s is not REJECT]
    events = (AllMatch(sex=Sex.BOY), Exists(Sex.GIRL), CountAtLeast(1, Sex.BOY))
    for st, event in zip(said, itertools.cycle(events)):
        got, want = posterior(kernel, st, event), posterior(reference, st, event)
        assert got == want
        assert got.case_table == want.case_table
        for a, b in zip(_sampler_view(kernel, st, event), _sampler_view(reference, st, event)):
            assert np.array_equal(a, b)


@pytest.mark.parametrize(
    "sid, distinct, families",
    [("classic-coinflip", 4, 40_000), ("yesno", 16, 40_000), ("bc-tc", 7, 399),
     ("gn-tc", 12, 796), ("gn-dn", 40_000, 40_000)],
)
def test_families_the_procedure_cannot_tell_apart_share_one_row(sid, distinct, families):
    # a child's class is its sex and, if the procedure tests it, its day:
    # classic-coinflip tests no day (2 classes, 2^2 class vectors), yesno and
    # bc-tc/gn-tc test the target day (4 classes; the pre-filters keep 7 and
    # 12 of the 16 vectors), and gn-dn names every child's day
    kernel = build_scenario(sid, WorldConfig(100, 2), day=0).kernel
    assert len(kernel.table) == distinct
    assert sum(kernel.multiplicities()) == len(kernel.rows) == families
