import codecs
import glob
import math
import os
import pickle
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ambiprob import dsl, mc
from ambiprob.dsl import (
    DayLit,
    DslWarning,
    EClaim,
    Flip,
    If,
    PAll,
    ParamRef,
    PCount,
    PExists,
    Pick,
    Reject,
    Say,
    compile_protocol,
    load_protocol,
    parse,
    parse_event_text,
    parse_statement_text,
    pred_to_query,
    render,
)
from ambiprob.engine import (
    OTHER, REJECT, AtLeastOne, Claim, ProtocolKernel, ProudOf, Text, TwoOfAKind, YesNo,
    marginal, posterior, render_statement, statement_mass, validate_kernel,
)
from ambiprob.errors import (
    AmbiprobError,
    DayOutOfRange,
    DslError,
    DslSyntaxError,
    EmptyPick,
    InvalidFlipProbability,
    InvalidProbability,
    UnboundVariable,
)
from ambiprob.model import (
    AllMatch, And, ChildDayIs, ChildSexIs, CountAtLeast, Exists, Not, Or, Sex, WorldConfig,
    _leaves, enumerate_families, eval_query, family_str,
)
from ambiprob.scenarios import build_scenario
from test_golden import CHILD_TESTS, CHILD_WORLDS, CLASS_EVENTS, builtin_digest_matches

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


@pytest.mark.parametrize("src, message", [
    ("procedure { say yes; }", "1:11: expected procedure name, found '{'"),
    ("procedure p { say yes; } extra", "1:26: expected end of input, found 'extra'"),
    ("procedure p(int X = 1) { say yes; }",
     "1:13: expected a parameter kind ('day' or 'prob'), found 'int'"),
    ("procedure p { yes; }", "1:15: expected a statement (if/pick/flip/say/reject), found 'yes'"),
    ("procedure p { flip x { say yes; } else { say no; } }",
     "1:20: expected a rational literal, found 'x'"),
    ("procedure p { flip 1/ { say yes; } else { say no; } }",
     "1:23: expected a denominator, found '{'"),
    ("procedure p { flip 1/0 { say yes; } else { say no; } }", "1:20: zero denominator"),
    ("procedure p { if exists(7) { say yes; } }",
     "1:25: expected 'boy', 'girl', or a day, found '7'"),
    ("procedure p { pick c where c; say yes; }",
     "1:28: expected 'sex(var)=...' or 'day(var)=...', found 'c'"),
    ("procedure p { pick c; pick d where sex(c)=boy; say yes; }",
     "1:36: 'where' clause must test the picked variable 'd'"),
    ("procedure p { pick c; if day(c) = boy { say yes; } }",
     "1:35: expected a day literal, found 'boy'"),
    ("procedure p { if count(boy) 2 { say yes; } }",
     "1:29: expected a comparison operator, found '2'"),
    ("procedure p { if count(boy) >= x { say yes; } }", "1:32: expected an integer, found 'x'"),
    ("procedure p { if 3 { say yes; } }", "1:18: expected a predicate, found '3'"),
    ("procedure p { say text(abc); }", "1:24: expected a string literal, found 'abc'"),
    ("procedure p { say claim(tue); }", "1:25: expected a sex or 'sex(var)', found 'tue'"),
    ("procedure p { say claim(boy, 3); }", "1:30: expected a day or 'day(var)', found '3'"),
    ("all(boy) all(girl)", "1:10: expected end of input, found 'all'"),  # an --event
])
def test_malformed_text_names_what_it_expected(src, message):
    with pytest.raises(DslSyntaxError) as info:
        if src.startswith("procedure"):
            parse(src)
        else:
            parse_event_text(src, CFG)
    assert str(info.value) == message


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


def test_leading_byte_order_mark_is_skipped_and_positions_stay(tmp_path):
    text = b'procedure p {\n  say claim(boy, tue);\n}\n'
    plain, marked = tmp_path / "plain.proc", tmp_path / "marked.proc"
    plain.write_bytes(text)
    marked.write_bytes(codecs.BOM_UTF8 + text)
    assert load_protocol(marked, CFG).table == load_protocol(plain, CFG).table
    # a bad byte or character after the mark is placed as if the mark were absent
    for bad, span in [(b'say text("\xff");', (2, 13)), (b"say @;", (2, 7))]:
        marked.write_bytes(codecs.BOM_UTF8 + b"procedure p {\n  " + bad + b"\n}\n")
        with pytest.raises(DslSyntaxError) as info:
            load_protocol(marked, CFG)
        assert (info.value.span.line, info.value.span.column) == span


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


@pytest.mark.parametrize("src, message", [
    ("procedure p { say yes; say no; }", "1:24: unreachable statement after 'say'"),
    ("procedure p {\n  reject;\n  pick c;\n}", "3:3: unreachable statement after 'reject'"),
    ("procedure p { if all(boy) { say yes; reject; } else { say no; } }",
     "1:38: unreachable statement after 'say'"),
    ("procedure p { flip 1/2 { reject; if all(boy) { say yes; } } else { say no; } }",
     "1:34: unreachable statement after 'reject'"),
    # the first statement that cannot run is named, not the last
    ("procedure p { pick c; say claim(sex(c)); reject; say yes; }",
     "1:42: unreachable statement after 'say'"),
])
def test_a_statement_after_a_say_or_reject_of_its_block_is_an_error(src, message):
    with pytest.raises(DslSyntaxError) as info:
        parse(src)
    assert str(info.value) == message


def test_a_statement_after_an_if_whose_every_arm_ends_still_parses():
    # only a say or reject of the same block ends it; an if or flip whose
    # every arm ends does not, though what follows it can never run either
    ast = parse("procedure p { if all(boy) { say yes; } else { reject; } say no; }")
    assert ast.body[-1] == Say(YesNo(False))


def test_require_rejects_child_tests():
    with pytest.raises(UnboundVariable):
        parse("procedure p { require sex(c)=boy; say yes; }")


def test_flip_probability_range():
    with pytest.raises(InvalidFlipProbability):
        parse("procedure p { flip 3/2 { say yes; } else { say no; } }")


def test_flip_probability_error_carries_span():
    with pytest.raises(DslError) as info:
        parse("procedure p {\n  say yes;\n  flip 2 { say yes; } else { say no; }\n}")
    assert isinstance(info.value, InvalidFlipProbability)
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


def test_empty_pick_counts_its_families_without_walking_them():
    # 12^6 = 2,985,984 families with no Tuesday child: counted by class
    # vector, the first five named, and the list built only when read
    src = "procedure p { pick v where day(v)=tue; say claim(sex(v)); }"
    start = time.perf_counter()
    with pytest.raises(EmptyPick) as exc:
        compile_protocol(parse(src), WorldConfig(7, 6))
    assert time.perf_counter() - start < 0.5
    assert str(exc.value) == (
        "1:15: pick matches no child in 2985984 reachable families (e.g. "
        "B@0,B@0,B@0,B@0,B@0,B@0, B@0,B@0,B@0,B@0,B@0,B@2, B@0,B@0,B@0,B@0,B@0,B@3, "
        "B@0,B@0,B@0,B@0,B@0,B@4, B@0,B@0,B@0,B@0,B@0,B@5); "
        "guard the pick or use an explicit reject")
    assert "families" not in vars(exc.value)
    # read at a smaller size, the list is every failing family in `family_str`
    # order, which is enumeration order for a week of at most ten days
    with pytest.raises(EmptyPick) as exc:
        compile_protocol(parse(src), WorldConfig(7, 3))
    assert exc.value.families == tuple(
        f for f in enumerate_families(WorldConfig(7, 3)) if all(c.day != TUE for c in f))
    # and it pickles, the lazy list read for it
    with pytest.raises(EmptyPick) as exc:
        compile_protocol(parse(src), WorldConfig(7, 3))
    copied = pickle.loads(pickle.dumps(exc.value))
    assert (str(copied), copied.span, copied.families) == \
        (str(exc.value), exc.value.span, exc.value.families)


def test_empty_pick_lists_its_families_in_case_table_order():
    # at d=12, `family_str` order puts day 10 before day 2, unlike
    # enumeration order: the families are listed as a case table lists its rows
    cfg = WorldConfig(12, 2)
    with pytest.raises(EmptyPick) as exc:
        compile_protocol(parse("procedure p { pick v where day(v)=d0; say yes; }"), cfg)
    kernel = compile_protocol(
        parse("procedure q { if exists(d0) { say no; } else { say yes; } }"), cfg)
    rows = posterior(kernel, YesNo(True), parse_event_text("all(boy)", cfg)).case_table
    assert exc.value.families == tuple(row.family for row in rows)
    assert len(exc.value.families) == 22 * 22
    assert exc.value.families != tuple(
        f for f in enumerate_families(cfg) if all(c.day != 0 for c in f))
    shown = ", ".join(map(family_str, exc.value.families[:5]))
    assert f"(e.g. {shown})" in str(exc.value)


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


@pytest.mark.parametrize("n, answer", [(3, Fraction(1, 2)), (4, Fraction(2, 7)),
                                       (5, Fraction(5, 32))])
def test_three_independent_picks_closed_form(n, answer):
    # a family of b boys says yes with probability (b/n)^3, so
    # P(all boys | yes) = n^3 / sum_b C(n, b) b^3
    src = ("procedure p { pick a; pick b; pick c;"
           " if sex(a) = boy and sex(b) = boy and sex(c) = boy { say yes; } else { say no; } }")
    kernel = compile_protocol(parse(src), WorldConfig(1, n))
    assert answer == Fraction(n ** 3, sum(math.comb(n, b) * b ** 3 for b in range(n + 1)))
    assert posterior(kernel, YesNo(True), AllMatch(Sex.BOY)).posterior == answer


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


def test_a_chain_is_one_node_and_renders_flat():
    a, b, c = PExists(Sex.BOY), PAll(Sex.GIRL), PCount(Sex.BOY, ">=", 1)
    assert And(a, And(b, c)) == And(And(a, b), c) == And(a, b, c)
    assert Or(a, Or(b, c)).terms == (a, b, c)
    src = ("procedure p { if exists(boy) and (all(girl) or count(boy) >= 1) "
           "and not (exists(boy) and all(girl)) { say yes; } }")
    ast = parse(src)
    assert ast.body[0].pred == And(a, Or(b, c), Not(And(a, b)))
    # an `or` inside an `and`, and an `and` under `not`, keep their parentheses
    assert ("if exists(boy) and (all(girl) or count(boy) >= 1) "
            "and not (exists(boy) and all(girl)) {") in render(ast)
    assert parse(render(ast)) == ast


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


@pytest.mark.parametrize("text, message", [
    ("exists(boy, girl)", "1:13: expected a day, found 'girl'"),
    ("exists(tue, wed)", "1:13: expected 'boy' or 'girl', found 'wed'"),
])
def test_second_exists_argument_of_the_same_kind_is_reported_where_it_stands(text, message):
    with pytest.raises(DslSyntaxError) as info:
        parse_event_text(text, CFG)
    assert str(info.value) == message


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
    # a bound value is not source text: a plain InvalidProbability, not a DslError
    for bad, text in ((Fraction(3, 2), "3/2"), (Fraction(-1, 5), "-1/5")):
        with pytest.raises(InvalidProbability) as bound:
            compile_protocol(ast, CFG, {"P": bad})
        assert str(bound.value) == f"parameter P = {text} outside [0, 1]"
        assert not isinstance(bound.value, DslError)


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


_sexes = st.sampled_from(list(Sex))
# labels over the characters the string literal escapes or a csv field quotes
_labels = st.text(st.sampled_from(['"', "\\", "'", "\n", ",", "\u00e9", "a", " "]), max_size=8)


@st.composite
def _statements(draw):
    """A statement of any kind, with the world whose week names its day."""
    cfg = WorldConfig(draw(st.sampled_from((7, 12))), 2)
    statement = draw(st.one_of(
        st.builds(Claim, _sexes, st.none() | st.integers(0, cfg.week_length - 1)),
        st.builds(AtLeastOne, _sexes),
        st.builds(TwoOfAKind, _sexes),
        st.builds(ProudOf, _sexes),
        st.builds(YesNo, st.booleans()),
        st.builds(Text, _labels | st.text(max_size=8)),
    ))
    return statement, cfg


@settings(max_examples=200, deadline=None)
@given(_statements())
@example((Text('a"\u00e9'), CFG))
@example((Text('\\"\\'), CFG))
def test_every_printed_statement_reads_back_as_say_input(case):
    statement, cfg = case
    assert parse_statement_text(render_statement(statement, cfg), cfg) == statement


# ---------------------------------------------------------------------------
# Class-compiled kernels against a per-family reference
# ---------------------------------------------------------------------------

def _days_tested(ast, cfg, bound):
    """Every day that a predicate of the procedure compares a child's day with."""
    preds = list(ast.requires)

    def walk(stmts):
        for st in stmts:
            match st:
                case If(pred=p, then=t, els=e):
                    preds.append(p)
                    walk(t)
                    walk(e or ())
                case Flip(then=t, els=e):
                    walk(t)
                    walk(e)
                case Pick(where=w) if w is not None:
                    preds.append(w)
    walk(ast.body)
    return {dsl._day_value(leaf.day, cfg, bound)
            for p in preds for leaf in _leaves(p) if getattr(leaf, "day", None) is not None}


def _per_family(ast, cfg, values, statement=None):
    """The per-family reference of `compile_protocol`: an interpreter of the
    AST that runs every family passing the pre-filter on its own, each with a
    row of its own. It binds picked variables in a dict per path and tests
    with `eval_query`, so it shares no lowering with the compiler. For a
    `statement`, a claim of a child's own day says OTHER unless a predicate
    tests that day or the statement names it. Returns (rows, empty-pick
    families, span of the first failing pick, whether a path fell through)."""
    bound = dsl._bind(ast, cfg, values)
    pre = [pred_to_query(p, cfg, bound) for p in ast.requires]
    empty, fell_through = {}, []
    told = None  # the days a claim of a child's own day names; None for every day
    if statement is not None:
        told = _days_tested(ast, cfg, bound)
        if isinstance(statement, Claim) and statement.day is not None:
            told.add(statement.day)

    def holds(p, f, at):
        return eval_query(pred_to_query(p, cfg, bound, at), f)

    def statement(e, f, at):
        if not isinstance(e, EClaim):
            return e
        sex = e.sex if isinstance(e.sex, Sex) else f[at[e.sex.var]].sex
        if e.day is None or isinstance(e.day, (DayLit, ParamRef)):
            day = None if e.day is None else dsl._day_value(e.day, cfg, bound)
        else:
            day = f[at[e.day.var]].day
            if told is not None and day not in told:
                return OTHER
        return Claim(sex, day)

    def run(stmts, f, w, at, row, after):
        """Run `stmts` on family f; a path that reaches their end calls after(w)."""
        for k, st in enumerate(stmts):
            def rest(w, k=k):
                run(stmts[k + 1:], f, w, at, row, after)
            match st:
                case Say(expr=e):
                    said = statement(e, f, at)
                    row[said] = row.get(said, 0) + w
                    return
                case Reject():
                    return
                case If(pred=p, then=t, els=e):
                    run(t if holds(p, f, at) else e or (), f, w, at, row, rest)
                    return
                case Flip(prob=p, then=t, els=e):
                    p = bound[p.name] if isinstance(p, ParamRef) else p
                    for branch, q in ((t, p), (e, 1 - p)):
                        if q:  # the compiler never runs a branch of weight 0
                            run(branch, f, w * q, at, row, rest)
                    return
                case Pick(var=v, where=c):
                    matching = [j for j in range(cfg.family_size)
                                if c is None or holds(c, f, {v: j})]
                    if not matching:
                        empty.setdefault(f, st)
                    for j in matching:
                        run(stmts[k + 1:], f, w / len(matching), {**at, v: j}, row, after)
                    return
        after(w)

    rows = {}
    for f in enumerate_families(cfg):
        if all(eval_query(q, f) for q in pre):
            rows[f] = {}
            run(ast.body, f, Fraction(1), {}, rows[f], fell_through.append)
    failed = list(empty)
    return rows, failed, empty[failed[0]].span if failed else None, bool(fell_through)


def _sampler_view(kernel, st, event):
    """The sampler's tables as each family sees them: its event, whether it is
    sent home, its thresholds, and the common denominator."""
    event, which, lo, hi, tot, denom = mc._compile_tables(kernel, st, event)
    return event, which == len(lo) - 1, lo[which], hi[which], tot[which], denom


def _rows_text(rows, cfg):
    return [(family_str(f), [("OTHER" if s is OTHER else render_statement(s, cfg), str(w))
                             for s, w in row.items()])
            for f, row in rows.items()]


_PROBS = ("0", "1", "1/2", "1/3", "2/7")


@st.composite
def _procedures(draw):
    """Random procedure text over a small world, with parameter values.

    Most worlds have two or three children, where the order in which a pick
    binds them shows, and most picks with a `where` run under an `if` that
    guarantees a match, so that few procedures end in `EmptyPick`."""
    d = draw(st.integers(1, 3))
    n = draw(st.sampled_from((2, 3, 2, 3, 1)))
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
        if scope and draw(st.integers(0, 3)):  # most says after a pick read its child
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
                v = f"v{draw(st.integers(0, 2))}"  # a name in scope is shadowed
                test, value = draw(st.sampled_from((("", ""), ("", ""), ("sex", sex()),
                                                    ("day", day()))))
                where = f" where {test}({v})={value}" if test else ""
                if test and depth < 5 and draw(st.integers(0, 4)):
                    # the rest of the block runs under a guard that the pick matches
                    inner = block(scope + [v], depth + 1)
                    lines.append(f"if exists({value}) {{ pick {v}{where}; {inner} }}")
                    break
                lines.append(f"pick {v}{where};")
                if v not in scope:
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


def _events(cfg):
    """Random events over cfg: and/or/not over exists/all/count leaves whose
    day is none, a day in the week or a day past it, and child tests."""
    sexes = st.sampled_from((None, Sex.BOY, Sex.GIRL))
    day = st.integers(0, cfg.week_length + 1)
    index = st.integers(0, cfg.family_size - 1)
    leaves = (st.builds(Exists, sexes, st.none() | day)
              | st.builds(AllMatch, sexes, st.none() | day)
              | st.builds(CountAtLeast, st.integers(0, cfg.family_size + 1), sexes,
                          st.none() | day)
              | st.builds(ChildSexIs, index, st.sampled_from(Sex))
              | st.builds(ChildDayIs, index, day))
    return st.recursive(leaves, lambda inner: st.builds(And, inner, inner)
                        | st.builds(Or, inner, inner) | st.builds(Not, inner), max_leaves=5)


@settings(max_examples=150, deadline=None)
@given(_procedures(), st.data())
def test_class_compile_matches_per_family_compile(case, data):
    source, cfg, values = case
    ast = parse(source)
    assert parse(render(ast)) == ast
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
    for said in marginal(reference):
        if said is REJECT:
            continue
        for event in data.draw(st.lists(_events(cfg), min_size=3, max_size=3)):
            got, want = posterior(kernel, said, event), posterior(reference, said, event)
            assert got == want
            assert got.case_table == want.case_table
            for a, b in zip(_sampler_view(kernel, said, event),
                            _sampler_view(reference, said, event)):
                assert np.array_equal(a, b)


def _outcome(f, *args):
    """f(*args), or the type and message of the library error it raises."""
    try:
        return f(*args)
    except AmbiprobError as exc:
        return type(exc), str(exc)


def _check_compiled_for_each_statement(ast, cfg, values, events, reference=False):
    """Compile ast for each statement the full kernel emits and for one it
    never emits, and check the kernel against the full one: equal posteriors
    (with case tables) for each event of `events()`, an equal statement and
    reject mass, and OTHER holding just the mass of the claims it lumps;
    or the same error. With `reference`, its rows must be the per-family
    reference's for that statement."""
    def compile_for(statement=None):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return compile_protocol(ast, cfg, values, statement)

    try:
        full = compile_for()
    except EmptyPick as exc:
        for statement in (Claim(Sex.BOY, 0), YesNo(True)):
            with pytest.raises(EmptyPick) as got:
                compile_for(statement)
            assert (str(got.value), got.value.families, got.value.span) == \
                (str(exc), exc.families, exc.span)
        return
    whole = marginal(full) if full.table else {REJECT: Fraction(1)}
    said = [s for s in whole if s is not REJECT]
    never = [Claim(sex, day) for sex in Sex for day in range(cfg.week_length)] + [Text("never")]
    for statement in said + [next(s for s in never if s not in whole)]:
        kernel = compile_for(statement)
        assert validate_kernel(kernel) == []
        if reference:
            rows = _per_family(ast, cfg, values, statement)[0]
            assert _rows_text(kernel.rows, cfg) == _rows_text(rows, cfg)
        for event in events():
            # reports are equal when their masses, posteriors and case rows are
            assert _outcome(posterior, kernel, statement, event) == \
                _outcome(posterior, full, statement, event)
        if not full.table:
            continue
        lumped = marginal(kernel)
        assert statement_mass(kernel, statement) == statement_mass(full, statement)
        assert lumped[REJECT] == whole[REJECT]
        short = {s: whole[s] - lumped.get(s, 0) for s in said}
        assert set(lumped) <= set(whole) | {OTHER}
        assert lumped.get(OTHER, 0) == sum(short.values())
        # only claims of a day the statement does not name lose mass to OTHER
        for s, w in short.items():
            assert w == 0 or (w > 0 and isinstance(s, Claim) and s.day is not None
                              and s.day != getattr(statement, "day", None))


@settings(max_examples=100, deadline=None)
@given(_procedures(), st.data())
def test_a_kernel_compiled_for_its_statement_conditions_like_the_full_kernel(case, data):
    source, cfg, values = case
    _check_compiled_for_each_statement(
        parse(source), cfg, values,
        lambda: data.draw(st.lists(_events(cfg), min_size=2, max_size=2)), reference=True)


@pytest.mark.parametrize("name", [os.path.basename(p)[:-5] for p in proc_files()]
                         + sorted(CHILD_TESTS))
def test_procedures_compiled_for_their_statement_condition_like_the_full_kernel(name):
    for n, d in CHILD_WORLDS:
        cfg = WorldConfig(d, n)
        if name in CHILD_TESTS:
            source = CHILD_TESTS[name].replace("{mid}", f"d{d // 2}").replace("{last}", f"d{d - 1}")
        else:
            with open(os.path.join(PROC_DIR, f"{name}.proc")) as fh:
                source = fh.read().replace("tue", "d0")  # a day in every week
        events = (*CLASS_EVENTS.values(), ChildDayIs(n - 1, d - 1),
                  And(ChildSexIs(0, Sex.BOY), Exists(day=0)))
        _check_compiled_for_each_statement(parse(source), cfg, {}, lambda: events,
                                           reference=cfg.n_outcomes <= 216)  # the reference is slow


@pytest.mark.parametrize("name, vectors", [("gn_dn", 16), ("bc_dn", 12)])
def test_a_claim_of_a_childs_day_tells_apart_only_the_statements_day(name, vectors):
    # boys and girls of day 0, and of any other day: 4 classes, and bc_dn's
    # pre-filter sends the 4 vectors of two girls home
    kernel = load_protocol(os.path.join(PROC_DIR, f"{name}.proc"), WorldConfig(365, 2),
                           Claim(Sex.BOY, 0))
    assert len(kernel.table) == vectors
    assert sum(kernel.multiplicities()) == 730 ** 2 - 365 ** 2 * (name == "bc_dn")


def test_other_is_no_statement():
    with pytest.raises(TypeError):
        render_statement(OTHER, CFG)
    for text in ("OTHER", "other", "other()", "REJECT"):
        with pytest.raises(DslSyntaxError):
            parse_statement_text(text, CFG)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_a_pick_compiles_its_where_tests_once(k, monkeypatch):
    # the tests of a pick read only its child, so the n^(k-1) copies of the
    # k-th pick in a row share its n tests, and equal picks share them too
    queries = []

    def compile_query(q, cfg, real=dsl.compile_query):
        queries.append(q)
        return real(q, cfg)

    monkeypatch.setattr(dsl, "compile_query", compile_query)
    distinct = "".join(f"pick v{i} where day(v{i})=d0; " for i in range(k)) + "say claim(sex(v0));"
    repeated = "pick v where day(v)=d0; " * k + "say claim(sex(v));"
    for body, calls in ((distinct, k * 5), (repeated, 5)):
        queries.clear()
        compile_protocol(parse(f"procedure p {{ require exists(d0); {body} }}"), WorldConfig(7, 5))
        assert sum(isinstance(q, ChildDayIs) for q in queries) == calls


@pytest.mark.parametrize("name", sorted(CHILD_TESTS))
def test_child_tests_match_the_per_family_reference(name):
    # three children, so a picked child bound at the wrong index changes a row
    cfg = WorldConfig(3, 3)
    ast = parse(CHILD_TESTS[name].replace("{mid}", "d1").replace("{last}", "d2"))
    rows, failed, _, fell_through = _per_family(ast, cfg, {})
    assert failed == [] and not fell_through
    assert _rows_text(compile_protocol(ast, cfg).rows, cfg) == _rows_text(rows, cfg)


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
