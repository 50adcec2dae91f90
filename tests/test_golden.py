"""Golden digests of exact outputs: case tables, kernel rows and marginals.

Every digest was recorded with the per-family interpreter that compiled `.proc`
files before lowering to closures, and with conditioning over an explicit
`Fraction` prior. They pin byte-identical CLI output (case tables included),
the per-row statement order of every compiled kernel (the Monte Carlo's
`lo`/`hi` thresholds depend on it) and the key order of `marginal`.

The `builtin:` digests were recorded from the hand-built kernels that
`scenarios.py` held before the builtins were compiled from their `.proc`
files. Each pins the ordered rows and the `pre_filter` of one builtin at one
week length, for every target day in {0, 1 % d, d - 1} and every p in
`BUILTIN_PS`.

The `table:` digests pin the same `eval` runs in table format, and `list`,
`sweep 1 12` and a seeded `mc`, as the CLI wrote them before every table went
through one writer. The `csv:` digests pin the `eval` runs in csv format, with
the summary rows quoted by `csv.writer` (a `claim(...)` statement holds the
delimiter).

The `kernel:` and `marginal:` digests keyed by a `CHILD_TESTS` name pin the
procedures there, whose tests read picked children, in every world of
`CHILD_WORLDS`. Most were recorded while those tests were still lowered to
closures of their own, before they compiled through `compile_query`. The
`repick` digests and those at n=4, d=3 were recorded while a pick still bound
its child at run time, before the lowering bound each picked child itself.

The `classes:` digests pin how each kernel names its classes: its
`child_class`, the order of its table's vectors, and the classes that
`posterior` refines them to for each of `CLASS_EVENTS`. The rows per family
would not change if a class were split finer or merged, so only these digests
see a change to the rule for when two children are alike. They cover the
builtins at every d in `CLASS_WEEKS` and every shipped procedure at every n in
`SIZES` and d=7. Those keyed by a statement as well pin the `LUMPED`
procedures compiled for that statement at n=2, d=7; they were recorded when
the compile for one statement came in.

The `LARGEST` digests pin the two largest case tables the CLI writes, in every
format: `run classic-coinflip --week-days 365` (399,675 rows) and `eval
gn_dn.proc --children 5` for `claim(boy,tue)` (166,531 rows). They are the
digests of stdout alone, hashed as it is written, and were recorded while each
row was still joined and padded on its own, before rows were written a prefix
at a time.

To see what changed after a failure, print `_outputs()` on both trees and diff.
"""

import hashlib
import io
import os
import warnings
from fractions import Fraction

import pytest

from ambiprob.cli import main
from ambiprob.dsl import compile_protocol, load_protocol, parse, parse_statement_text
from ambiprob.engine import REJECT, _refine, marginal, render_statement
from ambiprob.errors import AmbiprobError
from ambiprob.model import (
    AllMatch, CountAtLeast, Exists, Not, Or, Sex, WorldConfig, family_str,
)
from ambiprob.scenarios import BUILTIN_IDS, build_scenario

PROC_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "ambiprob", "procs")
SIZES = (1, 2, 3)
WEEKS = (1, 7, 12)
EVENT = "all(boy)"
BUILTIN_WEEKS = (1, 2, 7, 30)
BUILTIN_PS = (Fraction(0), Fraction(1, 12), Fraction(13, 27), Fraction(1))
CHILD_WEEKS = (1, 3, 7)
CLASS_WEEKS = (1, 7, 30)
# all(boy), exists(girl, wed) and not exists(tue) or count(boy) >= 1; on a
# week shorter than 7 days, wed and tue are days outside it. Each is labelled
# by its repr when the digests were recorded, before `And`/`Or` held their
# terms in one field.
CLASS_EVENTS = {
    "AllMatch(sex=<Sex.BOY: 'B'>, day=None)": AllMatch(Sex.BOY),
    "Exists(sex=<Sex.GIRL: 'G'>, day=2)": Exists(Sex.GIRL, 2),
    "Or(left=Not(inner=Exists(sex=None, day=1)), right=CountAtLeast(k=1, sex=<Sex.BOY: 'B'>, "
    "day=None))": Or(Not(Exists(day=1)), CountAtLeast(1, Sex.BOY)),
}

# Procedures whose tests read picked children; {mid} and {last} are the days
# d//2 and d-1 of the week they are compiled for.
CHILD_TESTS = {
    # an `if` with `or` and `not` over child tests of two picked variables
    "child_or_not": """
procedure child_or_not {
  pick a;
  pick b;
  if sex(a) = boy and (day(b) = {last} or not sex(b) = girl) {
    flip 1/3 { say claim(sex(b)); } else { say yes; }
  } else {
    if not day(a) = d0 { say claim(girl); } else { reject; }
  }
}
""",
    # a family-level test beside a child test, and a day no other test names
    "exists_and_child": """
procedure exists_and_child {
  require exists(boy) or count(girl) >= 2;
  pick c;
  if exists(girl) and sex(c) = boy {
    say claim(boy, {last});
  } else {
    if day(c) = {mid} or all(boy) { say yes; } else { say no; }
  }
}
""",
    # `where` on sex and on day
    "where_sex_day": """
procedure where_sex_day {
  if exists(boy) {
    pick b where sex(b)=boy;
    if exists({mid}) {
      pick t where day(t)={mid};
      if sex(t) = girl or day(b) = {last} { say claim(sex(t)); } else { say atleastone(boy); }
    } else {
      say claim(boy);
    }
  } else {
    flip 1/2 { say no; } else { reject; }
  }
}
""",
    # an inner pick that shadows an outer one, in a block that falls through
    "shadow": """
procedure shadow {
  pick c;
  if exists(girl) {
    pick c where sex(c)=girl;
    if day(c) = d0 { say claim(girl, d0); }
  }
  if sex(c) = boy and not day(c) = {last} { say claim(sex(c)); } else { say no; }
}
""",
    # three picked variables in one test
    "three_picks": """
procedure three_picks {
  pick a;
  pick b;
  pick c;
  if sex(a) = boy and (day(b) = {mid} or not sex(c) = girl) {
    say claim(sex(c), day(a));
  } else {
    say yes;
  }
}
""",
    # one name picked twice in one block, its first binding read before the second
    "repick": """
procedure repick {
  require exists(girl);
  pick c;
  if sex(c) = girl and day(c) = d0 { reject; }
  pick c where sex(c) = girl;
  if day(c) = {last} { say claim(sex(c), day(c)); } else { say yes; }
}
""",
}
# Shipped procedures whose `say` names a child's own day, so that a kernel
# compiled for one statement has fewer classes than the full kernel.
LUMPED = ("bc_dn", "gn_dn")
# The worlds each CHILD_TESTS procedure is compiled in: every n in SIZES and d
# in CHILD_WEEKS, and a world where a test reads 3 of 4 children.
CHILD_WORLDS = tuple((n, d) for n in SIZES for d in CHILD_WEEKS) + ((4, 3),)


def _statements(proc: str, d: int) -> tuple[str, str]:
    last = f"d{d - 1}"
    return {
        "any_answer": ("atleastone(boy)", "atleastone(girl)"),
        "bc_dn": ("claim(boy,d0)", f"claim(boy,{last})"),
        "bc_tc": ("claim(boy,tue)", "claim(boy,d0)"),
        "brag": ("atleastone(boy)", "twoofakind(boy)"),
        "classic_coinflip": ("atleastone(boy)", "atleastone(girl)"),
        "classic_selection": ("atleastone(boy)", "atleastone(girl)"),
        "deemphasize": ("atleastone(boy)", "proudof(girl)"),
        "gn_dn": ("claim(boy,d0)", f"claim(girl,{last})"),
        "gn_tc": ("claim(boy,tue)", "claim(girl,tue)"),
        "yesno": ("yes", "no"),
    }[proc]


def _procs() -> list[str]:
    return sorted(p[:-5] for p in os.listdir(PROC_DIR) if p.endswith(".proc"))


def _cli(*argv) -> str:
    out = io.StringIO()
    code = main(list(argv), out=out)
    return f"exit {code}\n{out.getvalue()}"


def _marginal_text(kernel, cfg) -> str:
    return repr([
        ("REJECT" if s is REJECT else render_statement(s, cfg), str(v))
        for s, v in marginal(kernel).items()
    ])


def _rows_text(kernel, cfg) -> str:
    return repr([
        (family_str(f), [(render_statement(s, cfg), str(w)) for s, w in row.items()])
        for f, row in kernel.rows.items()
    ])


def _kernel_texts(compile_kernel, cfg: WorldConfig) -> tuple[str, str]:
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            kernel = compile_kernel()
    except AmbiprobError as exc:
        return type(exc).__name__, type(exc).__name__
    return _rows_text(kernel, cfg), _marginal_text(kernel, cfg)


def _classes_text(kernel) -> str:
    """The kernel's classes, its vectors in table order and each event's refinement."""
    lines = [f"child_class={kernel.child_class!r}", f"vectors={list(kernel.table)!r}"]
    lines += [f"{label}: {_refine(kernel, q)!r}" for label, q in CLASS_EVENTS.items()]
    return "\n".join(lines)


def _builtin_text(sid: str, d: int) -> str:
    """Ordered rows and pre-filter of builtin `sid` for every target day and p."""
    cfg = WorldConfig(d, 2)
    parts = []
    for day in sorted({0, 1 % d, d - 1}):
        for p in BUILTIN_PS:
            kernel = build_scenario(sid, cfg, day=day, p=p).kernel
            parts.append(f"day={day} p={p} pre_filter={kernel.pre_filter!r}\n")
            parts.append(_rows_text(kernel, cfg) + "\n")
    return "".join(parts)


def _outputs() -> dict[str, str]:
    """Every recorded output as text, keyed by what produced it."""
    out = {}
    for proc in _procs():
        path = os.path.join(PROC_DIR, f"{proc}.proc")
        for n in SIZES:
            for d in WEEKS:
                tag = f"{proc}:n{n}:d{d}"
                world = ("--children", str(n), "--week-days", str(d))
                for kind, fmt in (("eval", "json"), ("table", "table"), ("csv", "csv")):
                    out[f"{kind}:{tag}"] = "".join(
                        _cli("eval", path, "--say", say, "--event", EVENT,
                             "--format", fmt, *world)
                        for say in _statements(proc, d)
                    )
                cfg = WorldConfig(d, n)
                out[f"kernel:{tag}"], out[f"marginal:{tag}"] = _kernel_texts(
                    lambda: load_protocol(path, cfg), cfg
                )
            out[f"classes:{proc}:n{n}:d7"] = _classes_text(
                load_protocol(path, WorldConfig(7, n))
            )
    for proc in LUMPED:  # compiled for the first statement that `eval` asks of them
        cfg = WorldConfig(7, 2)
        say = _statements(proc, 7)[0]
        out[f"classes:{proc}:n2:d7:{say}"] = _classes_text(load_protocol(
            os.path.join(PROC_DIR, f"{proc}.proc"), cfg, parse_statement_text(say, cfg)))
    for name, template in CHILD_TESTS.items():
        for n, d in CHILD_WORLDS:
            source = template.replace("{mid}", f"d{d // 2}").replace("{last}", f"d{d - 1}")
            tag, cfg = f"{name}:n{n}:d{d}", WorldConfig(d, n)
            out[f"kernel:{tag}"], out[f"marginal:{tag}"] = _kernel_texts(
                lambda: compile_protocol(parse(source), cfg), cfg
            )
    out["table:list"] = _cli("list")
    out["table:sweep:1-12"] = _cli("sweep", "1", "12")
    out["table:mc:bc-tc"] = _cli("mc", "bc-tc", "--trials", "20000", "--seed", "7")
    for sid in sorted(BUILTIN_IDS):
        out[f"run:{sid}:d30"] = _cli("run", sid, "--week-days", "30", "--day", "d1",
                                     "--format", "json")
        for d in (7, 30):
            cfg = WorldConfig(d, 2)
            out[f"marginal:{sid}:d{d}"] = _marginal_text(
                build_scenario(sid, cfg, day=1).kernel, cfg
            )
        for d in BUILTIN_WEEKS:
            out[f"builtin:{sid}:d{d}"] = _builtin_text(sid, d)
        for d in CLASS_WEEKS:
            out[f"classes:{sid}:d{d}"] = _classes_text(
                build_scenario(sid, WorldConfig(d, 2), day=1 % d).kernel
            )
    return out


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def builtin_digest_matches(sid: str, d: int) -> bool:
    """Whether builtin `sid` at week length d still builds the recorded kernels."""
    return _digest(_builtin_text(sid, d)) == GOLDEN[f"builtin:{sid}:d{d}"]


GOLDEN = {
    "builtin:any-answer:d1":
        "91226fb71c9a60af3e873b69d68768c2299d483d1655fb03a30865fcea158a72",
    "builtin:any-answer:d2":
        "a98d68af94bd5d640114df6f3898f37f06917a313d796bc76bcfb9d5d9778182",
    "builtin:any-answer:d30":
        "3bbf512e2c8217550a3c935f8a78577613de033cedb71a53ae13bbf8c49d4561",
    "builtin:any-answer:d7":
        "dd865ac092db61efb0595f8ec6d46145d104d1d1f51ada3b79000d340f01c65b",
    "builtin:bc-dn:d1":
        "7f82c7ad87700771a78f407eadfbcf55d506ac3d2e443ddee119eea03bafedfc",
    "builtin:bc-dn:d2":
        "6f3cca0e426aca7bb55551f942b6eb353026cc58f78fa75ff4bf171d95e5a658",
    "builtin:bc-dn:d30":
        "be961c0d7088013fbfb3d13ada139cbd59b0025ef606f580abf9e17f3db0bbd7",
    "builtin:bc-dn:d7":
        "c8cdae66bb5e5e90477c1dd27282b524402231dc08384a08678e8298dc9bb2a5",
    "builtin:bc-tc:d1":
        "99465a4c3c8ed7ff3cf66f82c4c560fd789f47051e5455b0f10e3fa84ba6c522",
    "builtin:bc-tc:d2":
        "a63369efdb0491c1933603b01ee22da9fc075400d9a4fbe6a0ef226676918444",
    "builtin:bc-tc:d30":
        "fa529bf3da83c81c0bcc3de67b9f3c3489d8f37ffacdf1f514ba5c4a8a3c40f5",
    "builtin:bc-tc:d7":
        "65b9800319ef29a84a1a9c5fe55af228abfcb3f3d039dd2b7019fce209bbf209",
    "builtin:brag:d1":
        "94338b24cf5924d1423441186c9b04c6031e01cb6e9f862c1714b29e47224b23",
    "builtin:brag:d2":
        "e01aae4e3b685265d68e0a3b0141ab7eea3954ffd6226cfaf9977311730ed730",
    "builtin:brag:d30":
        "3f7b9cdc243dd5423703678a4c877899d9095cc07e653d132eb08d794fb62ef5",
    "builtin:brag:d7":
        "8d157bfa1229e1bb2ba6c127106cbb5b2df6fb8416662b16b2f2596f4a090fea",
    "builtin:classic-coinflip:d1":
        "8e4a77552b47c24b5a00763b70ff39b12620d6fa75feaeac23ceb2126dfca048",
    "builtin:classic-coinflip:d2":
        "fe4d322416b89dd79a60b3acc2b68ce6ef35a1d9a97c5ad96e9fa8d6ef5d0d58",
    "builtin:classic-coinflip:d30":
        "4328004b684ff21611efe0eff4dea1a850fe51032e510b1c05e75dfce69843d9",
    "builtin:classic-coinflip:d7":
        "a89a4dfea1147fa173a31e5472717a280a15ac7dcca78c618bf55a9d5855c096",
    "builtin:classic-selection:d1":
        "2e41b72f4d9e86386d43b58ea434de7ac47c2c6f6396dc7b9bb68d30111c1601",
    "builtin:classic-selection:d2":
        "7d2414fe5af572e76d65c5e19c15f6612475396b5ac0db1ef4dd51a82b3e9639",
    "builtin:classic-selection:d30":
        "8d291170a3622acaa1948724db254cefd4f17e76d2d2b3ba0bb0f658515f5c3e",
    "builtin:classic-selection:d7":
        "43fa9a47160709b72a5d3f64e8848278699e92c12817e184e8514436207914e1",
    "builtin:deemphasize:d1":
        "4466630ed14aefb272eaca5b6ef1b2b53e563105cc73884e1535dd262501a876",
    "builtin:deemphasize:d2":
        "69c737fd1e71a661eadf65ebe050a7a3fd6e9d4e9ab17d52f2e97d7a3ba6ab72",
    "builtin:deemphasize:d30":
        "d4e854f93790bd663c7dde046c1848a049ee37f2910c61b1d7c155d317b156d2",
    "builtin:deemphasize:d7":
        "3ba32a0ebc4028f77532b4ed51f5253519b0be97bf0b4251a82e0854bb5774c6",
    "builtin:gn-dn:d1":
        "c649abb63e4271c87e3016ea6c9a5b839cc8f9ea9ed24d7fc785237ca40b4052",
    "builtin:gn-dn:d2":
        "13e198a9aac526fbc38a1fe78ab8c56fb9ed4f944e01fa726032332dd4d5049e",
    "builtin:gn-dn:d30":
        "d884c54f90a5c1ce33338d238753af081c895546522225d809405c8379e9abbd",
    "builtin:gn-dn:d7":
        "c5182ee46af7c47ff484a810e2a12df674b99234698a64efde60365cecb9a8e0",
    "builtin:gn-tc:d1":
        "9decd67a45161643a56192a87adcd9546c47e16c37c4d46934e3faa1f1f368e0",
    "builtin:gn-tc:d2":
        "b654182bbe0952ac830044d1b1eb4a7d62e3b2cf5fb3ea0caa2064a18e1ef781",
    "builtin:gn-tc:d30":
        "798953cbd5727ef162539dfb62885ec18629091f76542ec1347793f92fa708e3",
    "builtin:gn-tc:d7":
        "328733abe866037fcdb5634a21b0cb7f29445b4576aaac3706d5b0b866943ac4",
    "builtin:yesno:d1":
        "e53ce709785a8068c8e583f00356d90922b6e63ca4961532dae682ed78be5639",
    "builtin:yesno:d2":
        "415fbaa0af6e9b5d5a0227ec1007db61c28f9a965886d43f0e2e7a112a336260",
    "builtin:yesno:d30":
        "aacdcd0a09129d8eaa092cf538f108ed3ab822b1aced6341af9155c719e2fd2a",
    "builtin:yesno:d7":
        "c6ab1230130c6374b2a4206fb518c35c322f4b691d766c45753526df4755887d",
    "classes:any-answer:d1":
        "ea664cdd30168c42783607e657e21daeac9f399c3d9b0b41a7a9496b492fccb1",
    "classes:any-answer:d30":
        "f2ebb993aa901399ed4e9611933b45643d177205847738826a2569e67b304c19",
    "classes:any-answer:d7":
        "2a56132f5dc152f5346ab375e150674fe34b940a4bc402a825f2915b19295be9",
    "classes:any_answer:n1:d7":
        "ba6b8272f8a5f91ad119db1f18f6a6be6723c548d363620aa716918ef6bf94b5",
    "classes:any_answer:n2:d7":
        "2a56132f5dc152f5346ab375e150674fe34b940a4bc402a825f2915b19295be9",
    "classes:any_answer:n3:d7":
        "25c7bb99a43e9bffd9c897bf4f8ae9fbba14ac43933356396fee0f330d45c80c",
    "classes:bc-dn:d1":
        "0d33eab21db50b9025967aa24d0d072fd0ce49deb9b750c3250c69a7b365a2ea",
    "classes:bc-dn:d30":
        "1766fa8b60596e704a156eed7b4094bb9a60bfbfca190690d81319dbf2507e39",
    "classes:bc-dn:d7":
        "e2dea2f69136d1e736593d3a91eed3f543911736607b3e464206179390cdc637",
    "classes:bc-tc:d1":
        "0d33eab21db50b9025967aa24d0d072fd0ce49deb9b750c3250c69a7b365a2ea",
    "classes:bc-tc:d30":
        "e30136c9221c4c92ad74076fc5fd7c5b2ff54e83d2f88d46d5ef03ad272d0b07",
    "classes:bc-tc:d7":
        "7af34dd1875fd9be82570e270cee8fc9565a59d7451c6c50206bf378a2883f7d",
    "classes:bc_dn:n1:d7":
        "7d96b129015ab6f04dc03de989e9c0e93dadfcf23199db64423644d4e7db73cb",
    "classes:bc_dn:n2:d7":
        "e2dea2f69136d1e736593d3a91eed3f543911736607b3e464206179390cdc637",
    "classes:bc_dn:n2:d7:claim(boy,d0)":
        "8a0af8963cad47f5b5732fef39d490798296b766a7277b7ef6d753d6381d6c42",
    "classes:bc_dn:n3:d7":
        "f90bf232e6d22d7859c6a3adf3b385919ebedd706a853718b8f15abb81bd8ffe",
    "classes:bc_tc:n1:d7":
        "be51fa427051060e1351857eff809155d102f6119877033f4bab83b99a69ebbe",
    "classes:bc_tc:n2:d7":
        "7af34dd1875fd9be82570e270cee8fc9565a59d7451c6c50206bf378a2883f7d",
    "classes:bc_tc:n3:d7":
        "9a8b98863750e4ea27c950f99b95291dc03c3a330144f056d87bc6d48da6cdd3",
    "classes:brag:d1":
        "ea664cdd30168c42783607e657e21daeac9f399c3d9b0b41a7a9496b492fccb1",
    "classes:brag:d30":
        "f2ebb993aa901399ed4e9611933b45643d177205847738826a2569e67b304c19",
    "classes:brag:d7":
        "2a56132f5dc152f5346ab375e150674fe34b940a4bc402a825f2915b19295be9",
    "classes:brag:n1:d7":
        "ba6b8272f8a5f91ad119db1f18f6a6be6723c548d363620aa716918ef6bf94b5",
    "classes:brag:n2:d7":
        "2a56132f5dc152f5346ab375e150674fe34b940a4bc402a825f2915b19295be9",
    "classes:brag:n3:d7":
        "25c7bb99a43e9bffd9c897bf4f8ae9fbba14ac43933356396fee0f330d45c80c",
    "classes:classic-coinflip:d1":
        "ea664cdd30168c42783607e657e21daeac9f399c3d9b0b41a7a9496b492fccb1",
    "classes:classic-coinflip:d30":
        "f2ebb993aa901399ed4e9611933b45643d177205847738826a2569e67b304c19",
    "classes:classic-coinflip:d7":
        "2a56132f5dc152f5346ab375e150674fe34b940a4bc402a825f2915b19295be9",
    "classes:classic-selection:d1":
        "0d33eab21db50b9025967aa24d0d072fd0ce49deb9b750c3250c69a7b365a2ea",
    "classes:classic-selection:d30":
        "44145ed5ce48be0df7e7e25e6a022490a33b2ec62dd7989a092abb3fb53ec731",
    "classes:classic-selection:d7":
        "5d589c29cc3d79538f017f5707849a3fcc9ac4670108949295579693f3bb41d4",
    "classes:classic_coinflip:n1:d7":
        "ba6b8272f8a5f91ad119db1f18f6a6be6723c548d363620aa716918ef6bf94b5",
    "classes:classic_coinflip:n2:d7":
        "2a56132f5dc152f5346ab375e150674fe34b940a4bc402a825f2915b19295be9",
    "classes:classic_coinflip:n3:d7":
        "25c7bb99a43e9bffd9c897bf4f8ae9fbba14ac43933356396fee0f330d45c80c",
    "classes:classic_selection:n1:d7":
        "d813bdcac1bf444800c47bf2e690814f72d848d48a651624e1025d7875ba0774",
    "classes:classic_selection:n2:d7":
        "5d589c29cc3d79538f017f5707849a3fcc9ac4670108949295579693f3bb41d4",
    "classes:classic_selection:n3:d7":
        "32f99983d9b0e3d12b8d57701692bd6147f49a72c3314deb559da8573e5627f8",
    "classes:deemphasize:d1":
        "ea664cdd30168c42783607e657e21daeac9f399c3d9b0b41a7a9496b492fccb1",
    "classes:deemphasize:d30":
        "f2ebb993aa901399ed4e9611933b45643d177205847738826a2569e67b304c19",
    "classes:deemphasize:d7":
        "2a56132f5dc152f5346ab375e150674fe34b940a4bc402a825f2915b19295be9",
    "classes:deemphasize:n1:d7":
        "ba6b8272f8a5f91ad119db1f18f6a6be6723c548d363620aa716918ef6bf94b5",
    "classes:deemphasize:n2:d7":
        "2a56132f5dc152f5346ab375e150674fe34b940a4bc402a825f2915b19295be9",
    "classes:deemphasize:n3:d7":
        "25c7bb99a43e9bffd9c897bf4f8ae9fbba14ac43933356396fee0f330d45c80c",
    "classes:gn-dn:d1":
        "ea664cdd30168c42783607e657e21daeac9f399c3d9b0b41a7a9496b492fccb1",
    "classes:gn-dn:d30":
        "d6f539fc16a4274d5cf03b1163067c628001c2bfc1ac1282e943d8b8d80e971f",
    "classes:gn-dn:d7":
        "ebebb01b76781b1e35c2954c2c88178acdcf472661883ea4ad8fbfe6710ea71f",
    "classes:gn-tc:d1":
        "ea664cdd30168c42783607e657e21daeac9f399c3d9b0b41a7a9496b492fccb1",
    "classes:gn-tc:d30":
        "d1afbe723aa4bc8a869dde131f30f29fe24294cd4c40e4a3ee401a52ccca6174",
    "classes:gn-tc:d7":
        "570ac5eb74b9ee294634b404f4b63a70eeb577520e489fe0327db9dbf412205b",
    "classes:gn_dn:n1:d7":
        "19390ff6ab47b3710faf94111205012462faed92ed09224f3475d902c3c09f36",
    "classes:gn_dn:n2:d7":
        "ebebb01b76781b1e35c2954c2c88178acdcf472661883ea4ad8fbfe6710ea71f",
    "classes:gn_dn:n2:d7:claim(boy,d0)":
        "97132b3b9ebc9c56048e5f2bb39be30d946d843a715f43bf134e4291775aca47",
    "classes:gn_dn:n3:d7":
        "cc4a8679204984d422aafb3929e678a50ee4f9b61efd75063cd430e8fdc06400",
    "classes:gn_tc:n1:d7":
        "adf9acd49029e1267de3845d01a7a0d70406a7332758671ba279d6986c422fb9",
    "classes:gn_tc:n2:d7":
        "570ac5eb74b9ee294634b404f4b63a70eeb577520e489fe0327db9dbf412205b",
    "classes:gn_tc:n3:d7":
        "8a6e32e54f9145138a9847a6748936bb89240d9806cf0badcb16c04aa7df44e2",
    "classes:yesno:d1":
        "ea664cdd30168c42783607e657e21daeac9f399c3d9b0b41a7a9496b492fccb1",
    "classes:yesno:d30":
        "8fa3eaf8789424f19dde25ee2c11ec48cfb35f47bbd6f0d0cf6f1764cceb9cfc",
    "classes:yesno:d7":
        "88447ec7936e62ef7b3b793df85b73dbdd947ea08c7c4b81aeb50f03811a4a2f",
    "classes:yesno:n1:d7":
        "dee940572833723500f3d38028d8e374b610ab1681fa18d9ae1fdde689a81f30",
    "classes:yesno:n2:d7":
        "88447ec7936e62ef7b3b793df85b73dbdd947ea08c7c4b81aeb50f03811a4a2f",
    "classes:yesno:n3:d7":
        "b8f8374d80640297d057f360b911eba95e285046332afeadd2ab3d77d8522308",
    "csv:any_answer:n1:d1":
        "5e1baf13595739f25558ccaa1c8f80a88d23970b25031676072d915259bfeeda",
    "csv:any_answer:n1:d12":
        "1982933eab42f4ea018e0e158e2d547ddac6437f6d484e20c589e391abd476ef",
    "csv:any_answer:n1:d7":
        "369b3decd40d7024c3245b6fd5219531e5fd7c1cce43891a5c6e1a926e975176",
    "csv:any_answer:n2:d1":
        "b0e3bfff145dc520b9c50f3b7c681f478c5b58f45f4dbafcbe498a63ed28993c",
    "csv:any_answer:n2:d12":
        "1a8ac239cf35c4b500bbb5a5f26dd15c6edf4bbfdd67c634c75fb4a83d1be7b9",
    "csv:any_answer:n2:d7":
        "8f43710797881a89f220493b840ca1a9a348100361da6216c059df501c8c233c",
    "csv:any_answer:n3:d1":
        "50f56b1ad3124c38b2eb12c22dcb95fb77cf5465290a0e47b6ce4adece2ae489",
    "csv:any_answer:n3:d12":
        "9f8e50c761e433cbbaa148a499ca6540dac40b759943eb2676e73a92657bf4a3",
    "csv:any_answer:n3:d7":
        "6df29821502252355ddd3175bdd03c6a89f2705ec78aad55563c4720a0733c2f",
    "csv:bc_dn:n1:d1":
        "1331f6f1c697d57d89c559b8624758ed3a01374036c93a597b040fac3d518f2d",
    "csv:bc_dn:n1:d12":
        "4e5f615dcaa0f593a6d4b43a21a0ccd05e19021791e94ffd63db004625c8f3a8",
    "csv:bc_dn:n1:d7":
        "91751dff1d705a5ad6480d2460a999663360d1712b88c2ad0c41eaca5402094a",
    "csv:bc_dn:n2:d1":
        "d36e7a8e7747f66570a34f433854d61aabcee1c2fead6ed214a2b8a7837ca4f8",
    "csv:bc_dn:n2:d12":
        "2247af282b6b9aa7857a1933f8ff7b6c0d2ae3cff96437c98353ddfaceae9d8f",
    "csv:bc_dn:n2:d7":
        "a15b1f3de96d233239878463ef419b2c9c1c46ab365e762a83a827c11a63bbb1",
    "csv:bc_dn:n3:d1":
        "10e68c7112ae7d531c9efbbfcc848e09b17b47643b953c6b4c86db629e123a06",
    "csv:bc_dn:n3:d12":
        "4a034ed2d3d14c8c46c5f00470894ba6dd6e952a0e8f7bdd239e1e699c2c037c",
    "csv:bc_dn:n3:d7":
        "f97f407ff21803bdcea68a3275cd73bd2c77f7de88ffd3472a4bc965ad0064cc",
    "csv:bc_tc:n1:d1":
        "77cdaf517210d01f076798c31804d98503cdc2a2316dc8547d0897cc30837a9e",
    "csv:bc_tc:n1:d12":
        "77cdaf517210d01f076798c31804d98503cdc2a2316dc8547d0897cc30837a9e",
    "csv:bc_tc:n1:d7":
        "5644b9a22e919f5b649b52975c944af663fac25402902a683ff27ed437f15e01",
    "csv:bc_tc:n2:d1":
        "77cdaf517210d01f076798c31804d98503cdc2a2316dc8547d0897cc30837a9e",
    "csv:bc_tc:n2:d12":
        "77cdaf517210d01f076798c31804d98503cdc2a2316dc8547d0897cc30837a9e",
    "csv:bc_tc:n2:d7":
        "4cd96a7bd59e8d3b05fe1a358c50f53bf02bb580c239e8b07bcd9fc39f7dd0cd",
    "csv:bc_tc:n3:d1":
        "77cdaf517210d01f076798c31804d98503cdc2a2316dc8547d0897cc30837a9e",
    "csv:bc_tc:n3:d12":
        "77cdaf517210d01f076798c31804d98503cdc2a2316dc8547d0897cc30837a9e",
    "csv:bc_tc:n3:d7":
        "5d3ab28b8160e9ff90ff80c282de852cb1c62f1c26fdfdba5f3ba44ea4d072bc",
    "csv:brag:n1:d1":
        "47067850dd21087847749268a786b04d7a8852bd794a455008fb6dfe4b8c759a",
    "csv:brag:n1:d12":
        "d30ca81ee6e889d3ad226f9415b298affad8f3491fc495702faac03fe0c74d5d",
    "csv:brag:n1:d7":
        "98aa34128e300841509b1e870e42b910e9fbc75a9c215686dfb93c68c9265fdf",
    "csv:brag:n2:d1":
        "7590a41b5d5d5b9b74691d2108201db165ac9b0de61818d63ea5b9b8725349ad",
    "csv:brag:n2:d12":
        "b8022614c67f19f65934a86a082fea163f623e4f92385e997923a6db9de604d7",
    "csv:brag:n2:d7":
        "93ebe7d57820aa19248d03b17cdc5bada70145e4591fc074ba4f6cb9b8ad0ad2",
    "csv:brag:n3:d1":
        "2f6372b22ed87fece669aa2c5cd7001c3c187701e0e0eb23e12d3ef58db67a66",
    "csv:brag:n3:d12":
        "6c1124b0cdc35afd57257d921d9a7f12de53b2edeb7781ac4e7e68c30235c705",
    "csv:brag:n3:d7":
        "de107a8d33b603bf24d948a6540f7e477a0840844543428b1393536933c9854a",
    "csv:classic_coinflip:n1:d1":
        "19d7fcfe64c7395cfaa7546648c6de4b45d51179bfc044a820c48d580cd5f777",
    "csv:classic_coinflip:n1:d12":
        "75314099364e00397461d1bb0018f23cfc40efb8ebf159dc13e2e5b68913c4b5",
    "csv:classic_coinflip:n1:d7":
        "a79cd9b176f8cda087cdcb4981b7263955c337256e9a89a2d217397aefff08c4",
    "csv:classic_coinflip:n2:d1":
        "54b43121c3c1e9dc2302a77e48c785e9ea9e58a675a2b4a940ed69f19dd3a387",
    "csv:classic_coinflip:n2:d12":
        "10f0b1d2287c06cf4e10c6ec6eacf2570a874f2c96e172b481da7842f0abc843",
    "csv:classic_coinflip:n2:d7":
        "af7ca3cd5c1205f303b6f137a8632f05bb6d341e089abc039488fe0afefd7f51",
    "csv:classic_coinflip:n3:d1":
        "ca76ef342a9754a402c28c33da1052c15d197ae19ba5cfa071445900cd788e30",
    "csv:classic_coinflip:n3:d12":
        "779344b7185ad1058fcec9a71869931dc09d2413d62aceedca99aaeb62a4bf24",
    "csv:classic_coinflip:n3:d7":
        "3db4d24f20d24adc498cd9d9a1fbfd9487131c98128a52bd39b2612081dc890f",
    "csv:classic_selection:n1:d1":
        "dc39b866be7bc0bf83506237db1a499dc74a29133156e250969ae9bb3668bc36",
    "csv:classic_selection:n1:d12":
        "47b280fae4c42cb4f4624ea4237c3692267a8eb95049f3075245b9b930448889",
    "csv:classic_selection:n1:d7":
        "eaee79877b8830b3a1934f094b073430925562ee0482a75636e9150a23ca010a",
    "csv:classic_selection:n2:d1":
        "7d7ee494b8281f956c40b7e9304e010bdbf5dfe61b80e5ba5c61c8b222a68fe4",
    "csv:classic_selection:n2:d12":
        "b4ab499a1c871904efa21b1144620a2a3f7e5645c28b891bdb5d6db634d93a7a",
    "csv:classic_selection:n2:d7":
        "11c12459421006db3b169bf3ca2b7111e9f5754b57a5f8db159ba9bb74a684a8",
    "csv:classic_selection:n3:d1":
        "b94e10b8623417831e51918f74c92c98a613f2e21036915809f3fb4d9a58b71e",
    "csv:classic_selection:n3:d12":
        "890994de17b858a5c869c6e1e254439e2ad3b3314a5b3713d2eda1d65d1d9775",
    "csv:classic_selection:n3:d7":
        "a10d5346f71ae58b28e542b1a5147e0269fbaccb985f9397085681e4b8330edd",
    "csv:deemphasize:n1:d1":
        "33b3d5b6ffe8987795a08b03fad19f8befb1a777e63144598265d055c8c190a1",
    "csv:deemphasize:n1:d12":
        "d7ef1a36862ac9325780ed759d5fc0d353217c1d87b67c52ea653c631cbbb9e4",
    "csv:deemphasize:n1:d7":
        "d6662016e06c9bffa781bb11e7a89e0276c0e989c9a99714cde7607a7bbed9e2",
    "csv:deemphasize:n2:d1":
        "0b57cb9f341c121fa2662d5aba9bbcdb45682143a83f7e6426f5e99b001e0871",
    "csv:deemphasize:n2:d12":
        "43ecd7cc61b975ca13bf86f4d36ad7a9ce25e55e732ba7a0a14f33e712827542",
    "csv:deemphasize:n2:d7":
        "7b4a78ffdbb9a1c3c4a92e96440a0c579e71da68655482961ab987c7ec8e1617",
    "csv:deemphasize:n3:d1":
        "5b1495bc73673cb4a9ecb2828c298d6f779b852b11a9c12ff4d37c0c3ed04795",
    "csv:deemphasize:n3:d12":
        "c75fbf5a12e1838857e10b1f8cd2dd078d508eaacf804147eb3531149c410dc1",
    "csv:deemphasize:n3:d7":
        "278b984705e440fbaa350804b18418c075d301d1890b04de39b57372647eb52a",
    "csv:gn_dn:n1:d1":
        "aad68fa68769fd3d918ad62793519edd71a4192438ff5545657d84ff82eba6f7",
    "csv:gn_dn:n1:d12":
        "637f1af3f41b123c55245cd5291c37745de4c44590df17777d111c3497e9b637",
    "csv:gn_dn:n1:d7":
        "0da10caccfa8c900b497a7d367458be45789c6ed7617a1f2a31d7889c850661a",
    "csv:gn_dn:n2:d1":
        "4d033bc2e4464266629e2fa9ac6c445adf88ee152b7b5d8aaa8f078f8fe26ea5",
    "csv:gn_dn:n2:d12":
        "84c6f0808e064de739782eb16c775be738a7a243f56e64030d5848d59f47dd36",
    "csv:gn_dn:n2:d7":
        "601dc55d7d191cd8ccfa1e46530a54ad25e6e720d23d13ad3050a7e25176ee5f",
    "csv:gn_dn:n3:d1":
        "4c8a719059bb64300a8703a7fc9eeba50e9847708245594009a39110709795de",
    "csv:gn_dn:n3:d12":
        "0c23dc188bf0ae84aca686447f5a56f2b693ec3fbc7b80f27bfffbe6d9a44b14",
    "csv:gn_dn:n3:d7":
        "397d5e147dabb61c83f508bda9272a5cd93478a847c22766fb288a050beaa44f",
    "csv:gn_tc:n1:d1":
        "77cdaf517210d01f076798c31804d98503cdc2a2316dc8547d0897cc30837a9e",
    "csv:gn_tc:n1:d12":
        "77cdaf517210d01f076798c31804d98503cdc2a2316dc8547d0897cc30837a9e",
    "csv:gn_tc:n1:d7":
        "8cc42a9792db8282bc65e05d121261e1c80e966732ed96ebdf83e9d81831178e",
    "csv:gn_tc:n2:d1":
        "77cdaf517210d01f076798c31804d98503cdc2a2316dc8547d0897cc30837a9e",
    "csv:gn_tc:n2:d12":
        "77cdaf517210d01f076798c31804d98503cdc2a2316dc8547d0897cc30837a9e",
    "csv:gn_tc:n2:d7":
        "9512efb54a8a4086a5333a061588b64960db5a6406c0aa07309db114fe9853cd",
    "csv:gn_tc:n3:d1":
        "77cdaf517210d01f076798c31804d98503cdc2a2316dc8547d0897cc30837a9e",
    "csv:gn_tc:n3:d12":
        "77cdaf517210d01f076798c31804d98503cdc2a2316dc8547d0897cc30837a9e",
    "csv:gn_tc:n3:d7":
        "e3799d1902a76480f23c07e7bf7b51db741e87d58928668042597558300c0f90",
    "csv:yesno:n1:d1":
        "77cdaf517210d01f076798c31804d98503cdc2a2316dc8547d0897cc30837a9e",
    "csv:yesno:n1:d12":
        "77cdaf517210d01f076798c31804d98503cdc2a2316dc8547d0897cc30837a9e",
    "csv:yesno:n1:d7":
        "5c06295235953afb33f0244df1d159a3376fedf260300e872691d0606054a737",
    "csv:yesno:n2:d1":
        "77cdaf517210d01f076798c31804d98503cdc2a2316dc8547d0897cc30837a9e",
    "csv:yesno:n2:d12":
        "77cdaf517210d01f076798c31804d98503cdc2a2316dc8547d0897cc30837a9e",
    "csv:yesno:n2:d7":
        "351a3cd7103f830e3e1e544596d3aa71a845862c1c5c924aa6fc74f6400f5527",
    "csv:yesno:n3:d1":
        "77cdaf517210d01f076798c31804d98503cdc2a2316dc8547d0897cc30837a9e",
    "csv:yesno:n3:d12":
        "77cdaf517210d01f076798c31804d98503cdc2a2316dc8547d0897cc30837a9e",
    "csv:yesno:n3:d7":
        "184520656e6598bec12de35958c9fb8dc984356b5fb46d96853325ac2f691d80",
    "eval:any_answer:n1:d1":
        "f446505d529b735a482e892579e9618bba4bb8caee53a8592fdec1ef741e8b18",
    "eval:any_answer:n1:d12":
        "d260055393feff65654ac0c1d1961c46cfef98810caa530cac1f8f6c32c3fc9b",
    "eval:any_answer:n1:d7":
        "ade2013e72eb4bc54ad6a0b96ff69b453cf2464a9f0ffd8190c9960a32dac8ed",
    "eval:any_answer:n2:d1":
        "41265a72a8bc8fbd22f4123c2e0604233865023f0a47b62bda3273ae72799dec",
    "eval:any_answer:n2:d12":
        "ac15ae8d3f487ae6ec7c010f9735f4f4570ac37c910b6adc88b51399bd9159ec",
    "eval:any_answer:n2:d7":
        "b2f2c7a36edff7ccb7effdd07f0426bfb2c6f478454122ea2615efdba1739cf4",
    "eval:any_answer:n3:d1":
        "df233ae8807da60280011dd8ccffb68650ba4877ccc6b4a88b45a120832bb45a",
    "eval:any_answer:n3:d12":
        "d3d4462fbc8e0a24d1611e54d8e02322b2243ac84be0a05fc3793463ba6ecd9d",
    "eval:any_answer:n3:d7":
        "dec892324aaaf45eec66b14a44a2e2237af63b154b1bab389d82b897df5d4853",
    "eval:bc_dn:n1:d1":
        "ac7fddac88056e9db0dc265dd339e736dfaa574ebdbd08368b2294899fd01cf8",
    "eval:bc_dn:n1:d12":
        "bb90e02a02b5ad038ce8c0ca65964430d274893281e6f7c46d6f09880662aacf",
    "eval:bc_dn:n1:d7":
        "162e64cc689f1c28f629ed85cd345108cda0b97078eec7717dacde5b9978e657",
    "eval:bc_dn:n2:d1":
        "71db33d7ad5d06804829ab3f1ef43d9fc4acc174b0c0cb5a720f15cae83a6132",
    "eval:bc_dn:n2:d12":
        "973b0527d99c0ef40d78cb0792d320fd731cb69c6ce8b386529b1895017c63da",
    "eval:bc_dn:n2:d7":
        "59ce7bd6ce2183a757d713fbbd87879f730260f5186438f425cc5aa0a3c6d01c",
    "eval:bc_dn:n3:d1":
        "9b0c441c5600d0f794b9dac1bb549ceb6b72a055de251294ae603bede5958dbe",
    "eval:bc_dn:n3:d12":
        "50ff5f2ef0baf3c353991554eaaf141527c6b1c48325eb7ae2d98eddec12dd04",
    "eval:bc_dn:n3:d7":
        "bddd9ebc268deb3ecb337bcb832bcae01d60ba71fc3bb8e182857067173181c4",
    "eval:bc_tc:n1:d1":
        "77cdaf517210d01f076798c31804d98503cdc2a2316dc8547d0897cc30837a9e",
    "eval:bc_tc:n1:d12":
        "77cdaf517210d01f076798c31804d98503cdc2a2316dc8547d0897cc30837a9e",
    "eval:bc_tc:n1:d7":
        "1c99fb90cedea18a862ca1053033d46d26607273f965c0088d11eb8dfd8e900e",
    "eval:bc_tc:n2:d1":
        "77cdaf517210d01f076798c31804d98503cdc2a2316dc8547d0897cc30837a9e",
    "eval:bc_tc:n2:d12":
        "77cdaf517210d01f076798c31804d98503cdc2a2316dc8547d0897cc30837a9e",
    "eval:bc_tc:n2:d7":
        "75629a96f0b61fb4a3e999dbfba1e277595753365ce98644ef3881b664e33801",
    "eval:bc_tc:n3:d1":
        "77cdaf517210d01f076798c31804d98503cdc2a2316dc8547d0897cc30837a9e",
    "eval:bc_tc:n3:d12":
        "77cdaf517210d01f076798c31804d98503cdc2a2316dc8547d0897cc30837a9e",
    "eval:bc_tc:n3:d7":
        "c2c43ed316a1891c7c883c7b7de29c446b63513a521f0f5284fc4eb3f61e03b2",
    "eval:brag:n1:d1":
        "ec576558c703d6303a451d30722d5dc235aa596df480111b152576607ccbad1d",
    "eval:brag:n1:d12":
        "338d0df794211ada3cac4249cff00afece38c547cca4daf310de81b3ea3eef42",
    "eval:brag:n1:d7":
        "4f5c2a7987eb4851c851caa78f47d4a68748103ed9339c9c01f48106cd08aff5",
    "eval:brag:n2:d1":
        "bbe9518c8e00c5c6c62c066f51280e4c529693e48e1339b0a0bf51163de803d8",
    "eval:brag:n2:d12":
        "70c086fa3e6658b36abad69cca55facd079d5ead024b13d477e9d10e3e4fde8a",
    "eval:brag:n2:d7":
        "7ed8a8119410fe55336094bbdc008da5cb63652336cf91499b2c3afdb4d290b2",
    "eval:brag:n3:d1":
        "9a1da18ad4423ea2fe93d06eb1608e38e0321c23afb974e9c1eb57202b648e5c",
    "eval:brag:n3:d12":
        "4ed3956ccf4b1b9b242138e5b1ebc776d065bfeaf6e91637f0441cf680176592",
    "eval:brag:n3:d7":
        "0f33250e8a6f55744b91f16acaa2d1df90f44dcdce2587d55d13593153e7412b",
    "eval:classic_coinflip:n1:d1":
        "215a1287dd64c65454b75dfaa483a7c293e05d28884bb5cb30b8224f475dfb54",
    "eval:classic_coinflip:n1:d12":
        "5953fcfa65cb70ec7fc52994dfca1780e775d5ff5cf1dc7992af63238970bb83",
    "eval:classic_coinflip:n1:d7":
        "2d5e6f24be83cb9bfbac0d181102f8ad49a31d468895416105e915bd810001e5",
    "eval:classic_coinflip:n2:d1":
        "40dab6010ddb16c55da033b70c2a9d9a4f61923ae83041294ef1ae8b8a496260",
    "eval:classic_coinflip:n2:d12":
        "4f53c48a1dd96ff90458ee5ce9c6cd488b526e0f1b28178d28628bed7d2d13f3",
    "eval:classic_coinflip:n2:d7":
        "15bb575786b2058d713a898ef473e488b06e01012a2521431801a48be90e583a",
    "eval:classic_coinflip:n3:d1":
        "355506be8e1ddd9f0d155dfe3016057c72e6f4867a6ffc337fc250148e29de2c",
    "eval:classic_coinflip:n3:d12":
        "985d5a017ca40277f494ecb4438d9a01abfb0f31eab899b666b3568b0e292954",
    "eval:classic_coinflip:n3:d7":
        "e1eacdab26eacd32a0775a20ab647d697145277427efac5adde52172600b8d8d",
    "eval:classic_selection:n1:d1":
        "1923c55317fde271f92350abc52ddf40cd8d94b2ddb41b914d6993da249f3143",
    "eval:classic_selection:n1:d12":
        "3303c0d94efcbdcc081dc8e0cb515a395eaf0d497f067cd028638f2ffe15a45c",
    "eval:classic_selection:n1:d7":
        "00099a88b0a3b319c43bcde16bdbca010dbb8760c24603be80d5c4bad735876c",
    "eval:classic_selection:n2:d1":
        "45beb2fb5fd1d691fadd33168216503c1ccf39982387be7f460afb17ea5637b5",
    "eval:classic_selection:n2:d12":
        "bdfe7b68d16a0819ba6ca9ff715d851f26743a7e37945b24443373a177148cb8",
    "eval:classic_selection:n2:d7":
        "30fe6b4937a39d9e93fd4e2621766698ececbad04b7460cc56d1f0639777b8cc",
    "eval:classic_selection:n3:d1":
        "4141a2d0fb3040c30e12a15bba404284bb2ba1ef984da918d1192e10337185b3",
    "eval:classic_selection:n3:d12":
        "c8be67d9457b6fdf84093bdb25d90cff2cd8cc6653556b8aa3244e23e329729b",
    "eval:classic_selection:n3:d7":
        "c638f5da44b7aee588f0bc47d5975493db44abe3a82645c19986279ff593c856",
    "eval:deemphasize:n1:d1":
        "d6aee781a6259bdfe6fb32e5dfb4da66ac1b9e47b2056a972d61dd6f46de7e73",
    "eval:deemphasize:n1:d12":
        "7066e95a752bf143c24486b05ddd3580cf981ac61dd8c67ee6d3c65deef86ee0",
    "eval:deemphasize:n1:d7":
        "88f49e8c8bf2df8947520755f369dc548a10a793750bf051018688488346e7e7",
    "eval:deemphasize:n2:d1":
        "ed94d4ed9df7b3a4bc7be7c0ffca21565b9e55333c8ae2fd53b287d9a579ef9b",
    "eval:deemphasize:n2:d12":
        "5ad6aa8d7c46502fcc7d2690e13676be1705505dfda8f3cc065aa0a00c7e3a84",
    "eval:deemphasize:n2:d7":
        "997e41d4dddd23a9cc04017e44e9ca5660ab25d8d0261c183bfd4d4eadd1d43d",
    "eval:deemphasize:n3:d1":
        "b745b7a9748c65554165f687bc40363f6fbceb103dfe8e714d90ce44251d4dd3",
    "eval:deemphasize:n3:d12":
        "eee8124c8d8a57c26ab41ccb9d06361f3fe554ef2937c32a8fbd366a92e6a294",
    "eval:deemphasize:n3:d7":
        "6c033a52dc3fd8f7207f8fab55fe9c5f901b61feec911649b7e5a0b7cb11657f",
    "eval:gn_dn:n1:d1":
        "c3e546dc2ae7917004c76b9c1e83e675655072bcb1c5e3e951190ef91ea75bde",
    "eval:gn_dn:n1:d12":
        "53ae93ba4f1d7a1d3210d9cedf41cffc8cb91856def019e87722cbd9ad50bfdf",
    "eval:gn_dn:n1:d7":
        "d6013059a74a1f8a4db0bdc5d0f25008eb3b6d74735dbc170a1d7fc99c65ed16",
    "eval:gn_dn:n2:d1":
        "cc315d58dbb10ed9d6d89753398c6cbda50e5da2c0af62db519f0c9dd5334a6c",
    "eval:gn_dn:n2:d12":
        "0bc9b2a42e8ec0eebba22652c7fcdd56c64ae9fb39fc4d36e41dc8424484ab39",
    "eval:gn_dn:n2:d7":
        "4812a87ea9232ccf701ebdc51f598808c53f7edfe4d634191b8853dfa6a802b3",
    "eval:gn_dn:n3:d1":
        "9a05b886c37019ea188c849b5f0b942406908ba7099b1bbdde43038122fd86e8",
    "eval:gn_dn:n3:d12":
        "8584f975a636b6a29038b4312054be0219bd7f26801ad68e399ab0fb3c1e670b",
    "eval:gn_dn:n3:d7":
        "fdb28ed8ad660f678638733cd32ee631827a65b196ed5913a9d7a60a3c11d512",
    "eval:gn_tc:n1:d1":
        "77cdaf517210d01f076798c31804d98503cdc2a2316dc8547d0897cc30837a9e",
    "eval:gn_tc:n1:d12":
        "77cdaf517210d01f076798c31804d98503cdc2a2316dc8547d0897cc30837a9e",
    "eval:gn_tc:n1:d7":
        "6fe2ff73569fa00ab598afb235dd10393aece5fbd99c3ed15ded4e501598d4fc",
    "eval:gn_tc:n2:d1":
        "77cdaf517210d01f076798c31804d98503cdc2a2316dc8547d0897cc30837a9e",
    "eval:gn_tc:n2:d12":
        "77cdaf517210d01f076798c31804d98503cdc2a2316dc8547d0897cc30837a9e",
    "eval:gn_tc:n2:d7":
        "cfd4541f8050bd1c648757ea13cae022c7575d1f69efe040825fc61d62d60eb2",
    "eval:gn_tc:n3:d1":
        "77cdaf517210d01f076798c31804d98503cdc2a2316dc8547d0897cc30837a9e",
    "eval:gn_tc:n3:d12":
        "77cdaf517210d01f076798c31804d98503cdc2a2316dc8547d0897cc30837a9e",
    "eval:gn_tc:n3:d7":
        "cd3a7609b3121296071b296d2a90e8af20cb1ed1740dd1025ccfab66d8759ce7",
    "eval:yesno:n1:d1":
        "77cdaf517210d01f076798c31804d98503cdc2a2316dc8547d0897cc30837a9e",
    "eval:yesno:n1:d12":
        "77cdaf517210d01f076798c31804d98503cdc2a2316dc8547d0897cc30837a9e",
    "eval:yesno:n1:d7":
        "f689a146f58b7163ead0e0dd50eba1e5eb0f9a382c47c3c7c3f4c4f3c72de26c",
    "eval:yesno:n2:d1":
        "77cdaf517210d01f076798c31804d98503cdc2a2316dc8547d0897cc30837a9e",
    "eval:yesno:n2:d12":
        "77cdaf517210d01f076798c31804d98503cdc2a2316dc8547d0897cc30837a9e",
    "eval:yesno:n2:d7":
        "708071e524ca1f2ea74bab7e8ae4303afdc1057e2d813d48785ad13a433b3f37",
    "eval:yesno:n3:d1":
        "77cdaf517210d01f076798c31804d98503cdc2a2316dc8547d0897cc30837a9e",
    "eval:yesno:n3:d12":
        "77cdaf517210d01f076798c31804d98503cdc2a2316dc8547d0897cc30837a9e",
    "eval:yesno:n3:d7":
        "b6e7a64869722319e99125dd4bbe3501c3162a1cc7d36102a0051a9003c8c878",
    "kernel:any_answer:n1:d1":
        "91d59dd02cc3561570d356316d99a69dd6e4311e532d5423ad9b935a909b3bed",
    "kernel:any_answer:n1:d12":
        "2b735d42266c50d31e4f134604234fb0b675fb853056643ea29b2460cf39fc0b",
    "kernel:any_answer:n1:d7":
        "2cbcad8b7bc67605b7e71e62ee7cea5689f2a1abbbc3b33b3765ca1c10bc3cee",
    "kernel:any_answer:n2:d1":
        "3747e6fde6aeae3b9559609e22b7fec3228f7e97ac464c9d2bbeca2842578748",
    "kernel:any_answer:n2:d12":
        "5a6c2c218c2ded50a30ce9c6a391abac677dc28798f387afb2c2fdf39a33a4a6",
    "kernel:any_answer:n2:d7":
        "a081bca5bd58978cea73663c1f77907db525f9eba5b34752fbe7a179adcc72c5",
    "kernel:any_answer:n3:d1":
        "478f2d33556a63a74201119dcb0ba53f4cae24eff98185e372da86e140af0946",
    "kernel:any_answer:n3:d12":
        "fdb5dd6ca88d7f2bc6bc19a097464c482caa51d62bf63b97fd1c0b80f3f40d08",
    "kernel:any_answer:n3:d7":
        "773904a61ce6310f5a2adde1bacc770f6befcf2a904b3487acf920b95eb079d1",
    "kernel:bc_dn:n1:d1":
        "20e64ad574399d167712b3054e17b88c88d71fe772cce7103e7ee149f173059d",
    "kernel:bc_dn:n1:d12":
        "a5d3d199a71aa07868a00195b502ecda8649739e8a5e85db55b8a40eca999490",
    "kernel:bc_dn:n1:d7":
        "681371a61e6ef0c1cb9a0fd6fc4246be3e6cdf275f8311121810927faad8f733",
    "kernel:bc_dn:n2:d1":
        "e6a005214441bdd0f410b81da8495b583b4ad793d5fd6bd0b2c455aae075bd40",
    "kernel:bc_dn:n2:d12":
        "5e4d0cfe42a9cdad73d5364de436b0007e5948686737a076f448ba5cf04122fe",
    "kernel:bc_dn:n2:d7":
        "548650dcc65432232362b17997f9943bae27486d6e592ef6175a0a485c1fd94b",
    "kernel:bc_dn:n3:d1":
        "95ab865bc72efb75ddb92f24471ca77ad9969e69ffa60ee0cf85833965d26307",
    "kernel:bc_dn:n3:d12":
        "323ba4250f503cf62d8bfb97077cafad7fdfe9122bdca5e8ec5c3b90f626fb12",
    "kernel:bc_dn:n3:d7":
        "31d772e4d70323768d7514ead0a63ce39b30550dc9dcd55004213f663bdb78eb",
    "kernel:bc_tc:n1:d1":
        "46fa12619330e1dff2100f421f6f10fbf020ffdd5fc4eaa882c1f3c0404438b3",
    "kernel:bc_tc:n1:d12":
        "46fa12619330e1dff2100f421f6f10fbf020ffdd5fc4eaa882c1f3c0404438b3",
    "kernel:bc_tc:n1:d7":
        "585f3f5bfa420e86e21930f3d0abe5bcf587e3dfd864311ec7308ba9ec7346cd",
    "kernel:bc_tc:n2:d1":
        "46fa12619330e1dff2100f421f6f10fbf020ffdd5fc4eaa882c1f3c0404438b3",
    "kernel:bc_tc:n2:d12":
        "46fa12619330e1dff2100f421f6f10fbf020ffdd5fc4eaa882c1f3c0404438b3",
    "kernel:bc_tc:n2:d7":
        "d8832829b862379ec1a714bbcb66846c676453032db75f4546be7dd10ae0ecf0",
    "kernel:bc_tc:n3:d1":
        "46fa12619330e1dff2100f421f6f10fbf020ffdd5fc4eaa882c1f3c0404438b3",
    "kernel:bc_tc:n3:d12":
        "46fa12619330e1dff2100f421f6f10fbf020ffdd5fc4eaa882c1f3c0404438b3",
    "kernel:bc_tc:n3:d7":
        "981a3e9c2d66d47c24f05d3a7201af0f6c24244f27ebe645d95af2a256ed180f",
    "kernel:brag:n1:d1":
        "970b60df43b9164b1c259dc1b542f576d9928c4c43c9d7a7b3f5a323c45d720b",
    "kernel:brag:n1:d12":
        "be7160cd3a40d09a81832d05321d71127812e7f48a70808c34e56f868c137be3",
    "kernel:brag:n1:d7":
        "d0a69eea3ed35c9c12af44ade16b704827c67437fe3666e0aebe1eb2de127357",
    "kernel:brag:n2:d1":
        "3b435dfb078058583ad4a040ec7c55af9b43e768666bf870def5c81f07e17e42",
    "kernel:brag:n2:d12":
        "f4442b62d9de8c0753a0befe5e8a9da957a3fd99fef2a3739ff34ff54d6551c6",
    "kernel:brag:n2:d7":
        "d54ff2ca2537e64cb9ef3cdca30b5b8edab7cd7111c7c8cff4dc96db71091930",
    "kernel:brag:n3:d1":
        "d8c90a242c45e0f2aee4cffd7009ad9c917247f61f83b290da6a6b8660b53f62",
    "kernel:brag:n3:d12":
        "12e0ddf60947c9e6a466b45911c6c4e79f704e5a1cb779b1ddc83f5f64ab90f7",
    "kernel:brag:n3:d7":
        "3fca07fea2946df014888baf73581fbea905b63813cce25113f3785776ad941f",
    "kernel:child_or_not:n1:d1":
        "f40b29bc5a06e4b55ca0fce714a673f9b694a1adef942d43cf3ecfbe882f5db7",
    "kernel:child_or_not:n1:d3":
        "1bbe4828287b6911a61b2b27bf4cf88a22d122eaa16cf24a7c744353fbbbf7b0",
    "kernel:child_or_not:n1:d7":
        "4dbb4e2cd23ccaf73bd8af99531ac2b5e037d9a82036315441e48b59c45a0a95",
    "kernel:child_or_not:n2:d1":
        "4e62dc4ae494f4f915acceeec4652fad7f942b0b4e101d17f494fbc921fef248",
    "kernel:child_or_not:n2:d3":
        "77d301f6b1ed516357e823f4d7aae7a7a01fd4dcf7b24cc0ca3f08d5ae1c3881",
    "kernel:child_or_not:n2:d7":
        "a8b1411e28f2f5b6c4644910f57e07850e5591f41f9d51987b29c72a00558694",
    "kernel:child_or_not:n3:d1":
        "215d547fb9152a329c216f6a535fea3f5a1d1b00de423a527c32cfac185446f8",
    "kernel:child_or_not:n3:d3":
        "a2aea0a1f2a2340de75d9e435472b79eb7f6c820deba885b157dcec35547b51b",
    "kernel:child_or_not:n3:d7":
        "624681e4e3d0114a5b9719c8f356f93d413e58a9cc04281d463c533b33030a6b",
    "kernel:child_or_not:n4:d3":
        "52d015e19b923becdbb331acdf4d91bb53c96cac8bace057da5d9aaa9ef604b7",
    "kernel:classic_coinflip:n1:d1":
        "206d2e3e89364b95d23a0bd8af6a3bd2562ba5f8ad28cb34999797cb06c243a6",
    "kernel:classic_coinflip:n1:d12":
        "04cdbce2be200a9d77f1454dc7706fa200672d8c4ad7a5279f3248a888a4175b",
    "kernel:classic_coinflip:n1:d7":
        "49929b66016bb6afc197b8fde30aa77091192d878c0692b4e31d6afa9a59b020",
    "kernel:classic_coinflip:n2:d1":
        "1d877f18d824d7d7aa3f38873ca951f3f8782575e3397033f6a253108865d15b",
    "kernel:classic_coinflip:n2:d12":
        "113ec24e9f4c03aecf457d32c45efaa3f872eeca5a84b6d1d50de1a1ea7334da",
    "kernel:classic_coinflip:n2:d7":
        "4dddbd943b3ed3ac77d120604baa702f782fa578a9febdc3dc232b590f461d25",
    "kernel:classic_coinflip:n3:d1":
        "25b80172e90c6d37c1e4ff2f8476237991be98474a940f48d7aa49cf3b799c44",
    "kernel:classic_coinflip:n3:d12":
        "463804e079daa9b64cb6a8525e6d0c046a4071f1482326f0b1246f0038895e29",
    "kernel:classic_coinflip:n3:d7":
        "9f74bd5c67eed6db536ad8e1fd23350c67f47705676c7e2350b37928708cafd2",
    "kernel:classic_selection:n1:d1":
        "59597ecd20b221d36f4a9bd37c6b7e0f43e21719b5db1eaefd2f2999707c4745",
    "kernel:classic_selection:n1:d12":
        "e24a3c84e8b0d2df1b790960b206f262897131231a07378c7ef37c7ae0889f39",
    "kernel:classic_selection:n1:d7":
        "85b839b8d31f1507400b789a30a7e13a8eeddecfe7e5c1329ec34d12b1e2f7fd",
    "kernel:classic_selection:n2:d1":
        "87e9d70817daf2be58a9e38ac3f548a127966317db62d32155a00c2ae47977df",
    "kernel:classic_selection:n2:d12":
        "b4e9a079614c96ac75fdf62f87c361d53a530db2c6e604f3258fef83d811a95f",
    "kernel:classic_selection:n2:d7":
        "adb658988e51224705ba37e0f6acd2ed96158b663e5fd3a73707a8ca9a18853d",
    "kernel:classic_selection:n3:d1":
        "8be4560b13df837b0f496a2729c2172d3772c4c37b393e321a4cfc4b01895a95",
    "kernel:classic_selection:n3:d12":
        "a017ab175a23ea6052067899befd812190af8daa7bff6a3f0e0969c92b21ee2c",
    "kernel:classic_selection:n3:d7":
        "fea2ec62f71d1978ce9c815a5e54fa5ca0d0eb82790d38067364c0b1e9de3134",
    "kernel:deemphasize:n1:d1":
        "123a927c37380ce4c563a84bac1aeb377c66d4f7527278d51e8b1db8b663f18f",
    "kernel:deemphasize:n1:d12":
        "c6e996ebba400a9e148dbb004875ed73bc1bce68a36e0db9fdc93528fe1790e9",
    "kernel:deemphasize:n1:d7":
        "cc5ff7a18be22e12c7f5e10f0b3a2da4da6b79b44d79b3b38c42358d53bc632e",
    "kernel:deemphasize:n2:d1":
        "c92c88ab80463b6d0e7339832a5bcf24686cd233198bf5e5508f350ca97f275b",
    "kernel:deemphasize:n2:d12":
        "2402f3ebb254f0cb2ab1f5b7bac103dceb99d132208c5af372c52ae8e1e9791e",
    "kernel:deemphasize:n2:d7":
        "326c116cf78576585e64a10573b004b5302504ce8da9f8071b0e2b155fb5415a",
    "kernel:deemphasize:n3:d1":
        "56516fef583057603f96dc630bf8612455c6d9db20a2ff5a63b193589df9689d",
    "kernel:deemphasize:n3:d12":
        "4fde4ddfe0ee12bfa1db0cafffc33f3c6baa9a88587d0752cbeaba65e31572ea",
    "kernel:deemphasize:n3:d7":
        "e35396a0cfde8f3f936e1279336a548064f6c8fef99fd32e22286ed687a01518",
    "kernel:exists_and_child:n1:d1":
        "70aca6e9566d1c14e4a76c7bb843ee3aa1812b5efe323de8a8ffd12d3bc7a0a7",
    "kernel:exists_and_child:n1:d3":
        "edaf7714f30bc6e631f29192024ef249927f634e6f25fd1843154e1f4e15c4a7",
    "kernel:exists_and_child:n1:d7":
        "83fc9301cbb5336adec5f0a350f076f99cb4a71045f7caabb62356181af829ca",
    "kernel:exists_and_child:n2:d1":
        "ee4e1f0756ffe7f1dd63abc552e094fe7ea7df4192c87865e25256129fc02d17",
    "kernel:exists_and_child:n2:d3":
        "422da1a87a9e703675055b34142d0ed9e3470391664625577d7a388554cea6e2",
    "kernel:exists_and_child:n2:d7":
        "d2811254dd103a5dea3b81619649d37f0e1979be667d148d09cf00429266ab41",
    "kernel:exists_and_child:n3:d1":
        "baa64a687c7ebd1ba28d66e8630301f9e7359746d1e9a09afbb1385706f02500",
    "kernel:exists_and_child:n3:d3":
        "829a311f1e456d4baf454867573d6cf0c48ba43d931ccb4e9c528831bde5b7c6",
    "kernel:exists_and_child:n3:d7":
        "cfff03c2c4ef91f6efce4293cdb5513a60b877b9d7e89eaae9338fdc59ceedf9",
    "kernel:exists_and_child:n4:d3":
        "62cde2260f8349e61e98ad25b1339c407b7ceb8cd02d09376af677cfba7e3a2b",
    "kernel:gn_dn:n1:d1":
        "f3af11ae6f331458d835da07b781a11024909cf58af43aed907cabb0dafdd62b",
    "kernel:gn_dn:n1:d12":
        "afba7d251064b69b312810a8555f0f7f655262764aa6fd29b6cf4f06dad3e3e3",
    "kernel:gn_dn:n1:d7":
        "5611d9227d2048198ddbeb88561ca87f289934139f5d583556b9db3cc518354f",
    "kernel:gn_dn:n2:d1":
        "29f86cc05c290cf9bc56ce1797e2eabd584cbfda591b1b6bc7ddd1ba719f68ef",
    "kernel:gn_dn:n2:d12":
        "2a93e15d8e9c007df8aa346c6f3312c53eb3fcc37a90953595124e6b44b8e58a",
    "kernel:gn_dn:n2:d7":
        "1b21258ddcc4b54d031ac1315f2648b4abbbef6c6e743695d6e2451c46bce960",
    "kernel:gn_dn:n3:d1":
        "cf9f8b61897a27b60c687b73d609209a13c33b921eb7d2fd9d7cd93cf9c709c7",
    "kernel:gn_dn:n3:d12":
        "824d32052f2a541338336eaecd93c39f29552cfd23a15af5a35fdb3fa5707e61",
    "kernel:gn_dn:n3:d7":
        "567f287f2177260cbce442e0fe6ba7199f4d8fe39ba2accfc3ecd9a7651b0a2b",
    "kernel:gn_tc:n1:d1":
        "46fa12619330e1dff2100f421f6f10fbf020ffdd5fc4eaa882c1f3c0404438b3",
    "kernel:gn_tc:n1:d12":
        "46fa12619330e1dff2100f421f6f10fbf020ffdd5fc4eaa882c1f3c0404438b3",
    "kernel:gn_tc:n1:d7":
        "1b70ac209588d98b03af42bbe83859424d3f31ce5df431644fe4aa301bec2de6",
    "kernel:gn_tc:n2:d1":
        "46fa12619330e1dff2100f421f6f10fbf020ffdd5fc4eaa882c1f3c0404438b3",
    "kernel:gn_tc:n2:d12":
        "46fa12619330e1dff2100f421f6f10fbf020ffdd5fc4eaa882c1f3c0404438b3",
    "kernel:gn_tc:n2:d7":
        "0c066fa0f3e6aa432b1ace7e455d403606e2819a711766b5227e26be10a2a145",
    "kernel:gn_tc:n3:d1":
        "46fa12619330e1dff2100f421f6f10fbf020ffdd5fc4eaa882c1f3c0404438b3",
    "kernel:gn_tc:n3:d12":
        "46fa12619330e1dff2100f421f6f10fbf020ffdd5fc4eaa882c1f3c0404438b3",
    "kernel:gn_tc:n3:d7":
        "ed65a7c42383f287c7436359fc1e45803e65d674fa1c2bb187eabdfb9f83e858",
    "kernel:repick:n1:d1":
        "32764e83986eec1c7b4e73f4737f77d0538ab7577e4d240a78479fe28f824785",
    "kernel:repick:n1:d3":
        "092f965575a6d5e3dafc8e257635215f746a8b2f9266e6de96722ba252639dbc",
    "kernel:repick:n1:d7":
        "0b89e7e784dcafddfc7c2e2f659db0652b42f74427634262fa52555bc96be873",
    "kernel:repick:n2:d1":
        "ddb971adea3596042d2348f5b96970251cdd7dcba3e8dea0929a088fe96e063a",
    "kernel:repick:n2:d3":
        "3d3944f0f24ce13e0ea6c75a072945db70c9136ec0696ebab60db9e7066ce9e4",
    "kernel:repick:n2:d7":
        "196a0bfaa3f392a5f8703ef13097eeedbf4467444d9878a02cb215d3b51afa1d",
    "kernel:repick:n3:d1":
        "d2b080c64c1d1239427fb20f4c122b6433ee219e6b274d29e3cdaf5d0d0a4c38",
    "kernel:repick:n3:d3":
        "6482a6105870d5188641eafff10101797f9fde83f159ae14869da904474880b6",
    "kernel:repick:n3:d7":
        "121f5a7e1bc5d59f080d3571edab2c58ed294fe886d7466cec8cb342339b7493",
    "kernel:repick:n4:d3":
        "58d5145f1284d1da82dddfd11fa8a3b1ffeebf063d3c1b496dda36e01c896ce6",
    "kernel:shadow:n1:d1":
        "ea13e23e2aec98830f452fe285b8264eb2aba66948a963f4a5ae77be9eb2b018",
    "kernel:shadow:n1:d3":
        "d4dc15317140f134a4dc0c7a65089b780f4eebdf27ac84cc9e31da9a0c1dab9c",
    "kernel:shadow:n1:d7":
        "2a16159461228d478c231441f6b553cbc5dc5c666b1ae57805d554e7efe91c08",
    "kernel:shadow:n2:d1":
        "7fefbda6dc4d38dce54127939b6bdcc29f2102215c0e9127e3307c79f6bd112c",
    "kernel:shadow:n2:d3":
        "55f1a53d74a30d11e536c53208e3293dc9e59d9b5d1694901b1acfc4f97743df",
    "kernel:shadow:n2:d7":
        "fab78bb9d8f222071051d82c23fd30901bd71ab860a26c4e3c5a87bc4e57a8fd",
    "kernel:shadow:n3:d1":
        "2079330bf57b009c83d932adb76c0432154961201eff17412e04cfa78009e686",
    "kernel:shadow:n3:d3":
        "afd8d7fdbd09e1a67fbbcad611945a7af4ec237335efd34018af6d951702dda5",
    "kernel:shadow:n3:d7":
        "46390f85f76a7771f323f356a592a7eab09759f0c35e8c9a3dd645f8caf24a40",
    "kernel:shadow:n4:d3":
        "975787c07f38d5f9e3e105b4634248724ef6436e0adf2b05a257deea578c0ad6",
    "kernel:three_picks:n1:d1":
        "581833eb844b19d15643e5bff0059b6f8addbe9c7f726930749baf6a4de447e0",
    "kernel:three_picks:n1:d3":
        "e3b23d0de30419b50b8e0a0c126c660dce9fd3c64fe7447e0b11c2bc08b82c28",
    "kernel:three_picks:n1:d7":
        "1538584c7229d03376a57d9fff6a712e61359fbe6ff8b168f0f09d8fb3bd4beb",
    "kernel:three_picks:n2:d1":
        "0ec054e71b6f644208ccf4305371b53693eda1360d0cc10865180ee89fc98240",
    "kernel:three_picks:n2:d3":
        "10798c80139c61f330c6775a4eb85487cc2f1fe935bb20f3fae4c6fe28c1e93c",
    "kernel:three_picks:n2:d7":
        "70d97035053d055e184e00bde7ba71dd2664cbeead7bd6b8339977086c5ddf7b",
    "kernel:three_picks:n3:d1":
        "d3a54e66b26cec463e9f113b9b5d140a2179f4f19f7c8dbe5136dde87718ec5b",
    "kernel:three_picks:n3:d3":
        "1169ade793d317c4074e2ed2dfc37f412537eb1a3bbea69cb2f545f5227cfdc7",
    "kernel:three_picks:n3:d7":
        "b28319ed3d18865925ab8c6be717c39bafec37baec9e5bd18c8cc06a33d80032",
    "kernel:three_picks:n4:d3":
        "0d3a86543b9caa74f4614eb0010890115997a83def464b4f22d502a169ce72d9",
    "kernel:where_sex_day:n1:d1":
        "a4b9eb2cc849d81b4ff3c03eca2b8a5fe6c3c6c930b287826784b994bc1fc0fe",
    "kernel:where_sex_day:n1:d3":
        "be608d1c12e98912c1f13e326cda00d3ad0634dca365cfcc98619808d3ae8b8e",
    "kernel:where_sex_day:n1:d7":
        "a6d9b179101f0a1769ff71dcc80698aca3443b323f66d8c1012234b96348778d",
    "kernel:where_sex_day:n2:d1":
        "eb98bcc314fcc6bdb7787cce4ddcf7205e2b339323e6449631fc8fa4a84efaab",
    "kernel:where_sex_day:n2:d3":
        "36b028ea4e85ae517ce79b15418de3d8c00c9ebc412241514fea409644100fb0",
    "kernel:where_sex_day:n2:d7":
        "897af1c277381d1f18660179e220a42b53efd537ef4cf74f078ab2d0fa315efd",
    "kernel:where_sex_day:n3:d1":
        "347af00eaafd3e9653ea53b8279403a1f965ab88360da660a171d2767b99604d",
    "kernel:where_sex_day:n3:d3":
        "de180df91c4ce038a742408c9189be24a1f7cefa245b99bd8b45d8e18337da8b",
    "kernel:where_sex_day:n3:d7":
        "775b6a305d69317d115fdb279964beca415236d885d8c02588ff4d74be14997b",
    "kernel:where_sex_day:n4:d3":
        "30279f37a2c3e325e072ae6660adfaecc2bdd9c09777c7c8383c8cdae5432ed0",
    "kernel:yesno:n1:d1":
        "46fa12619330e1dff2100f421f6f10fbf020ffdd5fc4eaa882c1f3c0404438b3",
    "kernel:yesno:n1:d12":
        "46fa12619330e1dff2100f421f6f10fbf020ffdd5fc4eaa882c1f3c0404438b3",
    "kernel:yesno:n1:d7":
        "da830210b6644bfd39e6e4ae2262afc689e04befeed555c4a7dea54211428d1f",
    "kernel:yesno:n2:d1":
        "46fa12619330e1dff2100f421f6f10fbf020ffdd5fc4eaa882c1f3c0404438b3",
    "kernel:yesno:n2:d12":
        "46fa12619330e1dff2100f421f6f10fbf020ffdd5fc4eaa882c1f3c0404438b3",
    "kernel:yesno:n2:d7":
        "c126fadf72c3b9335001122484d7fe90d0193b94e856c5c9daee792db942de9c",
    "kernel:yesno:n3:d1":
        "46fa12619330e1dff2100f421f6f10fbf020ffdd5fc4eaa882c1f3c0404438b3",
    "kernel:yesno:n3:d12":
        "46fa12619330e1dff2100f421f6f10fbf020ffdd5fc4eaa882c1f3c0404438b3",
    "kernel:yesno:n3:d7":
        "1715e1cefd7b070815baa6ad0e88e813be5b1afda012b026b0c156dea25a4309",
    "marginal:any-answer:d30":
        "8f3f6d5cc137a647fffbe24231597f4b1bf59ad2e685eb7ae6ca1c452177704c",
    "marginal:any-answer:d7":
        "8f3f6d5cc137a647fffbe24231597f4b1bf59ad2e685eb7ae6ca1c452177704c",
    "marginal:any_answer:n1:d1":
        "e767269670562181aaa8f3801298f8bd3ca10bc3712a1bffbab24acd2fe7ce3e",
    "marginal:any_answer:n1:d12":
        "e767269670562181aaa8f3801298f8bd3ca10bc3712a1bffbab24acd2fe7ce3e",
    "marginal:any_answer:n1:d7":
        "e767269670562181aaa8f3801298f8bd3ca10bc3712a1bffbab24acd2fe7ce3e",
    "marginal:any_answer:n2:d1":
        "8f3f6d5cc137a647fffbe24231597f4b1bf59ad2e685eb7ae6ca1c452177704c",
    "marginal:any_answer:n2:d12":
        "8f3f6d5cc137a647fffbe24231597f4b1bf59ad2e685eb7ae6ca1c452177704c",
    "marginal:any_answer:n2:d7":
        "8f3f6d5cc137a647fffbe24231597f4b1bf59ad2e685eb7ae6ca1c452177704c",
    "marginal:any_answer:n3:d1":
        "2462b3736c17338a177da429e04077c48067a9e40721937a16c8be78e9ba7a91",
    "marginal:any_answer:n3:d12":
        "2462b3736c17338a177da429e04077c48067a9e40721937a16c8be78e9ba7a91",
    "marginal:any_answer:n3:d7":
        "2462b3736c17338a177da429e04077c48067a9e40721937a16c8be78e9ba7a91",
    "marginal:bc-dn:d30":
        "ad9679009b9cea1c378a587770b23c9f181d4dd12a4ecf65c8689ebc0fa201f6",
    "marginal:bc-dn:d7":
        "a1460892d90ae39f74d946dda2bcd26291cf9722014f7dea277391aa627ff639",
    "marginal:bc-tc:d30":
        "fd30f481e12b87a7e25aa79c0bee26c09d9ab2db2fdfe357e003bc7a1baff01e",
    "marginal:bc-tc:d7":
        "47c4d850f928298147ece821328bac9fb0a7ae386bb893ecd7aae4f779f91390",
    "marginal:bc_dn:n1:d1":
        "d8414d9d19353522bfdd42ff193321436b5ebb5d28e7cc8c654def1971cbc58d",
    "marginal:bc_dn:n1:d12":
        "62fdcb719b720dde3a79a2598ce74eaf9ea7df8d0304cac285d28119cb651a38",
    "marginal:bc_dn:n1:d7":
        "a1460892d90ae39f74d946dda2bcd26291cf9722014f7dea277391aa627ff639",
    "marginal:bc_dn:n2:d1":
        "d8414d9d19353522bfdd42ff193321436b5ebb5d28e7cc8c654def1971cbc58d",
    "marginal:bc_dn:n2:d12":
        "62fdcb719b720dde3a79a2598ce74eaf9ea7df8d0304cac285d28119cb651a38",
    "marginal:bc_dn:n2:d7":
        "a1460892d90ae39f74d946dda2bcd26291cf9722014f7dea277391aa627ff639",
    "marginal:bc_dn:n3:d1":
        "d8414d9d19353522bfdd42ff193321436b5ebb5d28e7cc8c654def1971cbc58d",
    "marginal:bc_dn:n3:d12":
        "62fdcb719b720dde3a79a2598ce74eaf9ea7df8d0304cac285d28119cb651a38",
    "marginal:bc_dn:n3:d7":
        "a1460892d90ae39f74d946dda2bcd26291cf9722014f7dea277391aa627ff639",
    "marginal:bc_tc:n1:d1":
        "46fa12619330e1dff2100f421f6f10fbf020ffdd5fc4eaa882c1f3c0404438b3",
    "marginal:bc_tc:n1:d12":
        "46fa12619330e1dff2100f421f6f10fbf020ffdd5fc4eaa882c1f3c0404438b3",
    "marginal:bc_tc:n1:d7":
        "47c4d850f928298147ece821328bac9fb0a7ae386bb893ecd7aae4f779f91390",
    "marginal:bc_tc:n2:d1":
        "46fa12619330e1dff2100f421f6f10fbf020ffdd5fc4eaa882c1f3c0404438b3",
    "marginal:bc_tc:n2:d12":
        "46fa12619330e1dff2100f421f6f10fbf020ffdd5fc4eaa882c1f3c0404438b3",
    "marginal:bc_tc:n2:d7":
        "47c4d850f928298147ece821328bac9fb0a7ae386bb893ecd7aae4f779f91390",
    "marginal:bc_tc:n3:d1":
        "46fa12619330e1dff2100f421f6f10fbf020ffdd5fc4eaa882c1f3c0404438b3",
    "marginal:bc_tc:n3:d12":
        "46fa12619330e1dff2100f421f6f10fbf020ffdd5fc4eaa882c1f3c0404438b3",
    "marginal:bc_tc:n3:d7":
        "47c4d850f928298147ece821328bac9fb0a7ae386bb893ecd7aae4f779f91390",
    "marginal:brag:d30":
        "5fac4462052c4e348ca54c6868631c99fdb486edb6784626e989f1a0c3d15016",
    "marginal:brag:d7":
        "5fac4462052c4e348ca54c6868631c99fdb486edb6784626e989f1a0c3d15016",
    "marginal:brag:n1:d1":
        "8c2bd5b332ed05252ec83474335cd4c92c7487eba9df3196e0297e7781bc9252",
    "marginal:brag:n1:d12":
        "8c2bd5b332ed05252ec83474335cd4c92c7487eba9df3196e0297e7781bc9252",
    "marginal:brag:n1:d7":
        "8c2bd5b332ed05252ec83474335cd4c92c7487eba9df3196e0297e7781bc9252",
    "marginal:brag:n2:d1":
        "5fac4462052c4e348ca54c6868631c99fdb486edb6784626e989f1a0c3d15016",
    "marginal:brag:n2:d12":
        "5fac4462052c4e348ca54c6868631c99fdb486edb6784626e989f1a0c3d15016",
    "marginal:brag:n2:d7":
        "5fac4462052c4e348ca54c6868631c99fdb486edb6784626e989f1a0c3d15016",
    "marginal:brag:n3:d1":
        "06809778b378e3ae2205230454d43bd74e521b7ef66f00dd4c008ed6ddec6b74",
    "marginal:brag:n3:d12":
        "06809778b378e3ae2205230454d43bd74e521b7ef66f00dd4c008ed6ddec6b74",
    "marginal:brag:n3:d7":
        "06809778b378e3ae2205230454d43bd74e521b7ef66f00dd4c008ed6ddec6b74",
    "marginal:child_or_not:n1:d1":
        "a22c9fdd991e8e7e8550111e113caa9278fd10e2fee2b6949caeff8af18a131a",
    "marginal:child_or_not:n1:d3":
        "5d66e94891a11cd2722d9a5261511420351d5de60d00be11d47ebff6b98165dc",
    "marginal:child_or_not:n1:d7":
        "291ad1d47335755d07fc34e5068dc03eecb46a4d642500f580ccaca0f1a2638e",
    "marginal:child_or_not:n2:d1":
        "e52ef10b0a34d3fc3707eb2a6058983f6fe5de0fffd75f164f7497e60619674d",
    "marginal:child_or_not:n2:d3":
        "8d10808651da264ae750c9174a4fe80ee7481aecc2c082292019b2deb8b837f2",
    "marginal:child_or_not:n2:d7":
        "9913607d19001ebd9f6c083281a573e37392a00c32c19175e9d3965b2844de29",
    "marginal:child_or_not:n3:d1":
        "9308d6c70e42efc41d7ff5e548a8e4e5cfc8c065018113a86138f0477a1abd65",
    "marginal:child_or_not:n3:d3":
        "0d7617d6476734a4bf4dcdbfec7a305cb578e5186266972c84bb8c0f6645f159",
    "marginal:child_or_not:n3:d7":
        "d4dec24ba6a3c12e5e977cac130910bcd40302ddf0e2412714db2267e73a8cf2",
    "marginal:child_or_not:n4:d3":
        "3edc1e12483c27d2e247837ea33bd985a9fa2a67200f44115fbe05d1d4103099",
    "marginal:classic-coinflip:d30":
        "a52abfa1626966d71821273d80fe3ad5a2d509f5ffb781e2278aa17895818f46",
    "marginal:classic-coinflip:d7":
        "a52abfa1626966d71821273d80fe3ad5a2d509f5ffb781e2278aa17895818f46",
    "marginal:classic-selection:d30":
        "ea68b79362dfa1b9eebf4e33d2f9eb73bb405a4c6a0192bf4abcd9a404610eb0",
    "marginal:classic-selection:d7":
        "ea68b79362dfa1b9eebf4e33d2f9eb73bb405a4c6a0192bf4abcd9a404610eb0",
    "marginal:classic_coinflip:n1:d1":
        "a52abfa1626966d71821273d80fe3ad5a2d509f5ffb781e2278aa17895818f46",
    "marginal:classic_coinflip:n1:d12":
        "a52abfa1626966d71821273d80fe3ad5a2d509f5ffb781e2278aa17895818f46",
    "marginal:classic_coinflip:n1:d7":
        "a52abfa1626966d71821273d80fe3ad5a2d509f5ffb781e2278aa17895818f46",
    "marginal:classic_coinflip:n2:d1":
        "a52abfa1626966d71821273d80fe3ad5a2d509f5ffb781e2278aa17895818f46",
    "marginal:classic_coinflip:n2:d12":
        "a52abfa1626966d71821273d80fe3ad5a2d509f5ffb781e2278aa17895818f46",
    "marginal:classic_coinflip:n2:d7":
        "a52abfa1626966d71821273d80fe3ad5a2d509f5ffb781e2278aa17895818f46",
    "marginal:classic_coinflip:n3:d1":
        "a52abfa1626966d71821273d80fe3ad5a2d509f5ffb781e2278aa17895818f46",
    "marginal:classic_coinflip:n3:d12":
        "a52abfa1626966d71821273d80fe3ad5a2d509f5ffb781e2278aa17895818f46",
    "marginal:classic_coinflip:n3:d7":
        "a52abfa1626966d71821273d80fe3ad5a2d509f5ffb781e2278aa17895818f46",
    "marginal:classic_selection:n1:d1":
        "ea68b79362dfa1b9eebf4e33d2f9eb73bb405a4c6a0192bf4abcd9a404610eb0",
    "marginal:classic_selection:n1:d12":
        "ea68b79362dfa1b9eebf4e33d2f9eb73bb405a4c6a0192bf4abcd9a404610eb0",
    "marginal:classic_selection:n1:d7":
        "ea68b79362dfa1b9eebf4e33d2f9eb73bb405a4c6a0192bf4abcd9a404610eb0",
    "marginal:classic_selection:n2:d1":
        "ea68b79362dfa1b9eebf4e33d2f9eb73bb405a4c6a0192bf4abcd9a404610eb0",
    "marginal:classic_selection:n2:d12":
        "ea68b79362dfa1b9eebf4e33d2f9eb73bb405a4c6a0192bf4abcd9a404610eb0",
    "marginal:classic_selection:n2:d7":
        "ea68b79362dfa1b9eebf4e33d2f9eb73bb405a4c6a0192bf4abcd9a404610eb0",
    "marginal:classic_selection:n3:d1":
        "ea68b79362dfa1b9eebf4e33d2f9eb73bb405a4c6a0192bf4abcd9a404610eb0",
    "marginal:classic_selection:n3:d12":
        "ea68b79362dfa1b9eebf4e33d2f9eb73bb405a4c6a0192bf4abcd9a404610eb0",
    "marginal:classic_selection:n3:d7":
        "ea68b79362dfa1b9eebf4e33d2f9eb73bb405a4c6a0192bf4abcd9a404610eb0",
    "marginal:deemphasize:d30":
        "6993d59ce361ccdb6010e71ff2f18d31aca7351e0a78ba5f60b3a79b4c0a6956",
    "marginal:deemphasize:d7":
        "6993d59ce361ccdb6010e71ff2f18d31aca7351e0a78ba5f60b3a79b4c0a6956",
    "marginal:deemphasize:n1:d1":
        "39519ba96a8a9618c2304a0c68df7fd3ae9b8d536080c7e7b600a122da98507a",
    "marginal:deemphasize:n1:d12":
        "39519ba96a8a9618c2304a0c68df7fd3ae9b8d536080c7e7b600a122da98507a",
    "marginal:deemphasize:n1:d7":
        "39519ba96a8a9618c2304a0c68df7fd3ae9b8d536080c7e7b600a122da98507a",
    "marginal:deemphasize:n2:d1":
        "6993d59ce361ccdb6010e71ff2f18d31aca7351e0a78ba5f60b3a79b4c0a6956",
    "marginal:deemphasize:n2:d12":
        "6993d59ce361ccdb6010e71ff2f18d31aca7351e0a78ba5f60b3a79b4c0a6956",
    "marginal:deemphasize:n2:d7":
        "6993d59ce361ccdb6010e71ff2f18d31aca7351e0a78ba5f60b3a79b4c0a6956",
    "marginal:deemphasize:n3:d1":
        "8b6ab1a144cacd30bd6d4cd6fd02279a8c6a1fb72d7958e126560f8a1817c324",
    "marginal:deemphasize:n3:d12":
        "8b6ab1a144cacd30bd6d4cd6fd02279a8c6a1fb72d7958e126560f8a1817c324",
    "marginal:deemphasize:n3:d7":
        "8b6ab1a144cacd30bd6d4cd6fd02279a8c6a1fb72d7958e126560f8a1817c324",
    "marginal:exists_and_child:n1:d1":
        "72ae674fe1bf091ccf8f19258b4545599ebb319c920e5d9d41212a6d1d15c293",
    "marginal:exists_and_child:n1:d3":
        "72ae674fe1bf091ccf8f19258b4545599ebb319c920e5d9d41212a6d1d15c293",
    "marginal:exists_and_child:n1:d7":
        "72ae674fe1bf091ccf8f19258b4545599ebb319c920e5d9d41212a6d1d15c293",
    "marginal:exists_and_child:n2:d1":
        "01fa0a9b94170afc9b805196e3f5e501ea58a553c9e914372f4919171a3fde0d",
    "marginal:exists_and_child:n2:d3":
        "7c0045900e49bf354053c3918e974cd9297baf2c6208e2d03d7e3f6398431fed",
    "marginal:exists_and_child:n2:d7":
        "c597213c821971b48ad2e8b1958540df9069d445de3cc739d990ebefbb067e42",
    "marginal:exists_and_child:n3:d1":
        "1d805d5df3913e4c815fa8abde99ca20ac737a558483be4064a6bf3382e0c760",
    "marginal:exists_and_child:n3:d3":
        "781af8936e0c8dd379b37c30935ffd72e75144ccd0c2be40eee1671adb666282",
    "marginal:exists_and_child:n3:d7":
        "9f8d77dac1c1c319ff9268cae95431e7a75a79a5343070360571cb859ee7010d",
    "marginal:exists_and_child:n4:d3":
        "dd25b90b1fbaf209133a6081fcab11810044f94f0633af4809ff10ffc5d888d6",
    "marginal:gn-dn:d30":
        "d673258ba86ba6966b6cd311bb717d12bbed926028327bcd019077019a199a39",
    "marginal:gn-dn:d7":
        "58b710956322f231dc4c3103a589855405de1f78da1ffc2806ef1ca1d52bcbfa",
    "marginal:gn-tc:d30":
        "1ade3ee47f018d029c4d8cbef1c3a365f29e5f3fcc10eca18555a674ea677cf8",
    "marginal:gn-tc:d7":
        "a7848f670f14b38b9f3a3b67b6672551bc97fdedbb3261b93ce9c91d444c2a6a",
    "marginal:gn_dn:n1:d1":
        "522b851a2ba87fa34567783e5074df7993134d0cca2c32fce5c763a83e617d58",
    "marginal:gn_dn:n1:d12":
        "ba79e4dcb196fd959f93e68b128cc6d5bac23a63f24b68e3c364fbf9a1d54cf7",
    "marginal:gn_dn:n1:d7":
        "58b710956322f231dc4c3103a589855405de1f78da1ffc2806ef1ca1d52bcbfa",
    "marginal:gn_dn:n2:d1":
        "522b851a2ba87fa34567783e5074df7993134d0cca2c32fce5c763a83e617d58",
    "marginal:gn_dn:n2:d12":
        "ba79e4dcb196fd959f93e68b128cc6d5bac23a63f24b68e3c364fbf9a1d54cf7",
    "marginal:gn_dn:n2:d7":
        "58b710956322f231dc4c3103a589855405de1f78da1ffc2806ef1ca1d52bcbfa",
    "marginal:gn_dn:n3:d1":
        "522b851a2ba87fa34567783e5074df7993134d0cca2c32fce5c763a83e617d58",
    "marginal:gn_dn:n3:d12":
        "ba79e4dcb196fd959f93e68b128cc6d5bac23a63f24b68e3c364fbf9a1d54cf7",
    "marginal:gn_dn:n3:d7":
        "58b710956322f231dc4c3103a589855405de1f78da1ffc2806ef1ca1d52bcbfa",
    "marginal:gn_tc:n1:d1":
        "46fa12619330e1dff2100f421f6f10fbf020ffdd5fc4eaa882c1f3c0404438b3",
    "marginal:gn_tc:n1:d12":
        "46fa12619330e1dff2100f421f6f10fbf020ffdd5fc4eaa882c1f3c0404438b3",
    "marginal:gn_tc:n1:d7":
        "a7848f670f14b38b9f3a3b67b6672551bc97fdedbb3261b93ce9c91d444c2a6a",
    "marginal:gn_tc:n2:d1":
        "46fa12619330e1dff2100f421f6f10fbf020ffdd5fc4eaa882c1f3c0404438b3",
    "marginal:gn_tc:n2:d12":
        "46fa12619330e1dff2100f421f6f10fbf020ffdd5fc4eaa882c1f3c0404438b3",
    "marginal:gn_tc:n2:d7":
        "a7848f670f14b38b9f3a3b67b6672551bc97fdedbb3261b93ce9c91d444c2a6a",
    "marginal:gn_tc:n3:d1":
        "46fa12619330e1dff2100f421f6f10fbf020ffdd5fc4eaa882c1f3c0404438b3",
    "marginal:gn_tc:n3:d12":
        "46fa12619330e1dff2100f421f6f10fbf020ffdd5fc4eaa882c1f3c0404438b3",
    "marginal:gn_tc:n3:d7":
        "a7848f670f14b38b9f3a3b67b6672551bc97fdedbb3261b93ce9c91d444c2a6a",
    "marginal:repick:n1:d1":
        "c5b48f01e3f258eac8e9b2aedb11c908c8a79f2e7bf86b1fd34eb95b582f5f8f",
    "marginal:repick:n1:d3":
        "8dc5dc6d635337d579d0f93c987b734f7ca56ab9f8c55c09c9101287b1ecc4ca",
    "marginal:repick:n1:d7":
        "0c2d9380aaf378b243d94b11e411a17ed8dfdac70adbb06989aa71d94f4de915",
    "marginal:repick:n2:d1":
        "31546e0e92a1fc15aa477230433c3045079a06786e159086f9c6e3486220ddaf",
    "marginal:repick:n2:d3":
        "cc0e1c2f69e8609be43a01b433a8db9546c9e03940b966364330265e34eb1bb9",
    "marginal:repick:n2:d7":
        "bbeb3f140d52d39dd555e491f83fcbc45307443f1219560abcbb83d4933b3061",
    "marginal:repick:n3:d1":
        "a5a6578557f389c883cdb2f3ac7237499cda7261acc440d1c113aeda4bd42c69",
    "marginal:repick:n3:d3":
        "6959fc2ef65ec8f12b03feee60cb274b9ea0c9cbdb11e602c1198c78caa8da7b",
    "marginal:repick:n3:d7":
        "58748fe7254497cb5feaba11b0302d6dfe684f8a48ebf29f6954c4e2f9cf881c",
    "marginal:repick:n4:d3":
        "4f2f1e6202eb663ca360bbf17fd731ddc42e121e042c11e968f4d8311be1f992",
    "marginal:shadow:n1:d1":
        "a0f981525188a98bf59680bc9b18a87f60c97c58a6721af436ac1d7a7aaa285d",
    "marginal:shadow:n1:d3":
        "3ff4a6026a29a98c10f5e804cd241eed4918a005ad67aec1ad23eecc1fe70c41",
    "marginal:shadow:n1:d7":
        "7c6507b9c801d8bfa75ab19e6907e12ccd0b7660ffb47a3d8009230236abe08f",
    "marginal:shadow:n2:d1":
        "fd21987192a87a300c60015211011f1cd3a800e581c8195b75410751b04e9a1e",
    "marginal:shadow:n2:d3":
        "ea86ff7eb2808200367f36c500171c50c61e9d8fcd817b77ab8ae71507edd7e9",
    "marginal:shadow:n2:d7":
        "1a260bbdc1adfdf49bfc1b1aa90ccc506c7cffcf701b9b27fedea7e3f778c715",
    "marginal:shadow:n3:d1":
        "82494ce8a5eeb6d35aa3249af027255e92e1e23ab5d6745e9c7d4fd4ec1e68e9",
    "marginal:shadow:n3:d3":
        "f6bc524afb9df9714dd2080a82cc37ee113cd44a79cad314508804aec416c774",
    "marginal:shadow:n3:d7":
        "03ce51f289570ad300552affaf2a906d7bd915f6e891617f08da0a4d526a9e47",
    "marginal:shadow:n4:d3":
        "eed3c3f6c4907b47079fe2da7085a6c70abb7d4ca5dcff9463466ecd3500a6db",
    "marginal:three_picks:n1:d1":
        "0ccf0073f8f0b8ba5ce8c2bf2e03522aacb18f64f6f495c5c9e50689fdc774cf",
    "marginal:three_picks:n1:d3":
        "85463dd98f884624bf250c86a321bba30fd8fe5ec9556e5d3bb52a75208c9f3d",
    "marginal:three_picks:n1:d7":
        "26a586288d2a91fc8e09a0e62a67a54eb59a5e5775123a8b8bbaa31e1dfa451b",
    "marginal:three_picks:n2:d1":
        "57070ae245a7a36a202a17745ce5d357137ceb58aa6dea28e4fc104518ea7cbb",
    "marginal:three_picks:n2:d3":
        "7bc73008a22cae3358691e6f717109b58cb4203290ff42a679b7cbe18a2c2fef",
    "marginal:three_picks:n2:d7":
        "dfb2517c97ee39512a1a2ad3ee62fa8eabbbeacb41f09edb9dd3a486c2baf1f0",
    "marginal:three_picks:n3:d1":
        "ce2a8847ca9c0521b6eefcb169f8d4dad25c6eae334a8b2d5d6d1feceff16dbd",
    "marginal:three_picks:n3:d3":
        "d359f9dfce345839a4b00ade0bc78fea2e5f1615de563761168f6404c8764826",
    "marginal:three_picks:n3:d7":
        "43d3549254bf30d814e5b392180a47d554e9241e377e16156c63408314c7aa9f",
    "marginal:three_picks:n4:d3":
        "19139f62c67b877555eaf7a40e61ef6df0c6b327f7163bb84aa968f01b4a8d9c",
    "marginal:where_sex_day:n1:d1":
        "b4590b3ef47b166f63e75f03523bfbcbac9ce3b54a2d56477b7b80d627afc588",
    "marginal:where_sex_day:n1:d3":
        "8cbf5c25ab1324e806788e80fee111b0832e5810e50e489962a170b446594e8a",
    "marginal:where_sex_day:n1:d7":
        "560407c7750b5b86a1cfe730ef2e66e5c9849444d61b9a3035556d696c89fede",
    "marginal:where_sex_day:n2:d1":
        "6073a663cb7b21aeb144589d55bc9c59293eea44ef2991acded37f775af00f82",
    "marginal:where_sex_day:n2:d3":
        "b38d5826592fc30a8dfd00671874916cf06b92a0f7da4816fa90879ff7d33b77",
    "marginal:where_sex_day:n2:d7":
        "f9d29cdd7cef6cda40ac7a5a5a82c421d079ba1b9da2a3b502e884c827730aae",
    "marginal:where_sex_day:n3:d1":
        "c1cf7d808888865d104ae62f5e85f8f516161598ebca8ca863f2f8adafd2a3b1",
    "marginal:where_sex_day:n3:d3":
        "e155d48b87b14e8ba926264e37925bdb2362152189dbb9c257b73a2da1acb46e",
    "marginal:where_sex_day:n3:d7":
        "7e2f2eb0677e24e2a0ec48e5a7b8db02a5fd41d0a0d5062c285e932b18dda382",
    "marginal:where_sex_day:n4:d3":
        "50fa01d816d19c2a78fda2df9d1d27f0f931e50a2d604958552c292fed5c6815",
    "marginal:yesno:d30":
        "8f9c19bbd612111c34aecbf898ea9eb1894215f491243e06db7eef83e725948a",
    "marginal:yesno:d7":
        "ee36b55b2a8f6db137b724b04808093ed6dfb458483bd7f8be144bd2cf25ca87",
    "marginal:yesno:n1:d1":
        "46fa12619330e1dff2100f421f6f10fbf020ffdd5fc4eaa882c1f3c0404438b3",
    "marginal:yesno:n1:d12":
        "46fa12619330e1dff2100f421f6f10fbf020ffdd5fc4eaa882c1f3c0404438b3",
    "marginal:yesno:n1:d7":
        "8bef96cbb77ebec594585042d0821aa71fb3f6bf4c56c9fad19e97ed29b5ffbb",
    "marginal:yesno:n2:d1":
        "46fa12619330e1dff2100f421f6f10fbf020ffdd5fc4eaa882c1f3c0404438b3",
    "marginal:yesno:n2:d12":
        "46fa12619330e1dff2100f421f6f10fbf020ffdd5fc4eaa882c1f3c0404438b3",
    "marginal:yesno:n2:d7":
        "ee36b55b2a8f6db137b724b04808093ed6dfb458483bd7f8be144bd2cf25ca87",
    "marginal:yesno:n3:d1":
        "46fa12619330e1dff2100f421f6f10fbf020ffdd5fc4eaa882c1f3c0404438b3",
    "marginal:yesno:n3:d12":
        "46fa12619330e1dff2100f421f6f10fbf020ffdd5fc4eaa882c1f3c0404438b3",
    "marginal:yesno:n3:d7":
        "075501ba96f24bea6fc5917fef0f8b6bf6fd3b426c8d03816a81194db60d91d8",
    "run:any-answer:d30":
        "edf7765042d321d09cbb1a66e4f41e23949dc22b767828ee216c2ed2c28875ea",
    "run:bc-dn:d30":
        "a5904852289ef74db086c340dadaa42e201fddd7afb7deaad4f5e4f9cfcb91cc",
    "run:bc-tc:d30":
        "264a7d40ab20dc68bfc9d6ef516c02f0a7001a36d8032248cb187ee42aa27cb1",
    "run:brag:d30":
        "9c1386fe441548e2b15bc17cebfb01019ee8a8930797dd5e7fcb89d7930a0429",
    "run:classic-coinflip:d30":
        "eb8c365368ea9dc852a0bf0761ad5756b265c9dac6c932406f1b901ace534e50",
    "run:classic-selection:d30":
        "88945e4026bc4101a2bb503649cc101fe14f47fa8c9ffffcf88b680d7a2efa43",
    "run:deemphasize:d30":
        "87035359d4a8e30aecec2d75ffd3fa115add749c89efe2734508201a7ab23fca",
    "run:gn-dn:d30":
        "115f3d8d09a5f30267991d0748a474f2c0fc84d43b09b28c79d2cfea17ae9ee8",
    "run:gn-tc:d30":
        "b716ae82e3bd19f0fc403be6438f37e31316500975655c07cec532701759470d",
    "run:yesno:d30":
        "fcf04ff12e0dac6a94d69c0a449673b5c3dc497b617aabd4f19ccbf85e027998",
    "table:any_answer:n1:d1":
        "39cfbd9d362d78a028b8b2f2081e5a9c6c26f23bc828cd011fb7afe9a1096f75",
    "table:any_answer:n1:d12":
        "bed1602b3d7c66e9f71b76434d21ed320ef97c63b905bc36fa61f1fa971ecdc9",
    "table:any_answer:n1:d7":
        "df4eb1321fdc526d89fd08420a26aca0e56ea402caa85569981442cb59021c42",
    "table:any_answer:n2:d1":
        "bba57ba97a39cddaeac0510aae8fcdbc172c4488baf541271ce81f2bc2984670",
    "table:any_answer:n2:d12":
        "e5b182c1f17a1d5afad353d3cdbbd80fd256f5b9c5c78e69aa98ad5e5cdf62dd",
    "table:any_answer:n2:d7":
        "18bf3c68a14f69bb93c12e22032e339c0692a279c212228f1f8cd240b1d16cca",
    "table:any_answer:n3:d1":
        "bee3729c3c97d79c3a90b590a2b2aaa615f9470473a772f55eed729e15c75536",
    "table:any_answer:n3:d12":
        "e21ca6a0a425c49a5e00a02bf3ba79f92196e9dd580d33cb45344a906b02ae96",
    "table:any_answer:n3:d7":
        "7544c41284e5c6366826fb7b87bba434d47a7ea3902f87f9d02d15d658cf199d",
    "table:bc_dn:n1:d1":
        "534486323455459d728a150a01a150de53e488989cb1df9c7b9830c36afc6745",
    "table:bc_dn:n1:d12":
        "0b484b70ca6790425ea623e41e79e48d8a279ca062fbbc2ce5135942dbb0ec57",
    "table:bc_dn:n1:d7":
        "089d9d4d428c6a96442409ac0619614ff43e0fe278a1ebf9d24b20b01e014c1f",
    "table:bc_dn:n2:d1":
        "8318cac2e096c9e33f1c1bbde7482a908abeb33b5def414b269cc3b66b98e559",
    "table:bc_dn:n2:d12":
        "fd2a5ffbdf88dc74a8f62d7ca93ed32171f55d4728ffd5d0bfe3c3d36cd9beac",
    "table:bc_dn:n2:d7":
        "8b5fc1bedead7116cb294e3e331a1bb4d8fe229d825361ea9180eb3a2cb38a29",
    "table:bc_dn:n3:d1":
        "50985b834cdcf96cdd48097f2e710147ab658860c6db8bce507871561e27a913",
    "table:bc_dn:n3:d12":
        "70a6a3d31cbeff8679da44964db6b6903ebdb1aadc75a4d54b2db4112589e07e",
    "table:bc_dn:n3:d7":
        "7c2cd4e92d9ac79f3d7daa1aedff681d3d499ddb71bb0516e6bacdd7b4e663ac",
    "table:bc_tc:n1:d1":
        "77cdaf517210d01f076798c31804d98503cdc2a2316dc8547d0897cc30837a9e",
    "table:bc_tc:n1:d12":
        "77cdaf517210d01f076798c31804d98503cdc2a2316dc8547d0897cc30837a9e",
    "table:bc_tc:n1:d7":
        "2130e36bcf98a350f46a34a0ad67b3258b9c7a592830cbdcc8fa0bf4693728fc",
    "table:bc_tc:n2:d1":
        "77cdaf517210d01f076798c31804d98503cdc2a2316dc8547d0897cc30837a9e",
    "table:bc_tc:n2:d12":
        "77cdaf517210d01f076798c31804d98503cdc2a2316dc8547d0897cc30837a9e",
    "table:bc_tc:n2:d7":
        "f3da6256151101689584f997a3b10acb037d8e1b7ffb8d657244a8619b277d69",
    "table:bc_tc:n3:d1":
        "77cdaf517210d01f076798c31804d98503cdc2a2316dc8547d0897cc30837a9e",
    "table:bc_tc:n3:d12":
        "77cdaf517210d01f076798c31804d98503cdc2a2316dc8547d0897cc30837a9e",
    "table:bc_tc:n3:d7":
        "0916c6e34dc0c4a1393ed9252486c723e2d1fee9016a62231390f473bcb6d2c0",
    "table:brag:n1:d1":
        "c05248e5172d2e69dcd062aa12cf12a936c8d3edae77b110bb72070b7ccad7cc",
    "table:brag:n1:d12":
        "290f2310b1f0c8da1e15c0156cfe2f19d7d0a8a73e32acb2ac791dd4b9479060",
    "table:brag:n1:d7":
        "fcccff18cbb50b7549f68628bcc97fbfe2a34cac600654347302c195f4a6f408",
    "table:brag:n2:d1":
        "e5b35ade283e7989dc1d2a347682b180b2c5c33f46196f8e7feeaa8172051dc0",
    "table:brag:n2:d12":
        "8b89e6a244dc9dbf6d0d270388eaae08fe741c4e9d820a084503b3053c11c458",
    "table:brag:n2:d7":
        "ebddb562f68c52b295b8c24fb5655989ef777ecd43a1910a19b01451c2f06c94",
    "table:brag:n3:d1":
        "77898276d4b4cd9f4dee1f8de0d8e3f7ee465fd81a29c4cbb6d4b6deecfc760a",
    "table:brag:n3:d12":
        "e64a2c996785a10fe8592c3fb83475cdc2981186e684ee394668e49e5dd9f519",
    "table:brag:n3:d7":
        "90ed21e2c3d4f4e4c80871637c53ef8004a9dcc6fad0435cca27c87269b28167",
    "table:classic_coinflip:n1:d1":
        "5f3a50c0058edc852df4654071993ee8bfde276aef3eab6348bf9928cfb63b1f",
    "table:classic_coinflip:n1:d12":
        "90ae6dee694feefe106a64230649f44dee39adeb40db5e2192e1ac578e43c5b6",
    "table:classic_coinflip:n1:d7":
        "d6620ad9e0ee975699c80cab09eb379ed922c85c3432e057a01c5e066738197d",
    "table:classic_coinflip:n2:d1":
        "68cf5890bcfccdec9a36bc87528ecb6f2d4eb5f9dba6a4dbfa338e51daaa98c5",
    "table:classic_coinflip:n2:d12":
        "080f0701be9c9c6d9bc5cd4757fbaa838b45817166acb546413e73ee666906bb",
    "table:classic_coinflip:n2:d7":
        "b7096c69d9cd72e762f3fa72ffa0344befb4009ecbdd2fbfda8019136615958f",
    "table:classic_coinflip:n3:d1":
        "27765e6ef98fbcc7f3551fd6710ce681e464ad9c97128d99ec5b2d4f56929de3",
    "table:classic_coinflip:n3:d12":
        "377673b40b2ab907a87ed0c39157fb7e54065f855f7e539e21652362b86a0ae6",
    "table:classic_coinflip:n3:d7":
        "92809b21d9022c765ffae750b4c9d3bca1f422fb6f6963d9c2deec497a348a36",
    "table:classic_selection:n1:d1":
        "bbde2aaac8a5b48ddf015ac00d3e091a334c6d6555132920c0d00c0b1ffdc6a3",
    "table:classic_selection:n1:d12":
        "0646fd008485bafa40d5b58fd3f968dc4826736800a1d71d9ac5774d69353661",
    "table:classic_selection:n1:d7":
        "d69dcdf8123d240ccf0ef7c904ba75b43c67162e2a23da17a49929dbd7ef0478",
    "table:classic_selection:n2:d1":
        "15af2d9bb8ebe9ec1b92779dc8553d1e07e7d88818c6d8de364c14780d9d8c87",
    "table:classic_selection:n2:d12":
        "e044f50c5326bdb17a401d75d467f677920d3af8ba0ac200bcd8b04523251f43",
    "table:classic_selection:n2:d7":
        "db82ee635b4eb07cb10ebebdc35da3df11d5667b4a785cd2fecdc9f23842afe5",
    "table:classic_selection:n3:d1":
        "6c74732617071a0c3ca0d19e19c90f78d45f2bc53c0ba3b9a0579e83f06264b6",
    "table:classic_selection:n3:d12":
        "ffe4ff4ca148838bf7b85e03a4443c16c562eff4ef42af5640bb2c11e124e548",
    "table:classic_selection:n3:d7":
        "3cc43fd70004ba6f28daa49cc0e58de51d5e58ff8e8217976b5a3c278cdea633",
    "table:deemphasize:n1:d1":
        "518656dd2b6069dc381836dd625df8a76bc71e0703d889af0343a660cc5b4d44",
    "table:deemphasize:n1:d12":
        "38a67ed0bb4ca8c8c1f4c6c56cb44ef2d675709a65be2d2d02c292f7dce4dada",
    "table:deemphasize:n1:d7":
        "cbb31cdb4e2e77f110e4927e5cc5ed5a409cc423ee676ba589081db2e1b8483e",
    "table:deemphasize:n2:d1":
        "606d6897e56db71523d72cb0a62800a25789738ec1669e03366b8ef2e1570796",
    "table:deemphasize:n2:d12":
        "3700ec6b489e337458876d1edc98984792382522cb47632bd1a8c0fc47026287",
    "table:deemphasize:n2:d7":
        "e40ca22fe96536093877b95f2824ca18ccacecdedb143323c85729b41e7477dd",
    "table:deemphasize:n3:d1":
        "486ded959b800b2403717f530ad27fee6aa93fdcf8492e65bcca2fbe20cfc8c4",
    "table:deemphasize:n3:d12":
        "33d989cb758cee4f5731ae19a6df729e3a05a70f6f09cb19a3759f5b612aa536",
    "table:deemphasize:n3:d7":
        "7b40ae8e59b46358e225e780a2ed5686340b8e360b513c1e1dcb939d8526a95b",
    "table:gn_dn:n1:d1":
        "dfbeac0b17fdfa481081e32e0847b8d179b1fa60a9fc1a804f07057802787aa7",
    "table:gn_dn:n1:d12":
        "99baae8e4ad7c1e876506f690c1af5de67d9e8d153f58f8892a7a8169d58b659",
    "table:gn_dn:n1:d7":
        "425f8cdd8254e6be3a29a93bede7fc111cd3a697e9e206a2eb8d179f6e629546",
    "table:gn_dn:n2:d1":
        "4986a7a9764fcb3b94e785801e9d57917f839b32500de924b944d19d01e9a855",
    "table:gn_dn:n2:d12":
        "e36754f9fd49a4348e1362f1dc629e4209282933416412023110606007ac91ce",
    "table:gn_dn:n2:d7":
        "7a6ef7cbc01e0f551b5192c7f18bc570839b47373ca044f9d82ce619ba5ced66",
    "table:gn_dn:n3:d1":
        "107d2b36efc4c3c4a1e186512ab2e1ee241a37bef81793c830e18ae3c066ae60",
    "table:gn_dn:n3:d12":
        "1d51877f7c694c6cff7471d5fa751c70c6fa250d878bf759436aecb22657f98b",
    "table:gn_dn:n3:d7":
        "56fb3ee65c7e594d8198a403934aef5a77ea23ddb877950c9d9eb977d06aed26",
    "table:gn_tc:n1:d1":
        "77cdaf517210d01f076798c31804d98503cdc2a2316dc8547d0897cc30837a9e",
    "table:gn_tc:n1:d12":
        "77cdaf517210d01f076798c31804d98503cdc2a2316dc8547d0897cc30837a9e",
    "table:gn_tc:n1:d7":
        "2602cca32f334f0664a627a6d2e45503f5d03f7ccaa741729242b7a6bff52d35",
    "table:gn_tc:n2:d1":
        "77cdaf517210d01f076798c31804d98503cdc2a2316dc8547d0897cc30837a9e",
    "table:gn_tc:n2:d12":
        "77cdaf517210d01f076798c31804d98503cdc2a2316dc8547d0897cc30837a9e",
    "table:gn_tc:n2:d7":
        "1ead833095930fa4a0051b2c82d93f13a5b1bf58261618b5744cd3ad47bba353",
    "table:gn_tc:n3:d1":
        "77cdaf517210d01f076798c31804d98503cdc2a2316dc8547d0897cc30837a9e",
    "table:gn_tc:n3:d12":
        "77cdaf517210d01f076798c31804d98503cdc2a2316dc8547d0897cc30837a9e",
    "table:gn_tc:n3:d7":
        "ec3edc7a0fc7cf8fd901cfb6486dcefbec2057b8eac671cfe1afa6d898c713cb",
    "table:list":
        "a197d48902f3bb1bf1d7942d0babbb7f63bdcdac1b20ea094e3b39236a82d0b7",
    "table:mc:bc-tc":
        "ab1bd4f57d7b62e91cd0c55c29ee8cd0d33e6326581095dd996cc42443508073",
    "table:sweep:1-12":
        "f916b9081fedfe9a8c9e63bd31467780f63bfb2fe794302296105f9ad5726cc4",
    "table:yesno:n1:d1":
        "77cdaf517210d01f076798c31804d98503cdc2a2316dc8547d0897cc30837a9e",
    "table:yesno:n1:d12":
        "77cdaf517210d01f076798c31804d98503cdc2a2316dc8547d0897cc30837a9e",
    "table:yesno:n1:d7":
        "4709b512370e29685f49a8187a1a30c835caa22b744497d8337a2404ef400ef5",
    "table:yesno:n2:d1":
        "77cdaf517210d01f076798c31804d98503cdc2a2316dc8547d0897cc30837a9e",
    "table:yesno:n2:d12":
        "77cdaf517210d01f076798c31804d98503cdc2a2316dc8547d0897cc30837a9e",
    "table:yesno:n2:d7":
        "5bb5c29861a6a9eb8e2201b0aa6258cf58fff5805e1bd7e08afab6fe3188cab3",
    "table:yesno:n3:d1":
        "77cdaf517210d01f076798c31804d98503cdc2a2316dc8547d0897cc30837a9e",
    "table:yesno:n3:d12":
        "77cdaf517210d01f076798c31804d98503cdc2a2316dc8547d0897cc30837a9e",
    "table:yesno:n3:d7":
        "0cbf78a721e4701d8d03a6153c37b9f4890c6fbf66a1982cf74bb14b98e09d2c",
}


@pytest.fixture(scope="module")
def digests():
    return {key: _digest(text) for key, text in _outputs().items()}


def test_golden_keys_cover_every_case(digests):
    assert sorted(digests) == sorted(GOLDEN)


@pytest.mark.parametrize(
    "kind", ["eval", "table", "csv", "run", "kernel", "marginal", "builtin", "classes"]
)
def test_golden_digests(digests, kind):
    changed = [
        key for key in GOLDEN
        if key.startswith(f"{kind}:") and digests.get(key) != GOLDEN[key]
    ]
    assert changed == []


LARGEST = {
    ("run", "classic-coinflip", "--week-days", "365"): {
        "table": "fc85bc6b6d13458541fceca4bb1617db60e6eae3f5e5d7f36b993bc4a281225a",
        "csv": "2578e1c3adf0ba9ddce2c8400a875898e738e1c36953671abac42567bfa17f5f",
        "json": "a7929c94f922b134498fab09a2a21b548c47ffdd6c875fb01de4edce76929a7b",
    },
    ("eval", os.path.join(PROC_DIR, "gn_dn.proc"), "--children", "5",
     "--say", "claim(boy,tue)", "--event", "all(boy)"): {
        "table": "67e2d44987d0df8fa139897a83f0b8e5c05733da02b9e9589513e550f1360e44",
        "csv": "67f67139c9a46ba7ec01e7c03da3038c79efffc669eaf732cc5ff1a32e7a946a",
        "json": "64a8f49647d717beef01e08486dcf860bcad81c32330a369c16e7c3da1f38218",
    },
}


class _HashingOut:
    """A text stream that keeps only the sha256 of what is written to it."""

    def __init__(self):
        self.sha256 = hashlib.sha256()

    def write(self, text):
        self.sha256.update(text.encode("utf-8"))


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
@pytest.mark.parametrize("argv", list(LARGEST))
def test_largest_case_tables(argv, fmt):
    out = _HashingOut()
    assert main([*argv, "--format", fmt], out=out) == 0
    assert out.sha256.hexdigest() == LARGEST[argv][fmt]
