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

To see what changed after a failure, print `_outputs()` on both trees and diff.
"""

import hashlib
import io
import os
import warnings
from fractions import Fraction

import pytest

from ambiprob.cli import main
from ambiprob.dsl import load_protocol
from ambiprob.engine import REJECT, marginal, render_statement
from ambiprob.errors import AmbiprobError
from ambiprob.model import WorldConfig, family_str
from ambiprob.scenarios import BUILTIN_IDS, build_scenario

PROC_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "ambiprob", "procs")
SIZES = (1, 2, 3)
WEEKS = (1, 7, 12)
EVENT = "all(boy)"
BUILTIN_WEEKS = (1, 2, 7, 30)
BUILTIN_PS = (Fraction(0), Fraction(1, 12), Fraction(13, 27), Fraction(1))


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


def _kernel_texts(path: str, cfg: WorldConfig) -> tuple[str, str]:
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            kernel = load_protocol(path, cfg)
    except AmbiprobError as exc:
        return type(exc).__name__, type(exc).__name__
    return _rows_text(kernel, cfg), _marginal_text(kernel, cfg)


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
                out[f"eval:{tag}"] = "".join(
                    _cli("eval", path, "--say", say, "--event", EVENT,
                         "--format", "json", *world)
                    for say in _statements(proc, d)
                )
                out[f"kernel:{tag}"], out[f"marginal:{tag}"] = _kernel_texts(
                    path, WorldConfig(d, n)
                )
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
}


@pytest.fixture(scope="module")
def digests():
    return {key: _digest(text) for key, text in _outputs().items()}


def test_golden_keys_cover_every_case(digests):
    assert sorted(digests) == sorted(GOLDEN)


@pytest.mark.parametrize("kind", ["eval", "run", "kernel", "marginal", "builtin"])
def test_golden_digests(digests, kind):
    changed = [
        key for key in GOLDEN
        if key.startswith(f"{kind}:") and digests.get(key) != GOLDEN[key]
    ]
    assert changed == []
