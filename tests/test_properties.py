"""Property-based checks over randomized kernels on small worlds."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from ambiprob.engine import (
    AtLeastOne,
    CaseRow,
    Claim,
    ProtocolKernel,
    REJECT,
    marginal,
    posterior,
    statement_mass,
    validate_kernel,
)
from ambiprob.model import (
    AllMatch,
    Always,
    And,
    ChildDayIs,
    ChildSexIs,
    CountAtLeast,
    Exists,
    Not,
    Or,
    Sex,
    WorldConfig,
    compile_query,
    count_families,
    enumerate_families,
    eval_query,
    family_str,
    restrict_prior,
    uniform_prior,
)

WORLDS = [WorldConfig(1, 2), WorldConfig(2, 2), WorldConfig(7, 2)]


def alphabet(cfg):
    stmts = [AtLeastOne(Sex.BOY), AtLeastOne(Sex.GIRL)]
    stmts += [Claim(Sex.BOY, d) for d in range(cfg.week_length)]
    return stmts


@st.composite
def kernels(draw):
    cfg = draw(st.sampled_from(WORLDS))
    stmts = alphabet(cfg)
    rows = {}
    for f in enumerate_families(cfg):
        row = {}
        # random rational weights normalized to total <= 1
        raw = [draw(st.integers(min_value=0, max_value=4)) for _ in stmts]
        total = sum(raw)
        scale = draw(st.integers(min_value=max(total, 1), max_value=max(total, 1) + 6))
        for s, r in zip(stmts, raw):
            if r:
                row[s] = Fraction(r, scale)
        rows[f] = row
    return ProtocolKernel.from_rows(cfg, rows)


def emitted_statements(k):
    seen = set()
    for row in k.rows.values():
        for s, w in row.items():
            if w > 0:
                seen.add(s)
    return sorted(seen, key=repr)


queries = st.sampled_from(
    [
        AllMatch(sex=Sex.BOY),
        Exists(Sex.GIRL),
        AllMatch(day=0),
        Exists(Sex.BOY, 0),
        Always(),
    ]
)


# Days run past the longest week in WORLDS, so some leaves match no child.
_sexes = st.sampled_from([None, Sex.BOY, Sex.GIRL])
_days = st.none() | st.integers(min_value=0, max_value=8)
_indices = st.integers(min_value=0, max_value=1)
query_trees = st.recursive(
    queries
    | st.builds(ChildSexIs, _indices, st.sampled_from(list(Sex)))
    | st.builds(ChildDayIs, _indices, st.integers(min_value=0, max_value=8))
    | st.builds(Exists, _sexes, _days)
    | st.builds(AllMatch, _sexes, _days)
    | st.builds(CountAtLeast, st.integers(min_value=-1, max_value=3), _sexes, _days),
    lambda inner: st.builds(And, inner, inner) | st.builds(Or, inner, inner)
    | st.builds(Not, inner),
    max_leaves=6,
)


@settings(max_examples=60, deadline=None)
@given(query_trees)
def test_compiled_query_matches_eval_query(q):
    for cfg in WORLDS:
        test = compile_query(q, cfg)
        assert [test(f) for f in enumerate_families(cfg)] == [
            eval_query(q, f) for f in enumerate_families(cfg)
        ]


@settings(max_examples=40, deadline=None)
@given(kernels(), queries, st.randoms(use_true_random=False))
def test_posterior_complement_is_one(k, q, rnd):
    assert validate_kernel(k) == []
    stmts = emitted_statements(k)
    if not stmts:
        return
    s = rnd.choice(stmts)
    p = posterior(k, s, q).posterior
    p_not = posterior(k, s, Not(q)).posterior
    assert p + p_not == 1
    assert 0 <= p <= 1


@settings(max_examples=40, deadline=None)
@given(kernels())
def test_marginal_total_probability(k):
    m = marginal(k)
    assert sum(m.values(), Fraction(0)) == 1
    assert m[REJECT] >= 0
    for s in emitted_statements(k):
        assert m[s] == statement_mass(k, s)


@settings(max_examples=40, deadline=None)
@given(kernels(), st.fractions(min_value=Fraction(1, 20), max_value=1),
       st.randoms(use_true_random=False))
def test_posterior_invariant_under_uniform_scaling(k, c, rnd):
    stmts = emitted_statements(k)
    if not stmts:
        return
    s = rnd.choice(stmts)
    q = AllMatch(sex=Sex.BOY)
    base = posterior(k, s, q).posterior
    scaled_rows = {
        f: {st_: (w * c if st_ == s else w) for st_, w in row.items()}
        for f, row in k.rows.items()
    }
    scaled = ProtocolKernel.from_rows(k.config, scaled_rows, pre_filter=k.pre_filter)
    assert validate_kernel(scaled) == []
    assert posterior(scaled, s, q).posterior == base


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(WORLDS), queries)
def test_restrict_prior_idempotent(cfg, q):
    prior = uniform_prior(cfg)
    if count_families(cfg, q) == 0:
        return
    once = restrict_prior(prior, q)
    assert restrict_prior(once, q) == once
    assert sum(once.values(), Fraction(0)) == 1


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(WORLDS), queries)
def test_count_complement_property(cfg, q):
    total = cfg.n_outcomes
    assert count_families(cfg, q) + count_families(cfg, Not(q)) == total


def _reference(k, s, q):
    """Conditioning over an explicit Fraction prior: the loop the engine's
    counting replaced, kept as the reference."""
    prior = uniform_prior(k.config)
    if k.pre_filter is not None:
        prior = restrict_prior(prior, k.pre_filter)
    cases, s_mass, joint = [], Fraction(0), Fraction(0)
    for f in sorted(prior, key=family_str):
        emission = k.rows.get(f, {}).get(s, Fraction(0))
        if emission != 0:
            cases.append(CaseRow(f, prior[f], emission, eval_query(q, f)))
            s_mass += prior[f] * emission
            joint += prior[f] * emission if cases[-1].event else 0
    out, reject = {}, Fraction(0)
    for f, w in prior.items():
        emitted = Fraction(0)
        for st_, ew in k.rows.get(f, {}).items():
            if ew > 0:
                out[st_] = out.get(st_, Fraction(0)) + w * ew
                emitted += ew
        reject += w * (1 - emitted)
    out[REJECT] = reject
    return s_mass, joint, tuple(cases), out


@settings(max_examples=40, deadline=None)
@given(kernels(), st.sampled_from([None, Exists(Sex.BOY), Not(AllMatch(sex=Sex.BOY))]), queries,
       st.randoms(use_true_random=False))
def test_counting_matches_explicit_prior(k, pre, q, rnd):
    # a valid kernel keeps only the rows of the families the pre-filter keeps
    rows = {f: row for f, row in k.rows.items() if pre is None or eval_query(pre, f)}
    k = ProtocolKernel.from_rows(k.config, rows, pre_filter=pre)
    assert validate_kernel(k) == []
    stmts = emitted_statements(k)
    if not stmts:
        return
    s = rnd.choice(stmts)
    s_mass, joint, cases, out = _reference(k, s, q)
    assert list(marginal(k).items()) == list(out.items())
    assert statement_mass(k, s) == s_mass
    if s_mass == 0:
        return
    rep = posterior(k, s, q)
    assert (rep.statement_mass, rep.joint_mass, rep.case_table) == (s_mass, joint, cases)
    assert rep.posterior == joint / s_mass
