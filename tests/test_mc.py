import math
import os
import tracemalloc
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from ambiprob.dsl import (
    compile_protocol, load_protocol, parse, parse_event_text, parse_statement_text,
)
from ambiprob.engine import AtLeastOne, Claim, Text, YesNo, posterior
from ambiprob.errors import DegenerateProtocol, ZeroStatementMass
from ambiprob.mc import (
    _BLOCK, _CHUNK, McResult, _compile_tables, _family_bounds, agreement_check,
    sample_posterior,
)
from ambiprob.model import AllMatch, Always, Sex, WorldConfig
from ambiprob.scenarios import build_scenario

TUE = 1
CFG = WorldConfig(7, 2)
BOTH_BOYS = AllMatch(sex=Sex.BOY)
PROC_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "ambiprob", "procs")


def test_determinism_same_seed():
    sc = build_scenario("bc-tc", CFG, day=TUE)
    a = sample_posterior(sc.kernel, sc.canonical_statement, BOTH_BOYS, 20000, seed=7)
    b = sample_posterior(sc.kernel, sc.canonical_statement, BOTH_BOYS, 20000, seed=7)
    assert a == b


def test_different_seeds_differ():
    sc = build_scenario("bc-tc", CFG, day=TUE)
    a = sample_posterior(sc.kernel, sc.canonical_statement, BOTH_BOYS, 20000, seed=1)
    b = sample_posterior(sc.kernel, sc.canonical_statement, BOTH_BOYS, 20000, seed=2)
    assert a.hits != b.hits


def test_estimate_near_exact():
    sc = build_scenario("bc-tc", CFG, day=TUE)
    r = sample_posterior(sc.kernel, sc.canonical_statement, BOTH_BOYS, 10**6, seed=42)
    assert abs(r.estimate - 13 / 27) < 0.005
    assert r.statement_matches == 10**6
    assert r.hits <= r.statement_matches <= r.trials


def test_brag_estimate_exactly_zero():
    sc = build_scenario("brag", CFG)
    r = sample_posterior(sc.kernel, AtLeastOne(Sex.BOY), BOTH_BOYS, 50000, seed=3)
    assert r.hits == 0
    assert r.estimate == 0.0


def test_certain_event_estimate_exactly_one():
    sc = build_scenario("classic-selection", CFG)
    r = sample_posterior(sc.kernel, AtLeastOne(Sex.BOY), Always(), 50000, seed=5)
    assert r.estimate == 1.0


def test_rejection_counters():
    filtered = build_scenario("bc-tc", CFG, day=TUE)
    r = sample_posterior(filtered.kernel, Claim(Sex.BOY, TUE), BOTH_BOYS, 10000, seed=11)
    assert r.rejected_families > 0  # pre-filter "sent home" loop
    assert r.rejected_runs == 0

    noisy = build_scenario("brag", CFG)  # no pre-filter; two-girl families reject in-run
    r2 = sample_posterior(noisy.kernel, AtLeastOne(Sex.BOY), BOTH_BOYS, 10000, seed=11)
    assert r2.rejected_families == 0
    assert r2.rejected_runs > 0

    unfiltered = build_scenario("yesno", CFG, day=TUE)
    r3 = sample_posterior(unfiltered.kernel, YesNo(True), BOTH_BOYS, 10000, seed=11)
    assert r3.rejected_families == 0
    assert r3.rejected_runs == 0


def test_degenerate_protocol_raises():
    sc = build_scenario("bc-tc", CFG, day=TUE)
    with pytest.raises(ZeroStatementMass):
        sample_posterior(sc.kernel, Text("never"), BOTH_BOYS, 100, seed=1)
    with pytest.raises(DegenerateProtocol):
        sample_posterior(
            sc.kernel, Claim(Sex.BOY, TUE), BOTH_BOYS, 10**6, seed=1,
            redraw_cap=1,
        )


# P(yes) = 1e-6 per draw: seed 0's first chunk of 2^18 draws matches nothing
RARE_YES = "procedure p { flip 1/1000000 { say yes; } else { reject; } }"
# (redraw_cap, the run of misses that exceeds it) for seed 0 and 2 trials: the
# first run spans a chunk without a match, and the cap is checked both at the
# end of that chunk and at each match
RARE_YES_CAPS = [(262_143, 262_144), (262_144, 357_064), (357_064, 429_367),
                 (691_511, 953_655)]


def test_a_chunk_without_a_match_counts_toward_the_redraw_cap():
    kernel = compile_protocol(parse(RARE_YES), WorldConfig(1, 1))
    for cap, run in RARE_YES_CAPS:
        with pytest.raises(DegenerateProtocol) as exc:
            sample_posterior(kernel, YesNo(True), Always(), 2, seed=0, redraw_cap=cap)
        assert str(exc.value) == (f"{run} consecutive draws without a statement match (cap "
                                  "exceeded); statement mass is zero or vanishingly small")
    for trials, rejected_runs in ((1, 357_064), (2, 1_394_713)):
        r = sample_posterior(kernel, YesNo(True), Always(), trials, seed=0)
        assert (r.trials, r.statement_matches, r.rejected_families) == (trials, trials, 0)
        assert r.rejected_runs == rejected_runs


def test_degenerate_protocol_names_the_statement_as_the_language_writes_it():
    sc = build_scenario("bc-tc", CFG, day=TUE)
    with pytest.raises(ZeroStatementMass) as exc:
        sample_posterior(sc.kernel, Claim(Sex.GIRL, TUE), BOTH_BOYS, 100, seed=1)
    # the sampler and `posterior` name a statement that is never emitted alike
    assert str(exc.value) == "statement claim(girl,tue) is never emitted under this protocol"
    with pytest.raises(ZeroStatementMass) as exact:
        posterior(sc.kernel, Claim(Sex.GIRL, TUE), BOTH_BOYS)
    assert str(exact.value) == str(exc.value)


# A copy of the benchmark's nested_primes procedure: the common denominator of
# its four prime-denominator flips does not fit in int64.
NESTED_PRIMES = """procedure nested_primes {
  flip 1/999983 { say text("a"); } else {
    flip 1/999979 { say text("b"); } else {
      flip 1/999961 { say text("c"); } else {
        flip 1/999959 { say text("d"); } else { pick c; say claim(sex(c)); }
      }
    }
  }
}
"""


def test_common_denominator_beyond_int64_raises_overflow_error():
    # a known limit of the sampler that the benchmark's nested_primes op expects
    cfg = WorldConfig(1, 1)
    kernel = compile_protocol(parse(NESTED_PRIMES), cfg)
    with pytest.raises(OverflowError, match="does not fit in int64"):
        sample_posterior(kernel, parse_statement_text("claim(boy)", cfg),
                         parse_event_text("all(boy)", cfg), 1, seed=0)


def test_non_positive_trials_or_shards_raise_value_error():
    sc = build_scenario("bc-tc", CFG, day=TUE)
    with pytest.raises(ValueError):
        sample_posterior(sc.kernel, sc.canonical_statement, BOTH_BOYS, 0, seed=1)
    with pytest.raises(ValueError):
        sample_posterior(sc.kernel, sc.canonical_statement, BOTH_BOYS, 100, seed=1, shards=0)


def test_sharding_is_deterministic_and_counts_add_up():
    sc = build_scenario("bc-tc", CFG, day=TUE)
    a = sample_posterior(sc.kernel, sc.canonical_statement, BOTH_BOYS, 30000, seed=9, shards=3)
    b = sample_posterior(sc.kernel, sc.canonical_statement, BOTH_BOYS, 30000, seed=9, shards=3)
    assert a == b
    assert a.statement_matches == 30000
    assert a.shards == 3


def test_agreement_check_passes_builtins_small():
    for sid in ("classic-selection", "gn-dn", "yesno"):
        sc = build_scenario(sid, CFG)
        rep = agreement_check(
            sc.kernel, sc.canonical_statement, sc.canonical_query, 200000, seed=42
        )
        assert rep.passed, sid


def test_agreement_check_negative_control():
    sc = build_scenario("bc-tc", CFG, day=TUE)
    rep = agreement_check(
        sc.kernel, sc.canonical_statement, BOTH_BOYS, 200000, seed=42,
        exact=Fraction(13, 27) + Fraction(1, 10),
    )
    assert not rep.passed


def test_yesno_empirical_yes_rate():
    sc = build_scenario("yesno", CFG, day=TUE)
    r = sample_posterior(sc.kernel, YesNo(True), Always(), 100000, seed=42)
    # matches over all emitting runs approximates the exact yes mass 27/196
    assert abs(r.statement_matches / r.trials - 27 / 196) < 0.01


def test_more_shards_than_trials_gives_the_same_result():
    # shards past the trial count get no trials and need no seed stream
    sc = build_scenario("bc-tc", CFG, day=TUE)
    args = (sc.kernel, sc.canonical_statement, sc.canonical_query, 5, 11)
    five = sample_posterior(*args, shards=5)
    for shards in (50, 10**8):
        assert sample_posterior(*args, shards=shards) == replace(five, shards=shards)


def _builtin(sid, d, trials, seed, shards=1):
    sc = build_scenario(sid, WorldConfig(d, 2))
    return sample_posterior(
        sc.kernel, sc.canonical_statement, sc.canonical_query, trials, seed, shards=shards
    )


def _proc(name, n, say, event, trials, seed):
    cfg = WorldConfig(7, n)
    kernel = load_protocol(os.path.join(PROC_DIR, name + ".proc"), cfg)
    return sample_posterior(
        kernel, parse_statement_text(say, cfg), parse_event_text(event, cfg), trials, seed
    )


# Full results recorded with the sampler that compared every draw against the
# whole statement alphabet; any sampler change must reproduce them bit for bit.
GOLDEN = [
    pytest.param(
        lambda: _builtin("gn-dn", 7, 40000, 7),
        McResult(trials=560978, rejected_families=0, rejected_runs=0, hits=20153,
                 statement_matches=40000, estimate=0.503825,
                 stderr=0.0024999268458046927, seed=7, shards=1),
        id="gn-dn-d7",
    ),
    pytest.param(
        lambda: _builtin("gn-dn", 30, 20000, 30),
        McResult(trials=1205607, rejected_families=0, rejected_runs=0, hits=10149,
                 statement_matches=20000, estimate=0.50745,
                 stderr=0.0035351414222064724, seed=30, shards=1),
        id="gn-dn-d30",
    ),
    pytest.param(
        lambda: _builtin("bc-dn", 7, 30000, 11, shards=2),
        McResult(trials=210363, rejected_families=69632, rejected_runs=0, hits=9974,
                 statement_matches=30000, estimate=0.3324666666666667,
                 stderr=0.00271988101591609, seed=11, shards=2),
        id="bc-dn-shards2",
    ),
    pytest.param(
        lambda: _builtin("brag", 7, 30000, 3),
        McResult(trials=45011, rejected_families=0, rejected_runs=15183, hits=0,
                 statement_matches=30000, estimate=0.0, stderr=0.0, seed=3, shards=1),
        id="brag-in-run-reject",
    ),
    pytest.param(
        lambda: _builtin("classic-selection", 7, 30000, 5),
        McResult(trials=30000, rejected_families=10010, rejected_runs=0, hits=9983,
                 statement_matches=30000, estimate=0.33276666666666666,
                 stderr=0.002720496353132532, seed=5, shards=1),
        id="classic-selection-pre-filter",
    ),
    pytest.param(
        lambda: _proc("gn_dn", 3, "claim(boy,tue)", "all(boy)", 20000, 13),
        McResult(trials=278199, rejected_families=0, rejected_runs=0, hits=4985,
                 statement_matches=20000, estimate=0.24925,
                 stderr=0.0030587941864401403, seed=13, shards=1),
        id="gn_dn-proc-n3",
    ),
]


@pytest.mark.parametrize("run, expected", GOLDEN)
def test_golden_results_are_bit_identical(run, expected):
    assert run() == expected


# Bounds of a draw below 2^31, one that Lemire's method rejects about 30% of
# the time, and one above 2^32, which numpy draws on its 64-bit path.
BOUNDS = [12, 3_000_000_019, 9_000_000_057]


@pytest.mark.parametrize("m", BOUNDS)
@pytest.mark.parametrize("sizes", [(1, 2, 5, 17, 999, 4), (3, 3, 3),
                                   (_BLOCK,) * (_CHUNK // _BLOCK)])
def test_split_bounded_draws_equal_one_draw(m, sizes):
    # the sampler draws a chunk's u values block by block; its results are
    # those of one draw per chunk only if split draws continue one stream
    whole = np.random.Generator(np.random.PCG64(5))
    split = np.random.Generator(np.random.PCG64(5))
    one = whole.integers(0, m, size=sum(sizes))
    parts = np.concatenate([split.integers(0, m, size=k) for k in sizes])
    assert np.array_equal(one, parts)
    assert whole.bit_generator.state == split.bit_generator.state


@pytest.mark.parametrize("m", [1, 2, 14, 3_000_019, 2**31 - 1])
def test_int32_bounded_draws_equal_int64_draws(m):
    # a common denominator that fits int32 has its u values drawn as int32;
    # the results stay bit-identical only if they are int64's values and stream
    wide = np.random.Generator(np.random.PCG64(5))
    narrow = np.random.Generator(np.random.PCG64(5))
    for size in (1, 999, _BLOCK):
        assert np.array_equal(wide.integers(0, m, size=size),
                              narrow.integers(0, m, size=size, dtype=np.int32))
    assert wide.bit_generator.state == narrow.bit_generator.state


def _reference_shard(rng, event, which, lo, hi, tot, denom, n_matches, cap):
    """`_run_shard` one draw at a time in plain Python, drawing each chunk's
    u values at once where the sampler draws them block by block."""
    event, which, lo, hi, tot = (t.tolist() for t in (event, which, lo, hi, tot))
    sent_home = len(lo) - 1
    counters = dict.fromkeys(("trials", "rejected_families", "rejected_runs", "hits",
                              "statement_matches"), 0)
    misses = 0

    def check(run):
        if run > cap:
            raise DegenerateProtocol(
                f"{run} consecutive draws without a statement match (cap exceeded); "
                "statement mass is zero or vanishingly small"
            )

    while True:
        families = rng.integers(0, len(which), size=_CHUNK).tolist()
        draws = rng.integers(0, denom, size=_CHUNK).tolist()
        matched = False
        for fam, u in zip(families, draws):
            line = which[fam]
            if line == sent_home:
                counters["rejected_families"] += 1
            elif u < tot[line]:
                counters["trials"] += 1
            else:
                counters["rejected_runs"] += 1
            if not lo[line] <= u < hi[line]:
                misses += 1
                continue
            check(misses)  # the run of misses this match ends
            matched, misses = True, 0
            counters["statement_matches"] += 1
            counters["hits"] += event[fam]
            if counters["statement_matches"] == n_matches:
                return counters
        if not matched:
            check(misses)


def _reference_posterior(kernel, s, q, n_trials, seed, shards=1, redraw_cap=10_000_000):
    tables = _compile_tables(kernel, s, q)
    seqs = np.random.SeedSequence(seed).spawn(min(shards, n_trials))
    base, rem = divmod(n_trials, shards)
    totals = Counter()
    for i, seq in enumerate(seqs):
        rng = np.random.Generator(np.random.PCG64(seq))
        totals.update(_reference_shard(rng, *tables, base + (i < rem), redraw_cap))
    estimate = totals["hits"] / n_trials
    return McResult(**totals, estimate=estimate,
                    stderr=math.sqrt(estimate * (1.0 - estimate) / n_trials),
                    seed=seed, shards=shards)


@pytest.mark.parametrize("shards", [1, 3])
@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("sid", ["gn-dn", "bc-tc", "brag", "classic-selection", "yesno"])
def test_sampler_matches_a_per_draw_reference(sid, seed, shards):
    sc = build_scenario(sid, CFG)
    args = (sc.kernel, sc.canonical_statement, sc.canonical_query, 3000, seed)
    assert sample_posterior(*args, shards=shards) == _reference_posterior(*args, shards=shards)


def test_sampler_matches_a_per_draw_reference_across_chunks():
    # gn-dn: 40,000 matches take three chunks; the rare yes: a chunk without a
    # match (cap 262,143 is exceeded there), then one with (cap 262,144 at the match)
    sc = build_scenario("gn-dn", CFG)
    args = (sc.kernel, sc.canonical_statement, sc.canonical_query, 40000, 7)
    assert sample_posterior(*args) == _reference_posterior(*args)
    kernel = compile_protocol(parse(RARE_YES), WorldConfig(1, 1))
    args = (kernel, YesNo(True), Always(), 1, 0)
    assert sample_posterior(*args) == _reference_posterior(*args)
    for cap in (262_143, 262_144):
        with pytest.raises(DegenerateProtocol) as exc:
            sample_posterior(*args, redraw_cap=cap)
        with pytest.raises(DegenerateProtocol) as ref:
            _reference_posterior(*args, redraw_cap=cap)
        assert str(exc.value) == str(ref.value)


# Flips whose common denominator Lemire's method rejects about 30% of the
# time (3,000,000,019), and one above 2^32 (9,000,000,057) with in-run rejects.
WIDE_FLIPS = [
    pytest.param("procedure p { flip 1000000000/3000000019 { say yes; } else { say no; } }",
                 id="lemire-rejects"),
    pytest.param("procedure p { flip 1500000000/3000000019 { say yes; } "
                 "else { flip 1/3 { say no; } else { reject; } } }", id="above-2^32"),
]


@pytest.mark.parametrize("shards", [1, 3])
@pytest.mark.parametrize("text", WIDE_FLIPS)
def test_sampler_matches_a_per_draw_reference_for_wide_denominators(text, shards):
    # 150,000 matches take two chunks in one shard and several blocks in each of three
    kernel = compile_protocol(parse(text), CFG)
    args = (kernel, YesNo(True), BOTH_BOYS, 150_000, 3)
    assert sample_posterior(*args, shards=shards) == _reference_posterior(*args, shards=shards)


# Tables that send families home and reject in-run at once. With the builtins
# above (sent home only: bc-tc, classic-selection; in-run rejects only: brag;
# neither: gn-dn, yesno), every combination of a shard's counting passes is
# compared with the per-draw reference.
HOME_AND_REJECT = [
    pytest.param("procedure p { require exists(boy); flip 1/3 { say yes; } else { reject; } }",
                 id="require-flip"),
    pytest.param("procedure p { require exists(girl); if all(girl) { flip 2/7 { say yes; } "
                 "else { reject; } } else { flip 1/2 { say yes; } else { say no; } } }",
                 id="require-if-flip"),
]


@pytest.mark.parametrize("shards", [1, 3])
@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("text", HOME_AND_REJECT)
def test_sampler_matches_a_per_draw_reference_when_families_go_home_and_runs_reject(
        text, seed, shards):
    kernel = compile_protocol(parse(text), CFG)
    args = (kernel, YesNo(True), BOTH_BOYS, 3000, seed)
    bounds = _family_bounds(*_compile_tables(*args[:3]))
    assert bounds.home and bounds.rejects
    r = sample_posterior(*args, shards=shards)
    assert r.rejected_families > 0 and r.rejected_runs > 0
    assert r == _reference_posterior(*args, shards=shards)


def _outcome(sample, *args, **kwargs):
    try:
        return sample(*args, **kwargs)
    except DegenerateProtocol as exc:
        return str(exc)


@pytest.mark.parametrize("cap", [30_000, 60_000])
def test_redraw_cap_names_the_first_run_that_exceeds_it(cap):
    # P(yes) = 1/20000: a chunk holds several runs of misses, and the message
    # names the first above the cap, as the per-draw reference does, not the longest
    kernel = compile_protocol(parse("procedure p { flip 1/20000 { say yes; } else { reject; } }"),
                              WorldConfig(1, 1))
    for seed in range(6):
        args = (kernel, YesNo(True), Always(), 50, seed)
        assert (_outcome(sample_posterior, *args, redraw_cap=cap)
                == _outcome(_reference_posterior, *args, redraw_cap=cap)), seed


@pytest.mark.parametrize("cap", [4_000, 8_000])
def test_redraw_cap_below_a_block_names_the_first_run_that_exceeds_it(cap):
    # P(yes) = 1/3000: a block holds about five matches, often more than the
    # cap apart, so a run between two matches of one block can be the first to
    # exceed it; one seed at the larger cap passes
    kernel = compile_protocol(parse("procedure p { flip 1/3000 { say yes; } else { reject; } }"),
                              WorldConfig(1, 1))
    for seed in range(6):
        args = (kernel, YesNo(True), Always(), 20, seed)
        assert (_outcome(sample_posterior, *args, redraw_cap=cap)
                == _outcome(_reference_posterior, *args, redraw_cap=cap)), seed


def test_redraw_cap_checks_two_matches_of_a_block_just_over_the_cap_apart():
    # P(yes) = 1/3000 and 2 trials: seed 1's first two matches are draws 134
    # and 3,859 of its first block, cap + 2 apart for cap 3,723. The run of 134
    # before them is within the cap and the 3,724 between them is the one above
    # it, so the span guard (`final - first > cap + 1`) must measure the gaps
    kernel = compile_protocol(parse("procedure p { flip 1/3000 { say yes; } else { reject; } }"),
                              WorldConfig(1, 1))
    args = (kernel, YesNo(True), Always(), 2, 1)
    for sample in (sample_posterior, _reference_posterior):
        with pytest.raises(DegenerateProtocol) as exc:
            sample(*args, redraw_cap=3_723)
        assert str(exc.value).startswith("3724 consecutive draws without a statement match")
    assert sample_posterior(*args, redraw_cap=3_724) == _reference_posterior(*args,
                                                                          redraw_cap=3_724)


@pytest.mark.parametrize("sid, trials", [("bc-tc", 20_000), ("gn-dn", 40_000)])
def test_a_shard_classifies_its_draws_in_blocks(sid, trials):
    # the chunk's 2^18 family draws (2 MiB) are the one chunk-sized array, and
    # gn-dn's three chunks are drawn one after another, not beside each other;
    # the u values and every temporary are one block long
    sc = build_scenario(sid, CFG)
    args = (sc.kernel, sc.canonical_statement, sc.canonical_query)
    sample_posterior(*args, 1, seed=0)  # numpy's first-use allocations are not the sampler's
    tracemalloc.start()
    try:
        sample_posterior(*args, trials, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, peak


def test_table_build_keeps_no_family_list():
    # 40,000 families in 4 distinct rows: the tables are one bool and one
    # line index per family, with no list of the family tuples beside them
    sc = build_scenario("classic-coinflip", WorldConfig(100, 2))
    tracemalloc.start()
    try:
        _compile_tables(sc.kernel, sc.canonical_statement, sc.canonical_query)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
