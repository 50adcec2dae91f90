import math
import os
import tracemalloc
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from ambiprob.dsl import (
    compile_protocol, load_protocol, parse, parse_event_text, parse_statement_text,
)
from ambiprob.engine import AtLeastOne, Claim, Text, YesNo, posterior
from ambiprob.errors import DegenerateProtocol, ZeroStatementMass
from ambiprob import mc
from ambiprob.mc import (
    _BLOCK, McResult, _Bounds, _Codes, _compile_tables, _run_shard, _sampling_tables,
    agreement_check, sample_posterior,
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


def test_degenerate_protocol_raises(monkeypatch):
    sc = build_scenario("bc-tc", CFG, day=TUE)
    with pytest.raises(ZeroStatementMass):
        sample_posterior(sc.kernel, Text("never"), BOTH_BOYS, 100, seed=1)
    monkeypatch.setattr(mc, "_REDRAW_CAP", 1)
    with pytest.raises(DegenerateProtocol):
        sample_posterior(sc.kernel, Claim(Sex.BOY, TUE), BOTH_BOYS, 10**6, seed=1)


def test_the_redraw_cap_is_at_least_a_block():
    # a run between two matches of one block is shorter than a block, so the
    # sampler checks the cap once per block, against the run that crosses into it
    assert mc._REDRAW_CAP == 10_000_000
    assert mc._REDRAW_CAP >= _BLOCK


# P(yes) = 1e-6 per draw: seed 0's first 36 blocks of 2^14 draws match nothing
RARE_YES = "procedure p { flip 1/1000000 { say yes; } else { reject; } }"
# (_REDRAW_CAP, the run of misses that exceeds it) for seed 0 and 2 trials: the
# first run, 600,195 draws, spans 36 blocks without a match, and the cap is
# checked at the end of each of them and at the match; the second run is shorter.
# 16,383 is below a block, but no run between two matches of one block is
# longer than 2^14 - 2, so a check once per block still finds the first run.
RARE_YES_CAPS = [(16_383, 16_384), (589_823, 589_824), (589_824, 600_195)]


def test_a_block_without_a_match_counts_toward_the_redraw_cap(monkeypatch):
    kernel = compile_protocol(parse(RARE_YES), WorldConfig(1, 1))
    for trials, rejected_runs in ((1, 600_195), (2, 881_261)):
        r = sample_posterior(kernel, YesNo(True), Always(), trials, seed=0)
        assert (r.trials, r.statement_matches, r.rejected_families) == (trials, trials, 0)
        assert r.rejected_runs == rejected_runs
    for cap, run in RARE_YES_CAPS:
        monkeypatch.setattr(mc, "_REDRAW_CAP", cap)
        with pytest.raises(DegenerateProtocol) as exc:
            sample_posterior(kernel, YesNo(True), Always(), 2, seed=0)
        assert str(exc.value) == (f"{run} consecutive draws without a statement match (cap "
                                  "exceeded); statement mass is zero or vanishingly small")


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
# its four prime-denominator flips, about 1.0e24, does not fit in int64.
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


def _nested_primes(trials, seed, shards):
    kernel = compile_protocol(parse(NESTED_PRIMES), CFG)
    return sample_posterior(kernel, parse_statement_text("claim(boy)", CFG),
                            parse_event_text("all(boy)", CFG), trials, seed, shards=shards)


# Full results past int64, where each draw reads the bits of a uniform x and
# compares them with its line's 63-bit threshold prefixes; the per-draw
# reference below reproduces them.
WIDE_GOLDEN = [
    pytest.param(
        lambda: _nested_primes(20000, 1, 1),
        McResult(trials=39665, rejected_families=0, rejected_runs=0, hits=10070,
                 statement_matches=20000, estimate=0.5035,
                 stderr=0.0035354472842909143, seed=1, shards=1),
        id="nested-primes-seed1",
    ),
    pytest.param(
        lambda: _nested_primes(20000, 2, 3),
        McResult(trials=39953, rejected_families=0, rejected_runs=0, hits=10007,
                 statement_matches=20000, estimate=0.50035,
                 stderr=0.0035355330397268247, seed=2, shards=3),
        id="nested-primes-seed2-shards3",
    ),
]


@pytest.mark.parametrize("run, expected", WIDE_GOLDEN)
def test_wide_golden_results_are_bit_identical(run, expected):
    assert run() == expected


# A flip whose denominator, 2^65 + 1, passes 2^64, and the same flip with an
# in-run reject behind it (common denominator 3 * (2^65 + 1)).
WIDE_FLIP = ("procedure p { flip 18446744073709551617/36893488147419103233 { say yes; } "
             "else { say no; } }")
WIDE_REJECT = ("procedure p { flip 18446744073709551617/36893488147419103233 { say yes; } "
               "else { flip 1/3 { say no; } else { reject; } } }")


@pytest.mark.parametrize("shards", [1, 3])
def test_nested_primes_matches_a_per_draw_reference(shards):
    kernel = compile_protocol(parse(NESTED_PRIMES), CFG)
    args = (kernel, parse_statement_text("claim(boy)", CFG), BOTH_BOYS)
    tables = _compile_tables(*args)
    assert tables.denom > 1 << 79
    assert isinstance(_sampling_tables(tables), mc._Wide)
    args += (20000, 5)
    assert sample_posterior(*args, shards=shards) == _reference_posterior(*args, shards=shards)


@pytest.mark.parametrize("shards", [1, 3])
@pytest.mark.parametrize("text, say", [
    pytest.param(NESTED_PRIMES, "claim(boy)", id="nested-primes-boy"),
    pytest.param(NESTED_PRIMES, "claim(girl)", id="nested-primes-girl"),
    pytest.param(WIDE_REJECT, "yes", id="wide-reject-yes"),
    pytest.param(WIDE_REJECT, "no", id="wide-reject-no"),
])
def test_ties_with_a_narrow_prefix_match_a_per_draw_reference(text, say, shards,
                                                              monkeypatch):
    # with 8-bit prefixes a draw ties with an inexact threshold about once in
    # 256; claim(girl)'s lo, four text masses near 1e-6, takes three reads of
    # 8 bits to settle, and a draw can tie with two thresholds at once
    monkeypatch.setattr(mc, "_PREFIX", 8)
    ties = []

    def settle(rng, rems, denom, real=mc._settle):
        ties.append(len(rems))
        return real(rng, rems, denom)

    monkeypatch.setattr(mc, "_settle", settle)
    args = (compile_protocol(parse(text), CFG), parse_statement_text(say, CFG), BOTH_BOYS,
            3000, 7)
    assert sample_posterior(*args, shards=shards) == _reference_posterior(*args, shards=shards)
    assert len(ties) >= 30


def test_agreement_check_passes_past_2_to_the_64():
    kernel = compile_protocol(parse(WIDE_FLIP), CFG)
    assert _compile_tables(kernel, YesNo(True), BOTH_BOYS).denom > 1 << 64
    rep = agreement_check(kernel, YesNo(True), BOTH_BOYS, 200000, seed=1)
    assert rep.exact == Fraction(1, 4)
    assert rep.passed


def test_a_line_per_distinct_threshold_triple():
    # the full gn-dn kernel at d=30 has 3,600 class vectors; each emits
    # claim(boy,tue) with mass 1, 1/2 or 0 out of 1, first in statement order,
    # so they share 3 lines, and the sent-home line comes last
    sc = build_scenario("gn-dn", WorldConfig(30, 2))
    assert len(sc.kernel.table) == 3600
    tables = _compile_tables(sc.kernel, sc.canonical_statement, sc.canonical_query)
    assert (tables.lo.tolist(), tables.hi.tolist(), tables.tot.tolist()) == (
        [0, 0, 0, 0], [2, 1, 0, 0], [2, 2, 2, 0])


def test_a_row_that_emits_nothing_keeps_a_line_apart_from_the_sent_home_line():
    kernel, *rest = _sample_args(HOME_AND_REJECT[2].values[0])
    tables = _compile_tables(kernel, *rest)
    assert (tables.lo.tolist(), tables.hi.tolist(), tables.tot.tolist()) == (
        [0, 0, 0], [0, 1, 0], [0, 1, 0])
    assert sorted(set(tables.which.tolist())) == [0, 1, 2]


def test_settle_reads_bits_until_each_tie_is_decided(monkeypatch):
    # x's bits after a tied 8-bit prefix are scripted; the remainder is that
    # of a threshold whose next 16 bits are 0x80 0x01 and then all 0
    monkeypatch.setattr(mc, "_PREFIX", 8)

    class Bits:
        def __init__(self, *chunks):
            self.chunks = list(chunks)

        def integers(self, low, high, dtype):
            assert (low, high, dtype) == (0, 256, np.uint64)
            return np.uint64(self.chunks.pop(0))

    denom = 1 << 70
    rem = (0x80 << 62) + (0x01 << 54)
    for chunks, below, left in (((0x7f, 9), True, 1), ((0x81, 9), False, 1),
                                ((0x80, 0x00, 9), True, 1), ((0x80, 0x02, 9), False, 1),
                                # x equals the threshold in all it has read: not below it
                                ((0x80, 0x01, 9), False, 1)):
        bits = Bits(*chunks)
        assert mc._settle(bits, {2: rem}, denom) == {2: below}, chunks
        assert len(bits.chunks) == left, chunks
    # two ties share x's bits: one is decided by the first chunk, the other
    # reads a second
    bits = Bits(0x80, 0x00, 9)
    assert mc._settle(bits, {0: 0x40 << 62, 1: rem}, denom) == {0: False, 1: True}
    assert bits.chunks == [9]


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


def test_agreement_check_negative_control(monkeypatch):
    # an exact answer 1/10 off the true 13/27 must fail the check
    sc = build_scenario("bc-tc", CFG, day=TUE)
    wrong = Fraction(13, 27) + Fraction(1, 10)
    monkeypatch.setattr(mc, "posterior", lambda *args: SimpleNamespace(posterior=wrong))
    rep = agreement_check(sc.kernel, sc.canonical_statement, BOTH_BOYS, 200000, seed=42)
    assert rep.exact == wrong
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


# Full results that any sampler change must reproduce bit for bit. Those of a
# common denominator of 1 (brag, classic-selection) were recorded with the
# sampler that compared every draw against the whole statement alphabet; the
# others when a trial became one draw of a (family, u) pair, and the per-draw
# reference below reproduces them.
GOLDEN = [
    pytest.param(
        lambda: _builtin("gn-dn", 7, 40000, 7),
        McResult(trials=562833, rejected_families=0, rejected_runs=0, hits=19994,
                 statement_matches=40000, estimate=0.49985,
                 stderr=0.0024999998874999977, seed=7, shards=1),
        id="gn-dn-d7",
    ),
    pytest.param(
        lambda: _builtin("gn-dn", 30, 20000, 30),
        McResult(trials=1210847, rejected_families=0, rejected_runs=0, hits=10121,
                 statement_matches=20000, estimate=0.50605,
                 stderr=0.0035352750776990465, seed=30, shards=1),
        id="gn-dn-d30",
    ),
    pytest.param(
        lambda: _builtin("bc-dn", 7, 30000, 11, shards=2),
        McResult(trials=210076, rejected_families=69518, rejected_runs=0, hits=10002,
                 statement_matches=30000, estimate=0.3334,
                 stderr=0.002721791321905484, seed=11, shards=2),
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
        McResult(trials=279180, rejected_families=0, rejected_runs=0, hits=4918,
                 statement_matches=20000, estimate=0.2459,
                 stderr=0.0030449399829881704, seed=13, shards=1),
        id="gn_dn-proc-n3",
    ),
]


@pytest.mark.parametrize("run, expected", GOLDEN)
def test_golden_results_are_bit_identical(run, expected):
    assert run() == expected


def _any_answer_d365():
    sc = build_scenario("any-answer", WorldConfig(365, 2), p=Fraction(1, 12))
    return sample_posterior(sc.kernel, sc.canonical_statement, sc.canonical_query,
                            20000, 1, shards=3)


def _flip(text, trials, seed, shards):
    kernel = compile_protocol(parse(text), CFG)
    return sample_posterior(kernel, YesNo(True), BOTH_BOYS, trials, seed, shards=shards)


# Full results on the two-draw path (a block draws its families, then their u
# values), recorded before its per-family bounds gave way to per-line ones.
# any-answer's 532,900 families x 24 and the wide flip's 196 x 9,000,000,057
# pass the code-table bound; the last entry, which sends families home and
# rejects in-run, takes the path because no code table is allowed.
TWO_DRAW_GOLDEN = [
    pytest.param(
        _any_answer_d365,
        McResult(trials=20000, rejected_families=0, rejected_runs=59968, hits=1668,
                 statement_matches=20000, estimate=0.0834,
                 stderr=0.001955050382982495, seed=1, shards=3),
        id="any-answer-d365-p1/12",
    ),
    pytest.param(
        lambda: _flip(WIDE_FLIPS[1].values[0], 150_000, 3, 3),
        McResult(trials=200553, rejected_families=0, rejected_runs=100121, hits=37760,
                 statement_matches=150000, estimate=0.2517333333333333,
                 stderr=0.0011206059736357593, seed=3, shards=3),
        id="wide-flip-above-2^32",
    ),
    pytest.param(
        lambda: _flip(HOME_AND_REJECT[0].values[0], 30000, 7, 2),
        McResult(trials=30000, rejected_families=30138, rejected_runs=60222, hits=9884,
                 statement_matches=30000, estimate=0.3294666666666667,
                 stderr=0.002713659166895149, seed=7, shards=2),
        id="require-flip-home-and-reject",
    ),
]


@pytest.mark.parametrize("run, expected", TWO_DRAW_GOLDEN)
def test_two_draw_golden_results_are_bit_identical(run, expected, monkeypatch):
    monkeypatch.setattr(mc, "_TABLE_MAX", 0)
    assert run() == expected


def test_the_two_draw_path_draws_from_the_compiled_tables():
    # 532,900 families x 24 pass the code-table bound: the sample draws from
    # `_compile_tables`' own arrays, with no per-family array built beside them
    sc = build_scenario("any-answer", WorldConfig(365, 2), p=Fraction(1, 12))
    compiled = _compile_tables(sc.kernel, sc.canonical_statement, sc.canonical_query)
    tracemalloc.start()
    try:
        tables = _sampling_tables(compiled)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(tables, _Bounds)
    built = [t for t in compiled if isinstance(t, np.ndarray)]
    arrays = [t for t in tables if isinstance(t, np.ndarray)]
    assert len(arrays) == 5
    for a in arrays:
        assert any(np.shares_memory(a, b) for b in built)
    assert peak < 64 << 10, peak


# Bounds of a draw that takes nothing from the stream, one below 2^31, one
# that Lemire's method rejects about 30% of the time, the two largest that
# numpy draws from 32-bit halves, and one above 2^32, which numpy draws on its
# 64-bit path.
BOUNDS = [1, 12, 3_000_000_019, 2**32 - 1, 2**32, 9_000_000_057]


@pytest.mark.parametrize("m", BOUNDS)
@pytest.mark.parametrize("sizes", [(1, 2, 5, 17, 999, 4), (3, 3, 3), (_BLOCK,) * 16])
def test_split_bounded_draws_equal_one_draw(m, sizes):
    # the sampler draws block by block through `mc._Stream`; a kernel whose
    # common denominator is 1 draws the family indices that one draw of 2^18
    # gives only if split draws continue one stream, carried half included
    whole = np.random.Generator(np.random.PCG64(5))
    split = np.random.Generator(np.random.PCG64(5))
    one = whole.integers(0, m, size=sum(sizes))
    stream = mc._Stream(split)
    parts = np.concatenate([stream.integers(0, m, size=k) for k in sizes])
    stream.close()
    assert parts.dtype == one.dtype
    assert np.array_equal(one, parts)
    assert whole.bit_generator.state == split.bit_generator.state

    # after a draw that leaves a half buffered, with a scalar draw and a
    # 63-bit draw (`_Wide`'s and `_settle`'s) after each part
    def interleaved(gen):
        return [v for k in sizes for v in (gen.integers(0, m, size=k), gen.integers(0, m),
                                           gen.integers(0, 1 << 63, dtype=np.uint64))]

    whole, split = (np.random.Generator(np.random.PCG64(6)) for _ in range(2))
    for rng in whole, split:
        rng.integers(0, 12)
    want = interleaved(whole)
    stream = mc._Stream(split)
    got = interleaved(stream)
    stream.close()
    assert [a.dtype for a in got] == [a.dtype for a in want]
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert whole.bit_generator.state == split.bit_generator.state


@pytest.mark.parametrize("m", [1, 2, 14, 3_000_019, 2**31 - 1])
def test_int32_bounded_draws_equal_int64_draws(m):
    # the two-draw path drew u as int32 where the common denominator fit int32,
    # and now draws int64 for every denominator; its recorded results stayed
    # bit-identical because both draw the same values from the same stream
    wide = np.random.Generator(np.random.PCG64(5))
    narrow = np.random.Generator(np.random.PCG64(5))
    for size in (1, 999, _BLOCK):
        assert np.array_equal(wide.integers(0, m, size=size),
                              narrow.integers(0, m, size=size, dtype=np.int32))
    assert wide.bit_generator.state == narrow.bit_generator.state


def _reference_shard(rng, event, which, lo, hi, tot, denom, n_matches, cap):
    """`_run_shard` one draw at a time in plain Python, classifying each draw
    against its family's line. A block is one draw of X below families x
    denominator, each X split by divmod into a family and its u, or, where
    that product exceeds the sampler's code-table bound, a draw of families
    and then one of their u values. Where the denominator passes int64, u is
    the integer part of x * denom for a uniform x in [0, 1), read as exact
    binary digits, `mc._PREFIX` at a time, until no threshold of the draw's
    line falls strictly inside the interval that x is known to lie in."""
    event, which, lo, hi, tot = (t.tolist() for t in (event, which, lo, hi, tot))
    n_fam, sent_home, bits = len(which), len(lo) - 1, mc._PREFIX
    counters = dict.fromkeys(("trials", "rejected_families", "rejected_runs", "hits",
                              "statement_matches"), 0)
    misses = 0

    def check(run):
        if run > cap:
            raise DegenerateProtocol(
                f"{run} consecutive draws without a statement match (cap exceeded); "
                "statement mass is zero or vanishingly small"
            )

    def wide_u(line, w):
        k = bits  # x lies in [w, w + 1) / 2^k
        while any(w * denom < t << k < (w + 1) * denom for t in (lo[line], hi[line], tot[line])):
            w = (w << bits) + int(rng.integers(0, 1 << bits, dtype=np.uint64))
            k += bits
        return (w * denom) >> k  # each u of the interval compares alike with the thresholds

    def block():
        if n_fam * denom <= mc._TABLE_MAX:
            return [divmod(x, denom) for x in rng.integers(0, n_fam * denom, size=_BLOCK).tolist()]
        families = rng.integers(0, n_fam, size=_BLOCK).tolist()
        if denom < 1 << 63:
            return zip(families, rng.integers(0, denom, size=_BLOCK).tolist())
        prefixes = rng.integers(0, 1 << bits, size=_BLOCK, dtype=np.uint64).tolist()
        return [(fam, wide_u(which[fam], w)) for fam, w in zip(families, prefixes)]

    while True:
        matched = False
        for fam, u in block():
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


def _reference_posterior(kernel, s, q, n_trials, seed, shards=1):
    tables = _compile_tables(kernel, s, q)
    seqs = np.random.SeedSequence(seed).spawn(min(shards, n_trials))
    base, rem = divmod(n_trials, shards)
    totals = Counter()
    for i, seq in enumerate(seqs):
        rng = np.random.Generator(np.random.PCG64(seq))
        totals.update(_reference_shard(rng, *tables, base + (i < rem), mc._REDRAW_CAP))
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


def test_sampler_matches_a_per_draw_reference_across_blocks(monkeypatch):
    # gn-dn: 40,000 matches take 35 blocks; the rare yes: 36 blocks without a
    # match (cap 589,823 is exceeded at the end of the last), then one with
    # (cap 589,824 is exceeded at the match)
    sc = build_scenario("gn-dn", CFG)
    args = (sc.kernel, sc.canonical_statement, sc.canonical_query, 40000, 7)
    assert sample_posterior(*args) == _reference_posterior(*args)
    kernel = compile_protocol(parse(RARE_YES), WorldConfig(1, 1))
    args = (kernel, YesNo(True), Always(), 1, 0)
    assert sample_posterior(*args) == _reference_posterior(*args)
    for cap in (589_823, 589_824):
        monkeypatch.setattr(mc, "_REDRAW_CAP", cap)
        with pytest.raises(DegenerateProtocol) as exc:
            sample_posterior(*args)
        with pytest.raises(DegenerateProtocol) as ref:
            _reference_posterior(*args)
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
    # 150,000 matches take 19-28 blocks in one shard and 7-10 in each of three; 196
    # families times either denominator is far past the code-table bound
    kernel = compile_protocol(parse(text), CFG)
    args = (kernel, YesNo(True), BOTH_BOYS, 150_000, 3)
    assert isinstance(_sampling_tables(_compile_tables(*args[:3])), _Bounds)
    assert sample_posterior(*args, shards=shards) == _reference_posterior(*args, shards=shards)


# Two families (d=1, n=1) times a denominator of 2^21 fill the code table to
# its bound; a denominator of 2^21 + 1 passes it by two entries. A denominator
# of 2^62 - 1 fits int64, but 196 families times it does not.
TABLE_BOUND = [
    pytest.param("procedure p { flip 1048575/2097152 { say yes; } else { reject; } }",
                 WorldConfig(1, 1), _Codes, id="at-the-bound"),
    pytest.param("procedure p { flip 1048576/2097153 { say yes; } else { reject; } }",
                 WorldConfig(1, 1), _Bounds, id="just-over-the-bound"),
    pytest.param("procedure p { flip 2305843009213693951/4611686018427387903 { say yes; } "
                 "else { say no; } }", CFG, _Bounds, id="product-beyond-int64"),
]


@pytest.mark.parametrize("shards", [1, 3])
@pytest.mark.parametrize("text, cfg, layout", TABLE_BOUND)
def test_sampler_matches_a_per_draw_reference_on_both_sides_of_the_table_bound(
        text, cfg, layout, shards):
    kernel = compile_protocol(parse(text), cfg)
    args = (kernel, YesNo(True), Always(), 3000, 5)
    tables = _compile_tables(*args[:3])
    assert isinstance(_sampling_tables(tables), layout)
    assert (tables.which.shape[0] * tables.denom <= mc._TABLE_MAX) == (layout is _Codes)
    assert sample_posterior(*args, shards=shards) == _reference_posterior(*args, shards=shards)


# Tables that send families home and reject in-run at once. With the builtins
# above (sent home only: bc-tc, classic-selection; in-run rejects only: brag;
# neither: gn-dn, yesno), every combination of a block's codes is compared
# with the per-draw reference, on the code table and on the two-draw path.
HOME_AND_REJECT = [
    pytest.param("procedure p { require exists(boy); flip 1/3 { say yes; } else { reject; } }",
                 id="require-flip"),
    pytest.param("procedure p { require exists(girl); if all(girl) { flip 2/7 { say yes; } "
                 "else { reject; } } else { flip 1/2 { say yes; } else { say no; } } }",
                 id="require-if-flip"),
    # the all-boy rows emit nothing: their thresholds are the sent-home
    # line's (0, 0, 0), but their draws are in-run rejects
    pytest.param("procedure p { require exists(boy); if all(boy) { reject; } "
                 "else { say yes; } }", id="require-reject-row"),
]


@pytest.mark.parametrize("shards", [1, 3])
@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("text", HOME_AND_REJECT)
def test_sampler_matches_a_per_draw_reference_when_families_go_home_and_runs_reject(
        text, seed, shards):
    kernel = compile_protocol(parse(text), CFG)
    args = (kernel, YesNo(True), BOTH_BOYS, 3000, seed)
    r = sample_posterior(*args, shards=shards)
    assert r.rejected_families > 0 and r.rejected_runs > 0
    assert r == _reference_posterior(*args, shards=shards)


def _sample_args(case):
    """(kernel, statement, event) of a builtin id at d=7, or of procedure text
    with the statement `yes` and the event all(boy)."""
    if case.startswith("procedure"):
        return compile_protocol(parse(case), CFG), YesNo(True), BOTH_BOYS
    sc = build_scenario(case, CFG)
    return sc.kernel, sc.canonical_statement, sc.canonical_query


@pytest.mark.parametrize("shards", [1, 3])
@pytest.mark.parametrize("case", ["gn-dn", "bc-tc", "brag", "classic-selection", "yesno",
                                  *HOME_AND_REJECT])
def test_the_two_draw_path_matches_a_per_draw_reference(case, shards, monkeypatch):
    # with no code table allowed, every kernel draws its families, then its u values
    monkeypatch.setattr(mc, "_TABLE_MAX", 0)
    args = _sample_args(case)
    assert isinstance(_sampling_tables(_compile_tables(*args)), _Bounds)
    args += (3000, 7)
    assert sample_posterior(*args, shards=shards) == _reference_posterior(*args, shards=shards)


@pytest.mark.parametrize("case", ["gn-dn", "bc-dn", "brag", "any-answer", *HOME_AND_REJECT])
def test_the_code_table_holds_each_pairs_code(case):
    # every (family, u) pair, classified in plain Python against its line
    args = _sample_args(case)
    tables = _compile_tables(*args)
    event, which, lo, hi, tot = (t.tolist() for t in tables[:5])
    denom, sent_home = tables.denom, len(lo) - 1
    want = []
    for fam, line in enumerate(which):
        for u in range(denom):
            if line == sent_home:
                want.append("home")
            elif lo[line] <= u < hi[line]:
                want.append("hit" if event[fam] else "match")
            else:
                want.append("trial" if u < tot[line] else "reject")
    codes = _sampling_tables(tables)
    assert isinstance(codes, _Codes)
    names = ["trial", "reject", "home", "match", "hit"]  # in code order
    assert [names[c] for c in codes.table.tolist()] == want


# (kernel, trials) on the code table (gn-dn, 2 blocks) and on the two-draw path
# (the first wide flip, 8 blocks)
OVERDRAW = [
    pytest.param("gn-dn", 2_000, id="table"),
    pytest.param(WIDE_FLIPS[0].values[0], 40_000, id="two-draw"),
]


@pytest.mark.parametrize("case, trials", OVERDRAW)
def test_a_shard_draws_no_block_past_its_last_needed_match(case, trials):
    tables = _compile_tables(*_sample_args(case))
    n_fam, denom = tables.which.shape[0], tables.denom
    seq = np.random.SeedSequence(5).spawn(1)[0]
    rng = np.random.Generator(np.random.PCG64(seq))
    part = _run_shard(rng, _sampling_tables(tables), trials)
    draws = part["trials"] + part["rejected_families"] + part["rejected_runs"]
    blocks = -(-draws // _BLOCK)
    assert blocks >= 2
    fresh = np.random.Generator(np.random.PCG64(seq))
    for _ in range(blocks):
        if n_fam * denom <= mc._TABLE_MAX:
            fresh.integers(0, n_fam * denom, size=_BLOCK)
        else:
            fresh.integers(0, n_fam, size=_BLOCK)
            fresh.integers(0, denom, size=_BLOCK)
    assert rng.bit_generator.state == fresh.bit_generator.state


def _count_per_draw(blocks, n_matches, cap):
    """`_run_shard`'s counters over given blocks of codes, one code at a time."""
    counters = dict.fromkeys(mc._COUNTERS, 0)
    misses = 0

    def check(run):
        if run > cap:
            raise DegenerateProtocol(
                f"{run} consecutive draws without a statement match (cap exceeded); "
                "statement mass is zero or vanishingly small"
            )

    names = {mc._HOME: "rejected_families", mc._REJECT: "rejected_runs"}
    for codes in blocks:
        matched = False
        for code in codes.tolist():
            counters[names.get(code, "trials")] += 1
            if code < mc._MATCH:
                misses += 1
                continue
            check(misses)
            matched, misses = True, 0
            counters["statement_matches"] += 1
            counters["hits"] += code == mc._HIT
            if counters["statement_matches"] == n_matches:
                return counters
        if not matched:
            check(misses)
    raise AssertionError("the blocks ran out")


def _coded(seed, matches):
    """A block of misses, in-run rejects and families sent home, with a
    statement match or a hit at each of the positions `matches`."""
    rng = np.random.default_rng(seed)
    codes = rng.integers(mc._MISS, mc._MATCH, size=_BLOCK).astype(np.uint8)
    codes[matches] = rng.integers(mc._MATCH, mc._HIT + 1, size=len(matches))
    return codes


NONE, FIRST, LAST = _coded(1, []), _coded(2, [0]), _coded(3, [_BLOCK - 1])
MANY = _coded(4, [0, 1, 700, 9_000, _BLOCK - 2, _BLOCK - 1])
# (blocks, matches the shard needs): the last needed match is the only one of
# its block, at index 0 of a block of many, in the middle of one, or the last
# of one at _BLOCK - 1
COUNTED = [
    pytest.param([NONE, FIRST, NONE, LAST], 2, id="only-first-and-only-last"),
    pytest.param([NONE, LAST, MANY], 2, id="many-needed-at-0"),
    pytest.param([FIRST, MANY], 4, id="many-needed-in-the-middle"),
    pytest.param([LAST, NONE, FIRST, MANY], 8, id="many-needed-at-the-end"),
]


def _outcome(sample, *args, **kwargs):
    try:
        return sample(*args, **kwargs)
    except DegenerateProtocol as exc:
        return str(exc)


@pytest.mark.parametrize("cap", [30_000, 60_000])
def test_redraw_cap_names_the_first_run_that_exceeds_it(cap, monkeypatch):
    # P(yes) = 1/20000: a run of misses spans blocks, and the message names the
    # first run above the cap, at a match or at the end of a block without one,
    # as the per-draw reference does, not the longest
    monkeypatch.setattr(mc, "_REDRAW_CAP", cap)
    kernel = compile_protocol(parse("procedure p { flip 1/20000 { say yes; } else { reject; } }"),
                              WorldConfig(1, 1))
    for seed in range(6):
        args = (kernel, YesNo(True), Always(), 50, seed)
        assert _outcome(sample_posterior, *args) == _outcome(_reference_posterior, *args), seed


@pytest.mark.parametrize("blocks, n_matches", COUNTED)
def test_a_shard_counts_each_blocks_codes_as_a_per_draw_count_does(blocks, n_matches,
                                                                     monkeypatch):
    # the seeded goldens reach a block's edges only by chance; here the codes
    # are given, and the counters, or the first run above the cap, are those
    # of a count one code at a time
    rng = np.random.Generator(np.random.PCG64(0))
    state = rng.bit_generator.state
    outcomes = []
    for cap in (_BLOCK - 2, _BLOCK - 1, _BLOCK, 2 * _BLOCK, 3 * _BLOCK):
        monkeypatch.setattr(mc, "_REDRAW_CAP", cap)
        codes = iter(blocks)
        tables = SimpleNamespace(block=lambda stream: next(codes))
        outcomes.append(_outcome(_run_shard, rng, tables, n_matches))
        assert outcomes[-1] == _outcome(_count_per_draw, blocks, n_matches, cap), cap
    assert isinstance(outcomes[0], str) and isinstance(outcomes[-1], dict)
    assert rng.bit_generator.state == state  # the blocks drew nothing


@pytest.mark.parametrize("sid, trials", [("bc-tc", 20_000), ("gn-dn", 40_000)])
def test_a_shard_classifies_its_draws_in_blocks(sid, trials):
    # a block's 2^14 int64 draws (128 KiB) are the largest array, and gn-dn's
    # 35 blocks are drawn one after another, not beside each other; every
    # temporary is one block long (peaks of 172-181 KiB over seeds 1-5)
    sc = build_scenario(sid, CFG)
    args = (sc.kernel, sc.canonical_statement, sc.canonical_query)
    sample_posterior(*args, 1, seed=0)  # numpy's first-use allocations are not the sampler's
    tracemalloc.start()
    try:
        sample_posterior(*args, trials, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 << 10, peak


def test_the_code_table_build_at_the_bound_peaks_below_17_mib():
    # 2 families x 2^21: every line's codes twice (3 lines, 12 MiB), then the
    # 4 MiB table taken from them per family; the codes are classified a slice
    # at a time, so no temporary adds a table's size
    text, cfg, _ = TABLE_BOUND[0].values
    compiled = _compile_tables(compile_protocol(parse(text), cfg), YesNo(True), Always())
    _sampling_tables(compiled)  # numpy's first-use allocations are not the build's
    tracemalloc.start()
    try:
        tables = _sampling_tables(compiled)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(tables, _Codes)
    assert tables.table.nbytes == mc._TABLE_MAX
    assert peak < 17 << 20, peak


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
