"""Suite-level checks: laws, dual-route agreement, and row bookkeeping."""

import math
import tracemalloc
from fractions import Fraction
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ngc_lab import experiments, seeds
from ngc_lab.distributions import (
    Witness,
    census_law,
    sample_dhx,
    sample_dhx_segment,
    sample_ngc,
    validate_instance,
)
from ngc_lab.experiments import (
    P_FLOOR,
    Row,
    adapter_suite,
    bias_scan_suite,
    bob_only_suite,
    capped_activity_probability,
    census_suite,
    combinatorial_suite,
    estimator_budget_curve,
    estimator_suite,
    l_player_suite,
    mst_suite,
    partition_stats_suite,
    reduce_check_suite,
    stochastic_stats_suite,
    stream_run_suite,
    walk_cover_suite,
)
from ngc_lab.gadgets import parity
from ngc_lab.protocols import embed_dhx
from ngc_lab.seeds import Seed, master_seed
from ngc_lab.stats import binomial_check

from oracles import (
    empirical_table,
    reference_capped_activity_probability,
    reference_fast_walk_coverage,
    reference_order_counts,
    reference_partition_counts,
    reference_sigma1_rank_counts,
    reference_stochastic_counts,
    reference_walk_cover,
    tvd,
)

SEED = master_seed(20_250_815)


# --- shared row/format machinery ---------------------------------------------------


def test_row_record_formatting():
    row = Row("s", "a=1", "m", 0.5, None, 1.25, 100, 7)
    assert row.as_record() == ("s", "a=1", "m", "0.5", "", "1.25", "100", "7")


def test_verdicts_fail_at_their_boundaries():
    verdicts = experiments._Verdicts("s", "a=1", seeds.as_seed(7))
    verdicts.uniform("at_floor", P_FLOOR, 10, "p at the floor")
    verdicts.uniform("above_floor", math.nextafter(P_FLOOR, 1), 10, "p above the floor")
    verdicts.uniform("too_few_counts", float("nan"), 3, "nan p")
    verdicts.least("two_thirds", 2, 3, 2 / 3, "2/3 exactly")
    verdicts.least("two_thirds_of_300", 200, 300, 2 / 3, "200/300")
    verdicts.least("just_below", 199, 300, 2 / 3, "199/300 below 2/3")
    verdicts.exact("all", 10, 10, "all in {misses} runs")
    verdicts.exact("all_but_one", 9, 10, "all but one in {misses} runs")
    assert verdicts.failures == [
        "p at the floor", "nan p", "199/300 below 2/3", "all but one in 1 runs"
    ]
    result = verdicts.result()
    assert not result.passed and result.failures == tuple(verdicts.failures)
    assert [(row.metric, row.value) for row in result.rows[-2:]] == [
        ("all", 1.0), ("all_but_one", 0.9)
    ]
    assert {(row.suite, row.params, row.seed) for row in result.rows} == {("s", "a=1", 7)}


def test_expected_census_matches_validation():
    for i in range(20):
        inst = sample_ngc(56, 7, SEED.child("law", i))
        law = census_law(inst.k, inst.m, inst.theta)
        census = validate_instance(inst)
        assert census.cycles == law.cycles
        assert census.paths == law.paths
        assert census.components == law.components


def test_census_suite_exact_and_padded():
    assert census_suite(28, 7, 30, seed=SEED.child("c1")).passed
    assert census_suite(104, 13, 10, seed=SEED.child("c2")).passed
    result = census_suite(56, 7, 10, seed=SEED.child("c3"), pad=9)
    assert result.passed and result.rows[0].value == 1.0


def test_census_suite_rows_at_a_pinned_seed(monkeypatch):
    # census_suite has no command-line entry, so no CSV digest pins its rows
    assert census_suite(56, 7, 10, seed=5, pad=9).rows[0].as_record() == (
        "census", "n=56;k=7;pad=9", "census_exact", "1.0", "", "", "10", "5"
    )
    assert census_suite(28, 7, 10, seed=5).rows[0].as_record() == (
        "census", "n=28;k=7", "census_exact", "1.0", "", "", "10", "5"
    )
    draws = iter(range(10))
    validate = experiments.validate_instance
    monkeypatch.setattr(
        experiments, "validate_instance", lambda inst: None if next(draws) == 3 else validate(inst)
    )
    result = census_suite(28, 7, 10, seed=5)
    assert result.rows[0].as_record() == (
        "census", "n=28;k=7", "census_exact", "0.9", "", "", "10", "5"
    )
    assert not result.passed and result.failures == ("census law violated in 1 draws",)


# --- partition statistics ----------------------------------------------------------


def test_capped_activity_probability_small_width():
    # w=2, w_c=1: active iff sigma(1) hits the first clean index;
    # E[min(C,1)] = Pr[C >= 1] = 1 - (63/64)^2
    assert capped_activity_probability(2) == Fraction(127, 8192)


def test_capped_activity_probability_equals_the_fraction_tail_sums():
    for w in [*range(2, 402, 2), 512, 1000, 2048, 4096, 8192]:
        assert capped_activity_probability(w) == reference_capped_activity_probability(w), w


def test_capped_activity_probability_binomial_cross_check():
    # independent derivation: sum the binomial pmf directly
    for w in (2, 64, 200, 512):
        w_c = max(1, w // 100)
        p = Fraction(1, 64)
        pmf = [
            math.comb(w, c) * p**c * (1 - p) ** (w - c) for c in range(w + 1)
        ]
        expect = sum(min(c, w_c) * pmf[c] for c in range(w + 1))
        assert capped_activity_probability(w) == expect / w


def test_partition_stats_suite_small_width():
    result = partition_stats_suite(2, 20_000, seed=SEED.child("pw2"))
    assert result.passed, result.failures
    by_metric = {row.metric: row for row in result.rows}
    assert set(by_metric) == {
        "ownership_pvalue",
        "clean_prob",
        "active_prob",
        "active_prob_uncapped",
    }
    # generous sanity bands on top of the suite's own 3-sigma checks
    assert abs(by_metric["clean_prob"].value - 1 / 64) < 0.005
    assert abs(by_metric["active_prob"].value - 127 / 8192) < 0.005


def test_partition_stats_suite_sigma1_row_at_large_width():
    result = partition_stats_suite(
        512, 300, seed=SEED.child("pw512"), sigma1_trials=100_000
    )
    by_metric = {row.metric: row for row in result.rows}
    assert "sigma1_uniform_pvalue" in by_metric
    assert by_metric["sigma1_uniform_pvalue"].value > 1e-3
    assert by_metric["sigma1_uniform_pvalue"].trials > 500  # conditioned draws


def test_partition_stats_sigma1_row_fails_with_too_few_conditioned_draws():
    # w_c = 5 at w = 512, so the row needs 50 conditioned draws; 200 trials give 1
    result = partition_stats_suite(512, 200, seed=5, sigma1_trials=200)
    row = {row.metric: row for row in result.rows}["sigma1_uniform_pvalue"]
    assert math.isnan(row.value) and row.trials == 1
    assert not result.passed
    assert result.failures == (
        "conditional sigma(1) uniformity not judged: 1 conditioned draws, need 50; "
        "raise sigma1_trials",
    )


@pytest.mark.parametrize("w", [298, 1024])
def test_partition_stats_default_sigma1_budget_judges_the_row(w):
    # w = 298 conditions the fewest draws, one in 157; 20 trials alone give none
    result = partition_stats_suite(w, 20, seed=SEED.child("budget", w))
    row = {row.metric: row for row in result.rows}["sigma1_uniform_pvalue"]
    assert row.trials >= 10 * (w // 100)
    assert row.value > 1e-3


def _with_end_state(simulate, *args):
    """(``simulate(*args)``, the end state of the one numpy generator it draws from)."""
    made = []
    generator = Seed.generator

    def recording(seed):
        made.append(generator(seed))
        return made[-1]

    with mock.patch.object(Seed, "generator", recording):
        out = simulate(*args)
    assert len(made) == 1
    return out, made[0].bit_generator.state


@pytest.mark.parametrize(
    "w, trials, chunk_elements",
    [
        (200, 5000, 20_000_000),  # one chunk, w_c = 2
        (512, 20_000, 20_000_000),  # the benchmark's shape
        (512, 1001, 512 * 37),  # 28 chunks, the last one short
        (202, 2000, 202 * 3),  # 151.5 words a chunk: the half-word carries across
        (300, 400, 300),  # one row a chunk, 75 words each
    ],
)
def test_sigma1_rank_counts_match_the_uint8_simulator(w, trials, chunk_elements):
    w_c = max(1, w // 100)
    for i in range(6):
        seed = SEED.child("s1", w, i)
        with mock.patch.object(experiments, "_SIGMA1_CHUNK", chunk_elements):
            got = _with_end_state(experiments._sigma1_rank_counts, w, w_c, trials, seed)
        want = _with_end_state(reference_sigma1_rank_counts, w, w_c, trials, seed, chunk_elements)
        assert got == want
    assert sum(got[0]) > 0


@pytest.mark.parametrize(
    "w, trials, chunk_elements, block_elements",
    [
        (512, 1001, 512 * 37, 4 * 512),  # blocks of 4 rows
        (201, 600, 201 * 37, 201),  # one row asked for at an odd w: 4-row blocks
        (202, 2000, 202 * 37, 202 * 8),  # 8-row blocks of 37-row chunks
        (300, 400, 300 * 3, 1),  # 4-row blocks of 3-row chunks
    ],
)
def test_sigma1_blocks_match_the_uint8_simulator(w, trials, chunk_elements, block_elements):
    """The replay blocks change neither the counts nor where the generator ends."""
    w_c = max(1, w // 100)
    for i in range(4):
        seed = SEED.child("s1-blocks", w, i)
        with mock.patch.object(experiments, "_SIGMA1_CHUNK", chunk_elements):
            with mock.patch.object(experiments, "_BATCH_ELEMENTS", block_elements):
                got = _with_end_state(experiments._sigma1_rank_counts, w, w_c, trials, seed)
        want = _with_end_state(reference_sigma1_rank_counts, w, w_c, trials, seed, chunk_elements)
        assert got == want
    assert sum(got[0]) > 0


def test_partition_stats_tail_row():
    # w=64: ln w ~ 4.16, activity ~ 0.00994 per block, 2130 blocks => mean ~ 21
    result = partition_stats_suite(64, 500, seed=SEED.child("tail"), tail_blocks=2130)
    tail = [r for r in result.rows if r.metric == "tail_prob"][0]
    assert tail.value >= 1 - 1 / 64**2 - 0.01
    assert result.passed, result.failures


def test_partition_stats_tail_row_validation():
    with pytest.raises(ValueError):
        partition_stats_suite(64, 10, seed=1, tail_blocks=0)


# batch sizes from one trial per batch up to every trial in one batch
BATCH_ELEMENTS = st.one_of(st.integers(1, 64), st.integers(1, 5000))


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from([2, 4, 6, 8, 200, 256]),
    st.integers(1, 24),
    st.integers(0, 2**32),
    BATCH_ELEMENTS,
)
def test_partition_counts_match_object_trials(w, trials, seed, batch_elements):
    want = reference_partition_counts(w, trials, master_seed(seed))
    for replay_min in (1, seeds._REPLAY_MIN):  # replayed, and read from stdlib generators
        with mock.patch.object(seeds, "_REPLAY_MIN", replay_min):
            with mock.patch.object(experiments, "_BATCH_ELEMENTS", batch_elements):
                assert experiments._partition_counts(w, trials, master_seed(seed)) == want


def test_partition_counts_match_object_trials_where_the_cap_binds():
    # w = 200: w_c = 2, and in these trials sigma(1) is twice a clean index
    # beyond the first two
    root = SEED.child("cap", 0)
    with mock.patch.object(experiments, "_BATCH_ELEMENTS", 40 * 6 * 200):
        got = experiments._partition_counts(200, 150, root)
    assert got == reference_partition_counts(200, 150, root)
    assert got[2:] == (1, 3)


def test_partition_stats_rejects_odd_width():
    with pytest.raises(ValueError):
        partition_stats_suite(3, 10, seed=1)


# --- reduction checks --------------------------------------------------------------


def test_witness_parity_matches_graph_trace_block():
    for i in range(15):
        _, witness = sample_dhx(5, 3, SEED.child("wp", i))
        graph = witness.build()
        for g in range(1, 6):
            assert witness.parity(g) == parity(graph, g)


def test_witness_parity_matches_graph_trace_segment():
    for i in range(10):
        _, witness = sample_dhx_segment(4, 2, 2, SEED.child("wps", i))
        graph = witness.build()
        for g in range(1, 5):
            assert witness.parity(g) == parity(graph, g)


def test_reduce_check_claim_block_and_segment():
    result = reduce_check_suite(3, 2, 300, seed=SEED.child("rc"))
    assert result.passed and result.rows[0].value == "300/300"
    result = reduce_check_suite(2, 2, 150, seed=SEED.child("rcs"), s=2)
    assert result.passed and result.rows[0].value == "150/150"


def test_reduce_check_marginal_tvd_shrinks():
    result = reduce_check_suite(1, 2, 10, seed=SEED.child("tvd"), tvd_samples=80_000)
    tvd_row = [r for r in result.rows if r.metric == "marginal_tvd"][0]
    assert tvd_row.value < 0.02
    assert result.passed, result.failures


@pytest.mark.parametrize("t", [1, 2, 3])
def test_marginal_tvd_matches_witness_table_route(t):
    # the same draws tallied as Witness objects over the enumerated support
    seed = SEED.child("tvd-route", t)
    rng = seed.rng()
    witnesses = []
    for _ in range(2_000):
        _, narrow = sample_dhx(2, t, rng.getrandbits(63))
        _, record = embed_dhx(narrow, 1, 1, rng.getrandbits(63), build_graph=False)
        witnesses.append(record.witness)
    gadgets = list(product(product((0, 1), repeat=2), [(1, 2), (2, 1)]))
    support = [
        Witness("block", tuple(x for x, _ in cell), tuple(sigma for _, sigma in cell))
        for cell in product(gadgets, repeat=t)
    ]
    uniform = {cell: Fraction(1, len(support)) for cell in support}
    want = tvd(empirical_table(witnesses, support=support), uniform)
    assert experiments._embedding_marginal_tvd(t, 2_000, seed) == want


def test_reduce_check_tvd_needs_unit_m():
    with pytest.raises(ValueError):
        reduce_check_suite(2, 2, 5, seed=1, tvd_samples=100)


# --- streaming suites --------------------------------------------------------------


def test_stream_run_suite_exact():
    result = stream_run_suite(56, 7, 30, seed=SEED.child("sr"))
    assert result.passed
    assert [row.value for row in result.rows] == [1.0, 1.0]


def test_adapter_suite_match_and_order():
    result = adapter_suite(28, 7, 40, 12_000, seed=SEED.child("ad"))
    assert result.passed, result.failures
    by_metric = {row.metric: row for row in result.rows}
    assert by_metric["adapter_match"].value == 1.0
    assert by_metric["order_uniform_pvalue"].value > 1e-3


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 150), st.integers(0, 2**32), BATCH_ELEMENTS)
def test_order_counts_match_the_per_trial_adapter_loop(trials, seed, batch_elements):
    root = master_seed(seed).child("order")
    want = reference_order_counts(trials, root)
    with mock.patch.object(experiments, "_BATCH_ELEMENTS", batch_elements):
        assert experiments._order_counts(trials, root) == want


def test_order_counts_match_the_per_trial_adapter_loop_on_replayed_streams():
    # one batch of 2,000 trials: the owner and shuffle keys are replayed
    root = SEED.child("order")
    assert experiments._order_counts(2_000, root) == reference_order_counts(2_000, root)


@pytest.mark.parametrize("replay_min", [1, 10**9])
def test_order_counts_read_on_past_a_one_word_budget(monkeypatch, replay_min):
    # every stream holds one word: the owner bits and both shuffles read on in
    # the trials' own generators
    monkeypatch.setattr(experiments, "word_budget", lambda n, count: 1)
    monkeypatch.setattr(experiments, "descending_budget", lambda top, steps: 1)
    monkeypatch.setattr(seeds, "_REPLAY_MIN", replay_min)
    root = SEED.child("order-budget")
    assert experiments._order_counts(200, root) == reference_order_counts(200, root)


def test_l_player_suite_relays_census():
    result = l_player_suite(120, 15, 2, 3, 4, 50, seed=SEED.child("lp"))
    assert result.passed
    assert all(row.value == 1.0 for row in result.rows)


def test_estimator_suite_triangles_are_exact():
    # triangles fit under the cap and are always fully discovered, so the
    # estimate is deterministically n/3
    result = estimator_suite(768, 0.25, 256, 20, seed=SEED.child("es"))
    assert result.passed and result.rows[0].value == 1.0


def test_estimator_suite_rejects_non_triangle_count():
    with pytest.raises(ValueError):
        estimator_suite(100, 0.25, 16, 1, seed=1)


def test_estimator_budget_curve_shape():
    result = estimator_budget_curve(56, 7, 0.25, [2, 28], 30, seed=SEED.child("ec"))
    assert result.passed
    assert [row.metric for row in result.rows] == [
        "advantage",
        "advantage",
        "exact_census_advantage",
    ]
    assert all(-1.0 <= row.value <= 1.0 for row in result.rows)
    assert result.rows[-1].value == 1.0


def test_bob_only_suite_rate():
    result = bob_only_suite(4096, 4, 300, seed=SEED.child("bo"))
    assert result.passed
    # true rate is (1 + 1 - (1 - 2^-8)^256)/2 ~ 0.816
    assert 0.70 <= result.rows[0].value <= 0.92


def test_combinatorial_suite_exact():
    result = combinatorial_suite(56, 7, 40, seed=SEED.child("cb"))
    assert result.passed
    assert all(row.value == 1.0 for row in result.rows)


def test_mst_suite_separates():
    result = mst_suite(56, 7, 5, 40, seed=SEED.child("ms"))
    assert result.passed and result.rows[0].value == 1.0


# --- stochastic model --------------------------------------------------------------


def test_stochastic_stats_suite_floors():
    result = stochastic_stats_suite(1.0, 4000, seed=SEED.child("st"))
    assert result.passed, result.failures
    by_metric = {row.metric: row for row in result.rows}
    # |E| = 112 at w=16; each player draws ceil(c|E|/2) = 56 samples
    absent_true = (1 - 1 / 112) ** 56
    assert abs(by_metric["absent_prob"].value - absent_true) < 0.03
    assert by_metric["clean_prob"].value >= 0.0


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from([0.05, 0.5, 1.0, 2.5]),
    st.sampled_from([2, 4, 16, 64]),
    st.integers(1, 24),
    st.integers(0, 2**32),
    BATCH_ELEMENTS,
)
def test_stochastic_counts_match_object_trials(c, w, trials, seed, batch_elements):
    want = reference_stochastic_counts(c, trials, w, master_seed(seed))
    for replay_min in (1, seeds._REPLAY_MIN):  # replayed, and read from stdlib generators
        with mock.patch.object(seeds, "_REPLAY_MIN", replay_min):
            with mock.patch.object(experiments, "_BATCH_ELEMENTS", batch_elements):
                assert experiments._stochastic_counts(c, trials, w, master_seed(seed)) == want


@pytest.mark.parametrize("replay_min", [1, 10**9])
def test_object_counts_read_on_past_a_one_word_budget(monkeypatch, replay_min):
    # every stream holds one word: theta, sigma(1), F's slots and the samples
    # all read on in the trials' own generators, each read after the last
    monkeypatch.setattr(experiments, "word_budget", lambda n, count: 1)
    monkeypatch.setattr(seeds, "_REPLAY_MIN", replay_min)
    root = SEED.child("budget")
    assert experiments._partition_counts(4, 30, root) == reference_partition_counts(4, 30, root)
    want = reference_stochastic_counts(1.0, 30, 4, root)
    assert experiments._stochastic_counts(1.0, 30, 4, root) == want


def test_object_counts_replay_keys_shorter_than_four_words(monkeypatch):
    # a key whose top word is 0 seeds init_by_array with fewer words; trial
    # keys are 128-bit hashes, so the short ones are made here, for the
    # suites and the references alike
    key = seeds._key

    def shorter(digest: bytes) -> int:
        return key(digest) % 2 ** (32 * (1 + digest[0] % 4))

    monkeypatch.setattr(seeds, "_key", shorter)
    monkeypatch.setattr(seeds, "_REPLAY_MIN", 1)
    root = SEED.child("short")
    keys = root.child("object").keys(range(40), "F")
    assert {key < 2**96 for key in keys} == {True, False}
    assert experiments._partition_counts(2, 40, root) == reference_partition_counts(2, 40, root)
    want = reference_stochastic_counts(1.0, 40, 4, root)
    assert experiments._stochastic_counts(1.0, 40, 4, root) == want


def test_stochastic_stats_rejects_bad_width_and_trials():
    for w in (3, 0, -4):
        with pytest.raises(ValueError, match="need even w >= 2"):
            stochastic_stats_suite(1.0, 10, seed=1, w=w)
    with pytest.raises(ValueError, match="need trials >= 1"):
        stochastic_stats_suite(1.0, 0, seed=1)
    with pytest.raises(ValueError, match="need trials >= 1"):
        partition_stats_suite(2, -5, seed=1)


def test_stochastic_stats_requires_positive_rate():
    with pytest.raises(ValueError):
        stochastic_stats_suite(0.0, 10, seed=1)


# --- batching constants ------------------------------------------------------------


def _knob_rows():
    root = SEED.child("knobs")
    return [
        partition_stats_suite(2, 600, seed=root).rows,
        partition_stats_suite(64, 200, seed=root).rows,
        partition_stats_suite(202, 20, seed=root, sigma1_trials=3001).rows,
        stochastic_stats_suite(1.0, 300, seed=root).rows,
        walk_cover_suite(4, 2048, 4, seed=root).rows,
    ]


@pytest.mark.parametrize(
    "module, name, value",
    [
        (experiments, "_BATCH_TRIALS", 7),
        (experiments, "_BATCH_ELEMENTS", 1000),
        (experiments, "_BATCH_ELEMENTS", 4),
        (seeds, "_PASS_KEYS", 5),
        (seeds, "_REPLAY_MIN", 1),
        (seeds, "_ROUND_MIN", 1),
    ],
)
def test_batching_constants_only_set_speed(module, name, value):
    """Each batching constant, set far from its default, leaves every row unchanged.

    ``_BATCH_ELEMENTS`` also sets the sigma(1) replay blocks and the walk
    chunks (4 rows and 4 walks at 4, the least they take).
    ``experiments._SIGMA1_CHUNK`` is not a batching constant: a chunk draws
    all its clean indicators before its sigma(1) images, so the chunk size is
    part of the rows' law (at 5000 it changes the w=256 rows).
    """
    want = _knob_rows()
    with mock.patch.object(module, name, value):
        assert _knob_rows() == want


def test_sigma1_and_walk_replays_hold_a_block_at_a_time():
    # c06's sigma(1) shape and c12's walk shape held 38.5 and 62.0 MiB at once
    # when a chunk's bytes were replayed in one piece
    runs = [
        (experiments._sigma1_rank_counts, 512, 5, 100_000, SEED.child("held", "s1")),
        (experiments._fast_walk_coverage, 4_194_304, 8, 8, SEED.child("held", "walk")),
    ]
    for simulate, *args in runs:
        tracemalloc.start()
        try:
            simulate(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20, (simulate.__name__, peak)


# --- walk coverage -----------------------------------------------------------------


def test_walk_cover_fast_route_matches_exact_law():
    result = walk_cover_suite(4, 200_000, 10, seed=SEED.child("wf"))
    assert result.passed, result.failures
    cov = [r for r in result.rows if r.metric == "coverage_rate"][0]
    # 8-step walk covers an 8-cycle with probability exactly 6/256
    assert binomial_check(
        round(cov.value * cov.trials), cov.trials, 6 / 256
    ).within(4)


@pytest.mark.parametrize("k", [3, 4, 7, 10])
@pytest.mark.parametrize("walks, chunk", [(1, 4_000_000), (5003, 4_000_000), (5003, 999), (20_000, 1001)])
def test_fast_walk_coverage_matches_the_int8_simulator(k, walks, chunk):
    # `chunk` walks' bytes a chunk, run as a multiple of four (999 -> 996):
    # whole words, so every chunking reads the steps of one draw of all the walks
    for length in (k, 2 * k):
        seed = SEED.child("walk", k, walks, chunk, length)
        with mock.patch.object(experiments, "_BATCH_ELEMENTS", chunk * 2 * k):
            got = _with_end_state(experiments._fast_walk_coverage, walks, length, 2 * k, seed)
        want = _with_end_state(reference_fast_walk_coverage, walks, length, 2 * k, seed)
        assert got == want
    if walks > 1:
        assert 0 < got[0][0] < walks


def test_byte_walk_tables_spell_each_code():
    for steps, table in experiments._BYTE_WALKS.items():
        for code in range(256):
            pos, seen = 0, [0]
            for i in range(steps):
                pos += 1 if code >> (7 - i) & 1 else -1
                seen.append(pos)
            assert table[:, code].tolist() == [pos, min(seen), max(seen)]


def test_byte_fold_table_counts_6_of_256_covering_walks_at_k4():
    # one byte is a whole 8-step walk: the exact per-walk coverage law of the 8-cycle
    net, low, high = experiments._BYTE_WALKS[8]
    assert np.count_nonzero(high - low + 1 >= 8) == 6


def test_walk_cover_dual_route_agreement():
    fast = walk_cover_suite(4, 4000, 12, seed=SEED.child("dr"), m=2)
    correct, cyc_walks, cyc_hits = reference_walk_cover(4, 4000, 12, SEED.child("dr"), m=2)
    # the real-walk route passes the suite's own checks: classification at
    # least 2/3 and coverage at least the 4^-k floor
    assert fast.passed and correct / 12 >= 2 / 3
    assert binomial_check(cyc_hits, cyc_walks, 4.0**-4).at_least()
    rate_f = [r for r in fast.rows if r.metric == "coverage_rate"][0]
    # same law measured two ways; each is a binomial rate around 6/256
    spread = 4 * math.sqrt(2 * (6 / 256) / min(rate_f.trials, cyc_walks))
    assert abs(rate_f.value - cyc_hits / cyc_walks) < spread
    assert fast.rows[0].value == 1.0 and correct == 12


def test_suites_that_read_only_the_witness_build_no_graph(monkeypatch):
    builds = []
    build = Witness.build
    monkeypatch.setattr(Witness, "build", lambda witness: builds.append(witness) or build(witness))
    assert partition_stats_suite(2, 50, seed=SEED.child("lazy")).rows
    assert walk_cover_suite(4, 100, 5, seed=SEED.child("lazy")).rows
    assert builds == []
    sample_ngc(56, 7, SEED.child("lazy")).all_edges()
    assert builds == []  # an instance's edges come straight from its witness too
    sample_dhx(2, 1, SEED.child("lazy"))
    assert len(builds) == 1  # the counter sees the build sample_dhx makes


# --- bias scan ---------------------------------------------------------------------


def test_bias_scan_exact_and_sampled_paths():
    exact = bias_scan_suite(12, 10, 2, 500, seed=SEED.child("bs"))
    assert exact.passed
    assert exact.rows[0].trials == math.comb(12, 2)  # exact enumeration
    sampled = bias_scan_suite(16, 12, 8, 800, seed=SEED.child("bss"))
    assert sampled.passed
    assert sampled.rows[0].trials == 800
    for result in (exact, sampled):
        by_metric = {row.metric: row for row in result.rows}
        assert math.isfinite(by_metric["ratio"].value)


def test_bias_scan_validates_log_cardinality():
    with pytest.raises(ValueError):
        bias_scan_suite(8, 9, 2, 10, seed=1)
