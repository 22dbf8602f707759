"""Acceptance gate: one test per headline contract of the package.

Each test pins its parameters, seeds, and tolerances in place; `pytest -v`
therefore prints exactly one pass/fail line per criterion.  Exact criteria
(census multiplicities, embedding parity, adapter census, relay decisions,
problem-value gaps, bias identities) allow zero deviations.  Statistical
criteria use the tolerances fixed below: 3-sigma binomial bands for rate
checks, chi-square p > 0.001 for uniformity checks, total variation
distance < 0.02 for the embedding marginal, and one-sided 3-sigma floors
for the stochastic-sampling and walk-coverage rates.  Seeds are fixed so
reruns are reproducible; the statistical checks hold at other seeds with
the stated confidence.

Wall-clock guards (criteria 1, 4, and 10) bound the end-to-end cost of the
exact census sweep, the million-sample embedding marginal, and the
component-count estimator run.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction
from itertools import combinations

from ngc_lab.bias import (
    SupportSet,
    bias,
    mean_bias_sq,
    product_bias_check,
    valid_subset_prob,
)
from ngc_lab.experiments import (
    P_FLOOR,
    Row,
    SuiteResult,
    adapter_suite,
    bob_only_suite,
    census_suite,
    combinatorial_suite,
    estimator_suite,
    l_player_suite,
    mst_suite,
    partition_stats_suite,
    reduce_check_suite,
    stochastic_stats_suite,
    walk_cover_suite,
)
from ngc_lab.stats import binomial_check

import pytest

CLEAN_P = 1 / 64


def by_metric(result: SuiteResult) -> dict[str, Row]:
    out: dict[str, Row] = {}
    for row in result.rows:
        assert row.metric not in out, f"duplicate metric {row.metric}"
        out[row.metric] = row
    return out


def count_of(row: Row) -> int:
    """Reconstruct the integer success count behind a rate row."""
    assert isinstance(row.value, float)
    count = round(row.value * row.trials)
    assert abs(count - row.value * row.trials) < 1e-6
    return count


@pytest.fixture(scope="module")
def width2_partition() -> SuiteResult:
    """Shared 10^5-trial ownership/cleanness run at width 2 (criteria 5, 6)."""
    return partition_stats_suite(2, 100_000, seed=105)


def test_c01_census_law_exact_at_three_sizes() -> None:
    start = time.monotonic()
    results = [
        census_suite(28, 7, 100, seed=101),
        census_suite(56, 7, 100, seed=1011),
        census_suite(104, 13, 100, seed=1012),
    ]
    elapsed = time.monotonic() - start
    for res in results:
        assert res.passed, res.failures
        assert by_metric(res)["census_exact"].value == 1.0
    assert elapsed < 10.0, f"census sweep took {elapsed:.2f}s (budget 10s)"
    print(f"PASS c01: 300/300 exact censuses in {elapsed:.2f}s")


def test_c02_census_law_survives_padding() -> None:
    for pad in (8, 9):
        res = census_suite(56, 7, 100, seed=102 + pad, pad=pad)
        assert res.passed, res.failures
        assert by_metric(res)["census_exact"].value == 1.0
    print("PASS c02: padded depth-8 and depth-9 censuses exact, 100/100 each")


def test_c03_embedding_parity_claim_never_fails() -> None:
    for m, t in ((2, 2), (4, 3)):
        res = reduce_check_suite(m, t, 10_000, seed=103 * m + t)
        assert res.passed, res.failures
        assert by_metric(res)["claim_holds"].value == "10000/10000"
    print("PASS c03: 2x10^4 embeddings all forwarded the planted parity")


def test_c04_embedding_marginal_close_to_direct_sampler() -> None:
    start = time.monotonic()
    res = reduce_check_suite(1, 2, 100, seed=104, tvd_samples=1_000_000)
    elapsed = time.monotonic() - start
    assert res.passed, res.failures
    tvd = by_metric(res)["marginal_tvd"]
    assert isinstance(tvd.value, float)
    assert tvd.value < 0.02, f"embedding marginal TVD {tvd.value:.4f} >= 0.02"
    assert elapsed < 120.0, f"marginal run took {elapsed:.1f}s (budget 120s)"
    print(f"PASS c04: TVD {tvd.value:.4f} < 0.02 over 10^6 samples in {elapsed:.1f}s")


def test_c05_ownership_pattern_uniform_over_64_cells(
    width2_partition: SuiteResult,
) -> None:
    row = by_metric(width2_partition)["ownership_pvalue"]
    assert isinstance(row.value, float)
    assert row.value > P_FLOOR, f"ownership chi-square p={row.value:.2e}"
    print(f"PASS c05: ownership pattern chi-square p={row.value:.3f} over 10^5 trials")


def test_c06_clean_active_rates_and_first_slot_uniformity(
    width2_partition: SuiteResult,
) -> None:
    assert width2_partition.passed, width2_partition.failures
    rows = by_metric(width2_partition)
    clean = rows["clean_prob"]
    active = rows["active_prob"]
    for row in (clean, active):
        check = binomial_check(count_of(row), row.trials, CLEAN_P)
        assert check.within(3), f"{row.metric}={row.value:.5f} off 1/64 by >3 sigma"

    # cap slots only exist from width >= 200; uniformity of the first kept
    # clean index is measured at width 512 (5 slots) with a 10^5 draw budget
    wide = partition_stats_suite(512, 500, seed=106, sigma1_trials=100_000)
    assert wide.passed, wide.failures
    sigma1 = by_metric(wide)["sigma1_uniform_pvalue"]
    assert isinstance(sigma1.value, float)
    assert sigma1.value > P_FLOOR, f"first-slot chi-square p={sigma1.value:.2e}"
    print(
        f"PASS c06: clean={clean.value:.5f}, active={active.value:.5f} "
        f"(both within 3 sigma of 1/64); first-slot p={sigma1.value:.3f}"
    )


def test_c07_adapter_census_exact_and_order_uniform() -> None:
    res = adapter_suite(28, 7, 1000, 24_000, seed=107)
    assert res.passed, res.failures
    rows = by_metric(res)
    assert rows["adapter_match"].value == 1.0
    order_p = rows["order_uniform_pvalue"]
    assert isinstance(order_p.value, float)
    assert order_p.value > P_FLOOR, f"order chi-square p={order_p.value:.2e}"
    print(
        f"PASS c07: adapter census 1000/1000 exact; "
        f"arrival order over 5! cells p={order_p.value:.3f}"
    )


def test_c08_four_player_relay_decides_theta_exactly() -> None:
    res = l_player_suite(120, 15, 2, 3, 4, 1000, seed=108)
    assert res.passed, res.failures
    rows = by_metric(res)
    assert rows["relay_correct"].value == 1.0
    assert rows["relay_hops"].value == 1.0
    print("PASS c08: 4-player relay classified 1000/1000 instances exactly")


def test_c09_matching_mis_mst_value_gaps() -> None:
    comb_res = combinatorial_suite(56, 7, 100, seed=109)
    assert comb_res.passed, comb_res.failures
    rows = by_metric(comb_res)
    assert rows["matching_exact"].value == 1.0
    assert rows["mis_exact"].value == 1.0
    mst_res = mst_suite(56, 7, 5, 100, seed=1091)
    assert mst_res.passed, mst_res.failures
    assert by_metric(mst_res)["mst_separates"].value == 1.0
    print("PASS c09: matching/MIS/MST values exact on 100+100 instances at n=56")


def test_c10_component_estimator_hits_its_error_bar() -> None:
    start = time.monotonic()
    res = estimator_suite(3 * 2**12, 0.25, 4096, 100, seed=110)
    elapsed = time.monotonic() - start
    assert res.passed, res.failures
    row = by_metric(res)["estimate_within"]
    assert isinstance(row.value, float)
    assert row.value >= 2 / 3
    assert elapsed < 60.0, f"estimator run took {elapsed:.1f}s (budget 60s)"
    print(
        f"PASS c10: |estimate - n/3| <= n/4 in {count_of(row)}/100 trials "
        f"in {elapsed:.1f}s"
    )


def test_c11_stochastic_sampling_floors_at_c1() -> None:
    res = stochastic_stats_suite(1.0, 100_000, seed=111)
    assert res.passed, res.failures
    rows = by_metric(res)
    absent = rows["absent_prob"]
    clean = rows["clean_prob"]
    for row, floor in ((absent, math.exp(-1.0)), (clean, math.exp(-9.0))):
        check = binomial_check(count_of(row), row.trials, floor)
        assert check.at_least(), f"{row.metric}={row.value:.3e} under {floor:.3e}"
    print(
        f"PASS c11: unseen-edge rate {absent.value:.4f} >= e^-1 and "
        f"clean rate {clean.value:.6f} >= e^-9, one-sided 3 sigma, 10^5 trials"
    )


def test_c12_walk_classifier_and_coverage_floor() -> None:
    walks = 64 * 4**8
    res = walk_cover_suite(4, walks, 100, seed=112)
    assert res.passed, res.failures
    rows = by_metric(res)
    classify = rows["classify_correct"]
    assert isinstance(classify.value, float)
    assert classify.value >= 2 / 3
    coverage = rows["coverage_rate"]
    floor = 4.0**-4
    check = binomial_check(count_of(coverage), coverage.trials, floor)
    assert check.at_least(), f"coverage {coverage.value:.3e} under 4^-4 floor"
    print(
        f"PASS c12: cycle-length classification {count_of(classify)}/100 with "
        f"{walks} walks each; coverage rate {coverage.value:.5f} >= 2^-8 floor"
    )


def test_c13_bias_identities_exact() -> None:
    # XOR bias multiplicativity on a 10x10 probability grid, exact
    grid = [i / 9 for i in range(10)]
    points = [(p, q) for p in grid for q in grid]
    assert len(points) == 100
    for p, q in points:
        assert product_bias_check(p, q).ok, f"product identity fails at {(p, q)}"

    # sampled subset-average tracks the exact one within a genuine 4-sigma CI
    rng = random.Random(1306)
    support = SupportSet.from_words(12, rng.sample(range(2**12), 300))
    exact = mean_bias_sq(support, 3)
    population = [
        float(bias(support, subset)) ** 2
        for subset in combinations(range(1, 13), 3)
    ]
    assert math.isclose(sum(population) / len(population), float(exact), rel_tol=1e-9)
    var = sum((v - float(exact)) ** 2 for v in population) / len(population)
    sampled = mean_bias_sq(support, 3, mode="sampled", trials=4000, seed=1313)
    half_width = 4 * math.sqrt(var / 4000)
    gap = abs(float(sampled) - float(exact))
    assert gap <= half_width + 1e-15, f"sampled off exact by {gap:.2e} > {half_width:.2e}"

    # one-per-block subset probability equals brute-force enumeration
    checked = 0
    for w_c in range(1, 21):
        for t_a in range(1, 21):
            if w_c * t_a > 20:
                continue
            universe = range(w_c * t_a)
            valid = sum(
                1
                for subset in combinations(universe, t_a)
                if len({i // w_c for i in subset}) == t_a
            )
            expected = Fraction(valid, math.comb(w_c * t_a, t_a))
            assert valid_subset_prob(w_c, t_a) == expected, (w_c, t_a)
            checked += 1
    assert checked >= 20
    print(
        f"PASS c13: product identity on 100 grid points; sampled mean bias^2 "
        f"within {half_width:.2e} of exact; {checked} subset probabilities enumerated"
    )


def test_c14_receiver_only_detection_beats_point6() -> None:
    res = bob_only_suite(2**12, 4, 1000, seed=114)
    assert res.passed, res.failures
    row = by_metric(res)["success_rate"]
    assert isinstance(row.value, float)
    assert row.value >= 0.6, f"receiver-only success {row.value:.3f} < 0.6"
    print(f"PASS c14: receiver-only detection {count_of(row)}/1000 >= 0.6")
