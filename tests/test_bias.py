"""Exact bias arithmetic and subset averages."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import pytest

from ngc_lab.bias import (
    SupportSet,
    bias,
    kkl_rhs,
    mean_bias_sq,
    product_bias_check,
    valid_subset_prob,
)
from ngc_lab.stats import binomial_check


def test_bias_basic_examples():
    pair = SupportSet.from_strings(["00", "11"])
    assert bias(pair, [1]) == 0
    assert bias(pair, [2]) == 0
    assert bias(pair, [1, 2]) == 1  # xor is identically 0
    cube = SupportSet.full_cube(4)
    for s in ([1], [2, 3], [1, 2, 3, 4]):
        assert bias(cube, s) == 0
    # empty xor is identically 0, so the empty set is maximally biased
    assert bias(pair, []) == 1


def test_bias_exact_rationals():
    support = SupportSet.from_words(3, [0b000, 0b001, 0b011])
    assert bias(support, [1]) == Fraction(1, 3)  # ones: 2, zeros: 1
    assert bias(support, [2]) == Fraction(1, 3)
    assert bias(support, [3]) == 1


def test_bias_index_validation():
    support = SupportSet.full_cube(3)
    with pytest.raises(ValueError):
        bias(support, [0])
    with pytest.raises(ValueError):
        bias(support, [4])


def test_bias_symmetric_under_coordinate_permutation():
    rng = random.Random(5)
    m = 6
    members = rng.sample(range(2**m), 20)
    support = SupportSet.from_words(m, members)
    perm = list(range(1, m + 1))
    rng.shuffle(perm)  # coordinate i of the new word is coordinate perm[i-1] of the old

    def apply(y: int) -> int:
        out = 0
        for i in range(1, m + 1):
            if (y >> (perm[i - 1] - 1)) & 1:
                out |= 1 << (i - 1)
        return out

    permuted = SupportSet.from_words(m, [apply(y) for y in members])
    for _ in range(25):
        k = rng.randrange(1, m + 1)
        s_new = rng.sample(range(1, m + 1), k)
        s_old = [perm[i - 1] for i in s_new]
        assert bias(permuted, s_new) == bias(support, s_old)


def test_support_validation():
    with pytest.raises(ValueError):
        SupportSet(3, frozenset())
    with pytest.raises(ValueError):
        SupportSet(0, frozenset([0]))
    with pytest.raises(ValueError):
        SupportSet(25, frozenset([0]))
    with pytest.raises(ValueError):
        SupportSet(3, frozenset([8]))
    with pytest.raises(ValueError):
        SupportSet.from_strings(["01", "001"])
    with pytest.raises(ValueError):
        SupportSet.from_strings([])


def test_mean_bias_sq_full_cube_is_zero():
    cube = SupportSet.full_cube(6)
    for k in (1, 2, 3):
        assert mean_bias_sq(cube, k) == 0


def test_mean_bias_sq_pinned_coordinate():
    m = 5
    support = SupportSet.from_words(m, [y for y in range(2**m) if not y & 1])
    assert mean_bias_sq(support, 1) == Fraction(1, m)


def test_mean_bias_sq_guard_and_validation():
    small = SupportSet.from_words(24, [0, 1, 2])
    with pytest.raises(ValueError):
        mean_bias_sq(small, 12)  # C(24,12) > 10^6
    support = SupportSet.full_cube(4)
    with pytest.raises(ValueError):
        mean_bias_sq(support, 0)
    with pytest.raises(ValueError):
        mean_bias_sq(support, 5)
    with pytest.raises(ValueError):
        mean_bias_sq(support, 2, mode="sampled")
    with pytest.raises(ValueError):
        mean_bias_sq(support, 2, mode="guessing")


def test_mean_bias_sq_sampled_tracks_exact():
    rng = random.Random(99)
    support = SupportSet.from_words(8, rng.sample(range(256), 64))
    exact = mean_bias_sq(support, 2)
    sampled = mean_bias_sq(support, 2, mode="sampled", trials=2000, seed=123)
    assert abs(float(exact) - float(sampled)) < 0.04
    again = mean_bias_sq(support, 2, mode="sampled", trials=2000, seed=123)
    assert sampled == again  # deterministic given seed


def test_kkl_rhs_examples():
    assert kkl_rhs(8, 2**8, 3) == 0
    assert kkl_rhs(8, 2**6, 2) == pytest.approx(0.0625)
    values = [kkl_rhs(10, a, 2) for a in (2, 16, 128, 512, 1024)]
    assert values == sorted(values, reverse=True)
    with pytest.raises(ValueError):
        kkl_rhs(8, 0, 1)
    with pytest.raises(ValueError):
        kkl_rhs(8, 2**9, 1)


def test_kkl_shape_on_random_quarter_supports():
    # |A| = 2^(m-2): measure the constant, assert only the bound's shape.
    rng = random.Random(17)
    m, k = 12, 2
    rhs = kkl_rhs(m, 2 ** (m - 2), k)
    assert rhs == pytest.approx((2 / m) ** k)
    ratios = []
    for _ in range(5):
        support = SupportSet.from_words(m, rng.sample(range(2**m), 2 ** (m - 2)))
        value = mean_bias_sq(support, k, mode="sampled", trials=400, seed=rng.randrange(2**32))
        ratios.append(float(value) / rhs)
    assert all(0 <= r < 10 for r in ratios), f"measured constants {ratios}"


def test_product_bias_examples():
    flat = product_bias_check(0.5, 0.5)
    assert flat.xor_bias == 0 == flat.product and flat.ok
    skew = product_bias_check(1.0, 0.3)
    assert skew.xor_bias == pytest.approx(0.4)
    assert skew.product == pytest.approx(0.4)
    assert skew.ok
    with pytest.raises(ValueError):
        product_bias_check(1.5, 0.5)


def test_product_bias_grid_identity():
    for i in range(11):
        for j in range(11):
            assert product_bias_check(i / 10, j / 10).ok


def test_valid_subset_prob_examples():
    assert valid_subset_prob(2, 2) == Fraction(2, 3)
    assert valid_subset_prob(5, 1) == 1
    assert valid_subset_prob(1, 7) == 1  # every block has a single element
    with pytest.raises(ValueError):
        valid_subset_prob(0, 3)
    with pytest.raises(ValueError):
        valid_subset_prob(2, 5000)  # overflow guard


def enumerate_valid_fraction(w_c: int, t_a: int) -> Fraction:
    universe = range(w_c * t_a)
    valid = total = 0
    for subset in combinations(universe, t_a):
        total += 1
        per_block = [0] * t_a
        for element in subset:
            per_block[element // w_c] += 1
        valid += int(all(c == 1 for c in per_block))
    return Fraction(valid, total)


def test_valid_subset_prob_matches_enumeration():
    for w_c in range(1, 11):
        for t_a in range(1, 11):
            if w_c * t_a <= 20:
                assert valid_subset_prob(w_c, t_a) == enumerate_valid_fraction(w_c, t_a)


def test_valid_subset_prob_matches_monte_carlo():
    w_c, t_a = 3, 4
    p = valid_subset_prob(w_c, t_a)
    rng = random.Random(2024)
    trials = 20_000
    hits = 0
    blocks = [e // w_c for e in range(w_c * t_a)]
    for _ in range(trials):
        subset = rng.sample(range(w_c * t_a), t_a)
        counts = [0] * t_a
        for element in subset:
            counts[blocks[element]] += 1
        hits += int(all(c == 1 for c in counts))
    check = binomial_check(hits, trials, float(p))
    assert check.within(3), f"valid-subset frequency off: {check}"
