"""The p-values and intervals against scipy.stats, bit for bit.

``ngc_lab.stats`` calls the ``scipy.special`` kernels behind
``scipy.stats.beta.ppf`` and ``scipy.stats.chisquare`` directly; the
distribution wrappers serve here as the oracle, used the way the package
used them before.  Values are compared with ``==`` (nan equal to nan), so a
change in arithmetic order shows as a failure.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from ngc_lab.stats import chi_square_expected, chi_square_uniform, clopper_pearson

# every trial count the suites use, besides random ones up to 10^6
SUITE_TRIALS = [640, 1000, 2000, 10**4, 2 * 10**4, 10**5, 10**6]


def same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def outcome(fn, *args):
    """The float a call returns, or the ValueError class if it raises one."""
    try:
        with np.errstate(invalid="ignore", divide="ignore"):
            return float(fn(*args))
    except ValueError:
        return ValueError


def oracle_clopper_pearson(successes: int, trials: int, alpha: float) -> tuple[float, float]:
    lo = 0.0 if successes == 0 else float(sps.beta.ppf(alpha / 2, successes, trials - successes + 1))
    hi = 1.0 if successes == trials else float(
        sps.beta.ppf(1 - alpha / 2, successes + 1, trials - successes)
    )
    return lo, hi


def oracle_chi_square_uniform(counts) -> float:
    return float(sps.chisquare(np.asarray(counts, dtype=float)).pvalue)


def oracle_chi_square_expected(counts, expected) -> float:
    obs = np.asarray(counts, dtype=float)
    exp = np.asarray(expected, dtype=float)
    return float(sps.chisquare(obs, exp * obs.sum() / exp.sum()).pvalue)


@st.composite
def binomial_outcomes(draw):
    trials = draw(
        st.one_of(st.integers(1, 400), st.sampled_from(SUITE_TRIALS), st.integers(1, 10**6))
    )
    edge = st.sampled_from([0, 1, 2, trials - 2, trials - 1, trials]).filter(lambda s: 0 <= s <= trials)
    return draw(st.one_of(edge, st.integers(0, trials))), trials


@settings(max_examples=1000, deadline=None)
@given(binomial_outcomes(), st.sampled_from([0.05, 0.01, 0.1, 0.3173]))
@example((0, 1), 0.05)
@example((1, 1), 0.05)
@example((500_000, 10**6), 0.05)
def test_clopper_pearson_equals_the_beta_quantiles(outcome_pair, alpha):
    successes, trials = outcome_pair
    assert clopper_pearson(successes, trials, alpha) == oracle_clopper_pearson(
        successes, trials, alpha
    )


COUNTS = st.one_of(
    st.lists(st.integers(0, 50), min_size=2, max_size=600),
    st.lists(st.integers(0, 10**6), min_size=2, max_size=600),
    st.tuples(st.integers(0, 10**6), st.integers(2, 600)).map(lambda vn: [vn[0]] * vn[1]),
)


@settings(max_examples=300, deadline=None)
@given(COUNTS)
@example([0, 0])
@example([7] * 600)
@example([0, 1])
def test_chi_square_uniform_equals_scipy_chisquare(counts):
    got = outcome(chi_square_uniform, counts)
    assert same(got, outcome(oracle_chi_square_uniform, counts))
    if len(set(counts)) == 1:  # p = 1, or nan when every cell is empty
        assert math.isnan(got) if counts[0] == 0 else got == 1.0


@st.composite
def counts_and_expected(draw):
    counts = draw(COUNTS)
    weight = st.floats(1e-3, 1e6, allow_nan=False, allow_infinity=False)
    return counts, draw(st.lists(weight, min_size=len(counts), max_size=len(counts)))


@settings(max_examples=300, deadline=None)
@given(counts_and_expected())
@example(([0, 0, 0], [1.0, 2.0, 3.0]))
@example(([4, 4], [1.0, 1.0]))
def test_chi_square_expected_equals_scipy_chisquare(case):
    counts, expected = case
    got = outcome(chi_square_expected, counts, expected)
    assert same(got, outcome(oracle_chi_square_expected, counts, expected))


# expected lists whose total cancels, so the rescaled expected counts no
# longer sum to the observed total
@pytest.mark.parametrize("expected", [[1e16, 3, -1e16], [3e16, 5, -3e16, 7]])
def test_chi_square_expected_rejects_a_total_mismatch_like_scipy(expected):
    counts = [5] * len(expected)
    assert outcome(oracle_chi_square_expected, counts, expected) is ValueError
    with pytest.raises(ValueError, match="observed total"):
        chi_square_expected(counts, expected)
