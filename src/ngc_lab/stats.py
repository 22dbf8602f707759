"""Statistical acceptance helpers.

Policy: empirical frequencies are judged by exact binomial three-sigma windows
or by chi-square goodness of fit (p > 0.001); confidence intervals are
Clopper-Pearson.  Chernoff bounds appear only when sizing trial counts up
front, never as a pass/fail rule.

The p-values and intervals call the ``scipy.special`` kernels that
``scipy.stats`` reaches, without its per-call wrapper cost: ``chdtrc`` (the
chi-square survival function) over Pearson's statistic, computed in
``scipy.stats.chisquare``'s arithmetic order, and ``betaincinv`` (Boost's
``ibeta_inv``, as in ``beta.ppf``) for the Clopper-Pearson endpoints.  So the
values equal the ``scipy.stats`` ones bit for bit (``tests/test_stats.py``).
``scipy.special`` is imported on first use; nothing here imports
``scipy.stats``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BinomialCheck:
    count: int
    trials: int
    expected_p: float

    @property
    def observed_p(self) -> float:
        return self.count / self.trials

    @property
    def sigma(self) -> float:
        return math.sqrt(self.expected_p * (1 - self.expected_p) / self.trials)

    @property
    def deviation_sigmas(self) -> float:
        if self.sigma == 0:
            return 0.0 if self.observed_p == self.expected_p else math.inf
        return abs(self.observed_p - self.expected_p) / self.sigma

    def within(self, n_sigmas: float = 3.0) -> bool:
        return self.deviation_sigmas <= n_sigmas

    def at_least(self, n_sigmas: float = 3.0) -> bool:
        """One-sided: observed rate >= expected_p minus an n-sigma allowance."""
        return self.observed_p >= self.expected_p - n_sigmas * self.sigma


def binomial_check(count: int, trials: int, expected_p: float) -> BinomialCheck:
    if trials <= 0 or not 0 <= count <= trials:
        raise ValueError("need 0 <= count <= trials, trials > 0")
    if not 0 <= expected_p <= 1:
        raise ValueError("expected_p outside [0, 1]")
    return BinomialCheck(count, trials, expected_p)


def chi_square_uniform(counts: list[int] | np.ndarray) -> float:
    """p-value for 'these cell counts are uniform over the listed cells'."""
    arr = np.asarray(counts, dtype=float)
    if arr.ndim != 1 or len(arr) < 2:
        raise ValueError("need at least two cells")
    return _pearson_pvalue(arr, arr.mean(keepdims=True))


def chi_square_expected(counts, expected) -> float:
    """p-value against explicit expected counts (scaled to the observed total)."""
    obs = np.asarray(counts, dtype=float)
    exp = np.asarray(expected, dtype=float)
    exp = exp * obs.sum() / exp.sum()
    # scipy.stats.chisquare's check that the totals agree after the rescale
    rtol = np.finfo(float).eps ** 0.5
    with np.errstate(invalid="ignore"):
        obs_sum, exp_sum = obs.sum(), exp.sum()
        if abs(obs_sum - exp_sum) / np.minimum(obs_sum, exp_sum) > rtol:
            raise ValueError(
                f"observed total {obs_sum:.17g} and expected total {exp_sum:.17g} differ "
                f"by more than a relative {rtol:.3g}"
            )
    return _pearson_pvalue(obs, exp)


def _pearson_pvalue(obs: np.ndarray, exp: np.ndarray) -> float:
    """Upper chi-square tail of Pearson's statistic, in ``scipy.stats.chisquare``'s arithmetic."""
    from scipy import special

    return float(special.chdtrc(len(obs) - 1, np.sum((obs - exp) ** 2 / exp)))


def clopper_pearson(successes: int, trials: int, alpha: float = 0.05) -> tuple[float, float]:
    """Exact binomial CI endpoints via the beta quantiles."""
    if trials <= 0 or not 0 <= successes <= trials:
        raise ValueError("need 0 <= successes <= trials, trials > 0")
    from scipy import special

    lo = 0.0 if successes == 0 else float(
        special.betaincinv(successes, trials - successes + 1, alpha / 2)
    )
    hi = 1.0 if successes == trials else float(
        special.betaincinv(successes + 1, trials - successes, 1 - alpha / 2)
    )
    return lo, hi
