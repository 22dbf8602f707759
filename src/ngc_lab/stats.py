"""Statistical acceptance helpers.

Policy: empirical frequencies are judged by exact binomial three-sigma windows
or by chi-square goodness of fit (p > 0.001); confidence intervals are
Clopper-Pearson.  Chernoff bounds appear only when sizing trial counts up
front, never as a pass/fail rule.  ``scipy.stats`` is imported on first use:
it is most of what importing the package would otherwise cost.
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

    def at_least(self, floor_p: float, n_sigmas: float = 3.0) -> bool:
        """One-sided: observed rate >= floor_p minus an n-sigma allowance."""
        slack = n_sigmas * math.sqrt(floor_p * (1 - floor_p) / self.trials)
        return self.observed_p >= floor_p - slack


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
    from scipy import stats as sps

    return float(sps.chisquare(arr).pvalue)


def chi_square_expected(counts, expected) -> float:
    """p-value against explicit expected counts (scaled to the observed total)."""
    obs = np.asarray(counts, dtype=float)
    exp = np.asarray(expected, dtype=float)
    exp = exp * obs.sum() / exp.sum()
    from scipy import stats as sps

    return float(sps.chisquare(obs, exp).pvalue)


def clopper_pearson(successes: int, trials: int, alpha: float = 0.05) -> tuple[float, float]:
    """Exact binomial CI endpoints via the beta quantiles."""
    if trials <= 0 or not 0 <= successes <= trials:
        raise ValueError("need 0 <= successes <= trials, trials > 0")
    from scipy import stats as sps

    lo = 0.0 if successes == 0 else float(sps.beta.ppf(alpha / 2, successes, trials - successes + 1))
    hi = 1.0 if successes == trials else float(
        sps.beta.ppf(1 - alpha / 2, successes + 1, trials - successes)
    )
    return lo, hi
