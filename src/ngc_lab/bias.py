"""Exact Boolean bias arithmetic.

Everything here is small-universe and exact: supports are explicit sets of
short bit strings, and biases are rationals from integer counting.  Sampling
appears only as an alternative estimator for subset averages, so sampled and
exact answers can be cross-checked against each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from itertools import combinations

from .seeds import Seed, as_seed

MAX_WORD_BITS = 24


@dataclass(frozen=True)
class SupportSet:
    """A nonempty set of m-bit words, m <= 24, stored as ints."""

    m: int
    members: frozenset[int]

    def __post_init__(self) -> None:
        if not 1 <= self.m <= MAX_WORD_BITS:
            raise ValueError(f"word length must be in [1, {MAX_WORD_BITS}]")
        if not self.members:
            raise ValueError("support must be nonempty")
        bad = [y for y in self.members if not 0 <= y < 2**self.m]
        if bad:
            raise ValueError(f"members outside [0, 2^{self.m}): {sorted(bad)[:4]}")

    @classmethod
    def from_words(cls, m: int, words: Iterable[int]) -> "SupportSet":
        return cls(m, frozenset(words))

    @classmethod
    def from_strings(cls, strings: Iterable[str]) -> "SupportSet":
        strings = list(strings)
        if not strings:
            raise ValueError("support must be nonempty")
        m = len(strings[0])
        if any(len(s) != m for s in strings):
            raise ValueError("all words must have the same length")
        # leftmost character is coordinate 1
        return cls(m, frozenset(int(s[::-1], 2) for s in strings))

    @classmethod
    def full_cube(cls, m: int) -> "SupportSet":
        return cls(m, frozenset(range(2**m)))

    def __len__(self) -> int:
        return len(self.members)


def _subset_mask(support: SupportSet, indices: Iterable[int]) -> int:
    mask = 0
    for i in indices:
        if not 1 <= i <= support.m:
            raise ValueError(f"index {i} outside [1, {support.m}]")
        mask |= 1 << (i - 1)
    return mask


def bias(support: SupportSet, indices: Iterable[int]) -> Fraction:
    """|Pr[xor of the indexed bits = 1] - Pr[= 0]| over a uniform member."""
    mask = _subset_mask(support, indices)
    ones = sum((y & mask).bit_count() & 1 for y in support.members)
    zeros = len(support) - ones
    return Fraction(abs(ones - zeros), len(support))


EXACT_SUBSET_GUARD = 10**6


def mean_bias_sq(
    support: SupportSet,
    k: int,
    mode: str = "exact",
    trials: int | None = None,
    seed: Seed | int | None = None,
) -> Fraction:
    """Average of bias^2 over uniform k-subsets of the coordinates.

    exact mode enumerates all C(m, k) subsets (guarded to 10^6); sampled mode
    averages over `trials` uniformly drawn subsets, each bias still exact.
    """
    m = support.m
    if not 1 <= k <= m:
        raise ValueError(f"need 1 <= k <= {m}")
    if mode == "exact":
        count = math.comb(m, k)
        if count > EXACT_SUBSET_GUARD:
            raise ValueError(f"C({m},{k}) = {count} exceeds the exact-mode guard")
        total = sum(bias(support, s) ** 2 for s in combinations(range(1, m + 1), k))
        return Fraction(total, count)
    if mode == "sampled":
        if trials is None or trials < 1:
            raise ValueError("sampled mode needs trials >= 1")
        rng = as_seed(seed).rng()
        total = sum(
            bias(support, rng.sample(range(1, m + 1), k)) ** 2 for _ in range(trials)
        )
        return Fraction(total, trials)
    raise ValueError(f"unknown mode {mode!r}")


def kkl_rhs(m: int, cardinality: int, k: int) -> float:
    """((1/m) log2(2^m/|A|))^k — the bound's bracket, constant-free, base 2."""
    if not 1 <= cardinality <= 2**m:
        raise ValueError(f"cardinality must be in [1, 2^{m}]")
    return ((m - math.log2(cardinality)) / m) ** k


@dataclass(frozen=True)
class ProductBiasCheck:
    xor_bias: float
    product: float

    @property
    def ok(self) -> bool:
        return abs(self.xor_bias - self.product) <= 1e-12


def product_bias_check(p: float, q: float) -> ProductBiasCheck:
    """XOR of independent bits dampens bias multiplicatively; check one point.

    bias of a bit with Pr[1]=p is |2p-1|; the xor has Pr[1] = p+q-2pq.
    """
    if not (0 <= p <= 1 and 0 <= q <= 1):
        raise ValueError("p, q must be probabilities")
    xor_p1 = p + q - 2 * p * q
    return ProductBiasCheck(xor_bias=abs(2 * xor_p1 - 1), product=abs(2 * p - 1) * abs(2 * q - 1))


VALID_SUBSET_BITS_GUARD = 4096


def valid_subset_prob(w_c: int, t_a: int) -> Fraction:
    """Probability a uniform t_a-subset of t_a blocks of w_c picks one per block.

    Exactly w_c^t_a / C(w_c * t_a, t_a).
    """
    if w_c < 1 or t_a < 1:
        raise ValueError("need w_c >= 1 and t_a >= 1")
    if t_a * max(1, w_c.bit_length()) > VALID_SUBSET_BITS_GUARD:
        raise ValueError("combinatorial values beyond the overflow guard")
    return Fraction(w_c**t_a, math.comb(w_c * t_a, t_a))
