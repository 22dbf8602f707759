"""Expected values and output checks, computed apart from ngc_lab.

Nothing here imports the package under test.  Every expected value comes from
a closed form or an enumeration written out below, and every check returns a
list of failure messages (empty when the output is right), so that
``selftest.py`` can feed each check a known-wrong input and see it fail.

Statistical rows are judged over a whole run, not one round at a time: each
round draws fresh randomness, so a per-round tolerance would fail working code
by chance on long runs.  Rates are pooled over the rounds and held to a
six-sigma band around the exact value (a chance failure about once in 5e8
runs).  A chi-square row passes a round at p > 0.001; the run fails the row
when more rounds fall at or below 0.001 than a per-round rate of 1% reaches
with probability 1e-9.  The 1% rather than 0.1% covers the small-sample tail
of the chi-square approximation: with 16 draws over 64 cells, 0.7% of rounds
fall below 0.001 when the law is exactly uniform.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
from scipy import stats as sps

BAND_SIGMAS = 6.0
P_FLOOR = 1e-3
LOW_P_RATE = 0.01
FALSE_ALARM = 1e-9


# --- large instances ------------------------------------------------------------


def census_law(n: int, k: int, theta: int) -> tuple[dict[int, int], dict[int, int], int]:
    """(cycles by length, paths by edge count, components) of a genuine instance.

    theta=0 closes n/2k cycles of k edges, theta=1 closes n/4k cycles of 2k
    edges; the n/2k open strands are paths of k-1 edges either way.
    """
    if theta == 0:
        cycles = {k: n // (2 * k)}
    elif theta == 1:
        cycles = {2 * k: n // (4 * k)}
    else:
        raise ValueError(f"theta must be 0 or 1, got {theta!r}")
    paths = {k - 1: n // (2 * k)}
    return cycles, paths, sum(cycles.values()) + sum(paths.values())


def census_failures(census, n: int, k: int, theta: int) -> list[str]:
    cycles, paths, components = census_law(n, k, theta)
    out = []
    if dict(census.cycles) != cycles:
        out.append(f"census cycles {dict(census.cycles)} != law {cycles} (n={n} k={k} theta={theta})")
    if dict(census.paths) != paths:
        out.append(f"census paths {dict(census.paths)} != law {paths} (n={n} k={k} theta={theta})")
    if census.components != components:
        out.append(f"census components {census.components} != law {components}")
    if census.degree_violations:
        out.append(f"census flags {len(census.degree_violations)} vertices of degree > 2")
    return out


def edge_array(edges) -> np.ndarray:
    """(E, 2) int64 array of edges with each row sorted (u <= v)."""
    arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    return np.sort(arr, axis=1)


def degree_failures(edges: np.ndarray, n: int) -> list[str]:
    if edges.size and (edges.min() < 0 or edges.max() >= n):
        return [f"edge endpoint outside 0..{n - 1}"]
    top = int(np.bincount(edges.ravel(), minlength=n).max(initial=0))
    return [] if top <= 2 else [f"a vertex has degree {top} > 2"]


def multiset_failures(got: np.ndarray, want: np.ndarray, what: str) -> list[str]:
    """Equal as multisets of undirected edges (rows already u <= v)."""
    if got.shape != want.shape:
        return [f"{what}: {len(got)} edges, expected {len(want)}"]
    key_got = np.sort(got[:, 0] * (1 << 32) + got[:, 1])
    key_want = np.sort(want[:, 0] * (1 << 32) + want[:, 1])
    diff = int(np.count_nonzero(key_got != key_want))
    return [] if diff == 0 else [f"{what}: edge multiset differs at {diff} sorted positions"]


def share_failures(alice: int, total: int) -> list[str]:
    """Alice's edge count against Binomial(total, 1/2), six-sigma band."""
    sigma = math.sqrt(total) / 2
    dev = abs(alice - total / 2) / sigma if sigma else math.inf
    if dev <= BAND_SIGMAS:
        return []
    return [f"Alice holds {alice} of {total} edges, {dev:.1f} sigma from half"]


def message_bits_law(alice_edges: int) -> int:
    """Full forwarding sends a 4-byte count and 8 bytes per edge."""
    return 8 * (4 + 8 * alice_edges)


# --- tiny draws -----------------------------------------------------------------


def gadget_list(witness) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The witness's (cross bits, permutation) gadgets in path order."""
    if witness.form == "block":
        return list(zip(witness.X, witness.Sigma))
    return [
        (x, sigma)
        for xs, sigmas in zip(witness.X, witness.Sigma)
        for x, sigma in zip(xs, sigmas)
    ]


def group_parity(witness, group: int) -> int:
    """Crossing parity of `group` traced through the witness tuples.

    Each gadget sends group j through slot sigma(j) and crosses there iff
    x[sigma(j)] = 1; blocks and segments both return the group to itself, so
    the parity is the XOR of those bits over the gadgets in order.
    """
    bit = 0
    for x, sigma in gadget_list(witness):
        bit ^= x[sigma[group - 1] - 1]
    return bit


def embedding_failures(narrow, wide, m: int, h_star: int) -> list[str]:
    """Shape of the embedded witness and the parity of each of its first m groups."""
    out = []
    width = 2 * m
    for g, (x, sigma) in enumerate(gadget_list(wide)):
        if sorted(sigma) != list(range(1, width + 1)):
            out.append(f"gadget {g}: sigma {sigma} is not a permutation of 1..{width}")
        if len(x) != width or any(b not in (0, 1) for b in x):
            out.append(f"gadget {g}: x {x} is not a 0/1 vector of length {width}")
    if out:
        return out
    want_planted = group_parity(narrow, 1)
    for j in range(1, m + 1):
        want = want_planted if j == h_star else (0 if j < h_star else 1)
        got = group_parity(wide, j)
        if got != want:
            out.append(f"group {j} parity {got}, expected {want} (h*={h_star})")
    return out


def width2_support(t: int) -> dict[tuple, int]:
    """Cell ids of every width-2 block witness with t gadgets: 8^t cells."""
    perms = ((1, 2), (2, 1))
    bits = ((0, 0), (0, 1), (1, 0), (1, 1))
    gadgets = [(x, sigma) for sigma in perms for x in bits]
    cells = {}
    for combo in itertools.product(gadgets, repeat=t):
        xs = tuple(x for x, _ in combo)
        sigmas = tuple(sigma for _, sigma in combo)
        cells[(xs, sigmas)] = len(cells)
    return cells


# --- claim suites ---------------------------------------------------------------


def capped_activity(w: int) -> Fraction:
    """Pr[block active] = E[min(C, w_c)] / w with C ~ Binomial(w, 1/64), exactly."""
    w_c = max(1, w // 100)
    p = Fraction(1, 64)
    mean = sum(
        math.comb(w, c) * p**c * (1 - p) ** (w - c) * min(c, w_c) for c in range(w + 1)
    )
    return mean / w


def stochastic_laws(w: int, k: int, c: float) -> dict[str, float]:
    """Exact rates of the sampling model on a width-w, depth-k instance.

    Each player draws N = ceil(c|E|/2) edges iid with repetition.  A fixed edge
    is absent from one sample with probability q = (1 - 1/|E|)^N.  A fixed
    index is clean when Alice's sample avoids its four outer edges and holds
    both middle ones while Bob's avoids the middle two and holds all four
    outer ones; inclusion-exclusion over the edges that must be hit gives each
    player's factor.
    """
    m = w // 2
    edges = 2 * w * (k - 1) + 2 * m
    draws = math.ceil(c * edges / 2)
    q = Fraction(edges - 1, edges) ** draws

    def hits_all(avoid: int, must: int) -> Fraction:
        return sum(
            (-1) ** r * math.comb(must, r) * Fraction(edges - avoid - r, edges) ** draws
            for r in range(must + 1)
        )

    clean = hits_all(avoid=4, must=2) * hits_all(avoid=2, must=4)
    return {
        "absent_prob": float(q),
        "alice_only_prob": float((1 - q) * q),
        "clean_prob": float(clean),
    }


def coverage_law(k: int) -> Fraction:
    """Pr[a 2k-step walk on a 2k-cycle visits every vertex], over all 2^{2k} step patterns."""
    steps = 2 * k
    covering = 0
    for pattern in itertools.product((-1, 1), repeat=steps):
        pos = lo = hi = 0
        for step in pattern:
            pos += step
            lo, hi = min(lo, pos), max(hi, pos)
        covering += hi - lo + 1 >= steps
    return Fraction(covering, 2**steps)


def triangle_union(vertices: int) -> list[tuple[int, int]]:
    edges = []
    for i in range(0, vertices, 3):
        edges += [(i, i + 1), (i + 1, i + 2), (i, i + 2)]
    return edges


def estimate_failures(result, vertices: int, r: int) -> list[str]:
    """On a triangle union every seed absorbs its triangle: estimate = n/3."""
    out = []
    if result.clean_seeds != r:
        out.append(f"cc_estimate: {r - result.clean_seeds} of {r} seeds dirty on a triangle union")
    if not math.isclose(result.estimate, vertices / 3, rel_tol=1e-9):
        out.append(f"cc_estimate {result.estimate!r} != n/3 = {vertices / 3}")
    return out


# --- run-level statistical checks -----------------------------------------------


def chi_square_p(counts) -> float:
    """Upper-tail p of Pearson's statistic against equal cell probabilities."""
    obs = np.asarray(counts, dtype=float)
    expected = obs.sum() / len(obs)
    stat = float(((obs - expected) ** 2).sum() / expected)
    return float(sps.chi2.sf(stat, len(obs) - 1))


def rate_failures(label: str, count: int, trials: int, p: float) -> list[str]:
    """Pooled count against Binomial(trials, p), six-sigma band."""
    if trials <= 0:
        return [f"{label}: no trials"]
    sigma = math.sqrt(trials * p * (1 - p))
    dev = abs(count - trials * p) / sigma if sigma else (0.0 if count == trials * p else math.inf)
    if dev <= BAND_SIGMAS:
        return []
    return [f"{label}: {count}/{trials} = {count / trials:.5f}, {dev:.1f} sigma from {p:.5f}"]


def low_p_limit(rounds: int) -> int:
    """Fewest low-p rounds that chance reaches with probability <= FALSE_ALARM."""
    x = 0
    while sps.binom.sf(x - 1, rounds, LOW_P_RATE) > FALSE_ALARM:
        x += 1
    return x


def pvalue_failures(label: str, pvalues: list[float]) -> list[str]:
    if not pvalues:
        return [f"{label}: no rounds"]
    bad = [p for p in pvalues if not math.isfinite(p)]
    if bad:
        return [f"{label}: {len(bad)} rounds gave no p-value"]
    low = sum(p <= P_FLOOR for p in pvalues)
    limit = low_p_limit(len(pvalues))
    if low < limit:
        return []
    return [f"{label}: {low} of {len(pvalues)} rounds at p <= {P_FLOOR} (chance allows < {limit})"]
