"""Experiment suites: one function per empirical check, reporting CSV rows.

Each suite draws everything from one master seed, computes its statistics, and
returns ``Row`` records in the fixed column order used by the command-line
front end (suite, params, metric, value, ci_low, ci_high, trials, seed).
Pass/fail policy lives here, in ``_Verdicts``: a suite hands each statistic
to one kind of check, which writes its row and, when the row fails, its
failure message, so the CLI and the test suite agree on what counts as a
failure.  The kinds are ``exact`` (every trial passes), ``near`` (within 3
sigma of an exact probability), ``floor`` (at least a probability floor less a
one-sided 3-sigma allowance), ``least`` (a plain success-rate floor, 2/3 or
0.6) and ``uniform`` (a chi-square p-value above ``P_FLOOR``; a nan one, from
too few counts to judge, fails).

Two suites carry a vectorized fast path whose equivalence to the object-level
route is not obvious from the code alone:

* ``partition_stats_suite`` measures the conditional law of the first witness
  image over the capped clean set by simulating the index-clean indicator
  directly (each index is clean with probability exactly 1/64, independently
  across indices, and the image is an independent uniform group id).  The
  object-level route verifies those three facts at small width.  The
  indicators are bytes of the generator's own words, replayed in blocks
  (``_sigma1_rank_counts``).

* ``walk_cover_suite`` simulates walks started on a cycle as +/-1 increment
  sequences: on an L-cycle every vertex has exactly two neighbours, so the
  walk's position is a lazy-free simple random walk on Z/L, and it covers the
  cycle iff the running range of the increments reaches L-1.  Walks started on
  path components never produce a cycle certificate (their endpoints have
  degree one), so only the cycle-started half of the budget matters.  Each
  step is the top bit of one generator byte, and a table folds a walk's
  steps eight at a time (``_fast_walk_coverage``).  The test suite checks
  the simulation against real walks and real certificates, and both replays
  draw for draw against the uint8 and int8 simulators they replaced.

The object trials of ``partition_stats_suite`` and ``stochastic_stats_suite``
are not simulated: each trial draws from its own ``random.Random`` stream on
its own seed path.  A batch of trials derives its keys together
(``Seed.keys``), holds their streams' words at once (``seeds.key_streams``,
which replays MT19937 for a batch of hundreds of keys or more), reads its
draws off them (``sample_ngc_sigma1``, ``partition_slots``,
``stochastic_picks``: row r is trial r's stream) and counts on arrays with
a leading trials axis, so the rows equal those of the one-trial-at-a-time
loop the tests keep as reference.  ``adapter_suite``'s order trials are read
the same way: owner bits, then each player's shuffle (``seeds.shuffle_rows``,
a ``randrange_rows`` read a swap), every trial of a batch at once.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np

from .bias import MAX_WORD_BITS, SupportSet, kkl_rhs, mean_bias_sq
from .distributions import (
    MAX_VERTICES,
    census_law,
    census_of_edges,
    mst_augment,
    ngc_shape,
    pad_to_k,
    sample_ngc,
    sample_ngc_batched,
    sample_ngc_sigma1,
    uniform_witness,
    validate_instance,
)
from .partitions import (
    ALICE,
    assign_batches,
    assign_uniform,
    clean_cap,
    clean_masks,
    core_columns,
    function_index_table,
    partition_slots,
    sample_size,
    seen_counts,
    stochastic_owners,
    stochastic_picks,
)
from .protocols import (
    BobOnlyCycleDetector,
    LPlayerStreamingProtocol,
    StreamingProtocol,
    embed_dhx,
    embed_dhx_batched,
    run_protocol,
)
from .seeds import (
    Seed,
    as_seed,
    key_streams,
    master_keys,
    randrange_rows,
    replay_bytes,
    shuffle_rows,
    skip_bytes,
    word_budget,
)
from .stats import binomial_check, chi_square_uniform, clopper_pearson
from .streaming import (
    CensusThetaDecision,
    UnionFindCensusAlgorithm,
    cc_estimate,
    census_matching_size,
    census_mis_size,
    exact_census,
    make_stream,
    matching_size_exact,
    mis_size_exact,
    mst_weight_exact,
    stream_from_edges,
    theta_from_components,
)

P_FLOOR = 1e-3  # chi-square tests fail below this p-value
CLEAN_P = 1.0 / 64.0  # an index's six edges match the split pattern

CSV_COLUMNS = ("suite", "params", "metric", "value", "ci_low", "ci_high", "trials", "seed")


@dataclass(frozen=True)
class Row:
    suite: str
    params: str
    metric: str
    value: float | int | str
    ci_low: float | None
    ci_high: float | None
    trials: int
    seed: int

    def as_record(self) -> tuple:
        def fmt(x):
            if x is None:
                return ""
            if isinstance(x, float):
                return repr(x)
            return str(x)

        return (
            self.suite,
            self.params,
            self.metric,
            fmt(self.value),
            fmt(self.ci_low),
            fmt(self.ci_high),
            str(self.trials),
            str(self.seed),
        )


@dataclass(frozen=True)
class SuiteResult:
    rows: tuple[Row, ...]
    passed: bool
    failures: tuple[str, ...] = ()


def _params(**kv) -> str:
    return ";".join(f"{k}={v}" for k, v in kv.items() if v is not None)


class _Verdicts:
    """One suite's rows and failures, each row judged by one kind of check.

    Every row carries the suite's name, ``params`` (reassigned before rows
    that report other parameters) and the master seed.  A check adds its row,
    then its ``failure`` message if the row fails; a rate's row carries its
    Clopper-Pearson interval, except under ``exact``.
    """

    def __init__(self, suite: str, params: str, root: Seed) -> None:
        self.suite, self.params, self.seed = suite, params, root.master
        self.rows: list[Row] = []
        self.failures: list[str] = []

    def row(self, metric: str, value, trials: int, ci=(None, None)) -> None:
        self.rows.append(Row(self.suite, self.params, metric, value, *ci, trials, self.seed))

    def fail(self, failure: str) -> None:
        self.failures.append(failure)

    def exact(self, metric: str, ok: int, trials: int, failure: str) -> None:
        """Every trial must pass; ``{misses}`` in ``failure`` counts those that did not."""
        self.row(metric, ok / trials, trials)
        if ok != trials:
            self.fail(failure.format(misses=trials - ok))

    def near(self, metric: str, count: int, trials: int, p: float, failure: str) -> None:
        """The rate must lie within 3 sigma of the exact probability ``p``."""
        self.row(metric, count / trials, trials, clopper_pearson(count, trials))
        if not binomial_check(count, trials, p).within(3):
            self.fail(failure)

    def floor(self, metric: str, count: int, trials: int, floor: float, failure: str) -> None:
        """The rate must reach ``floor`` less a one-sided 3-sigma allowance."""
        self.row(metric, count / trials, trials, clopper_pearson(count, trials))
        if not binomial_check(count, trials, floor).at_least():
            self.fail(failure)

    def least(
        self, metric: str, ok: int, trials: int, floor: float, failure: str, interval: bool = True
    ) -> None:
        """The success rate must be at least ``floor``, with no allowance."""
        ci = clopper_pearson(ok, trials) if interval else (None, None)
        self.row(metric, ok / trials, trials, ci)
        if ok / trials < floor:
            self.fail(failure)

    def uniform(self, metric: str, p: float, trials: int, failure: str) -> None:
        """The chi-square p-value must exceed ``P_FLOOR``; a nan one (too few counts) fails."""
        self.row(metric, p, trials)
        if not p > P_FLOOR:
            self.fail(failure)

    def result(self) -> SuiteResult:
        return SuiteResult(tuple(self.rows), not self.failures, tuple(self.failures))


def _check_trials(**budgets: int) -> None:
    """Reject a count or size below one, by name, before any draw."""
    for name, count in budgets.items():
        if count < 1:
            raise ValueError(f"need {name} >= 1, got {name}={count}")


# --- structural census ------------------------------------------------------------


def census_suite(
    n: int,
    k: int,
    trials: int,
    seed: Seed | int | None = None,
    pad: int | None = None,
) -> SuiteResult:
    """Draw instances and compare their exact census to the component law.

    With ``pad`` set, each instance is padded up to that depth first (the law
    is restated at the padded k).  The check is exact: any deviation in cycle
    or path multiplicities fails the suite.
    """
    _check_trials(trials=trials)
    root = as_seed(seed)
    ok = 0
    for i in range(trials):
        inst = sample_ngc(n, k, root.child("census", i))
        if pad is not None:
            inst = pad_to_k(inst, pad)
        ok += validate_instance(inst) == census_law(inst.k, inst.m, inst.theta)
    verdicts = _Verdicts("census", _params(n=n, k=k, pad=pad), root)
    verdicts.exact("census_exact", ok, trials, "census law violated in {misses} draws")
    return verdicts.result()


# --- partition statistics ---------------------------------------------------------


def capped_activity_probability(w: int) -> Fraction:
    """Pr[block active] under the desk-scale cap, exactly.

    With w_c = max(1, floor(w/100)) and each index clean independently with
    probability 1/64, activity means the uniform image sigma(1) lands on one
    of the first w_c clean indices: Pr = E[min(|clean|, w_c)] / w.

    With C ~ Binomial(w, 1/64), E[min(C, w_c)] = w_c - sum_{c < w_c} (w_c -
    c) Pr[C = c], and 64^w Pr[C = c] = comb(w, c) 63^(w - c) is an integer,
    each one the one before times (w - c) / ((c + 1) 63), exactly.  So the
    sum runs in integers over the one denominator 64^w.
    """
    w_c = clean_cap(w)
    term = 63**w  # 64^w Pr[C = c], from c = 0
    short = 0  # 64^w (w_c - E[min(C, w_c)])
    for c in range(w_c):
        short += (w_c - c) * term
        term = term * (w - c) // ((c + 1) * 63)
    return Fraction(w_c * 64**w - short, w * 64**w)


# array elements per batch of trials in the two object suites (held stream
# words, count arrays) and per block of replayed sigma(1) or walk bytes; and
# trials per batch: a partition batch's two keys a trial then make one
# replay pass of at most 4096 keys (seeds._PASS_KEYS)
_BATCH_ELEMENTS = 1 << 19
_BATCH_TRIALS = 2048
# clean indicators per chunk of sigma(1) draws: a chunk draws all its
# indicators and then all its images, so the chunk is part of the rows' law.
# The blocks a chunk's indicators are replayed in are not: each but the last
# is a whole number of 32-bit words, so the blocks read the chunk's bytes.
_SIGMA1_CHUNK = 20_000_000


def _trial_batches(trials: int, per_trial: int) -> Iterator[range]:
    """Consecutive runs of trial numbers, about _BATCH_ELEMENTS // per_trial long.

    At most _BATCH_TRIALS long, so that a batch's keys are one replay pass.
    """
    step = max(1, min(_BATCH_ELEMENTS // per_trial, _BATCH_TRIALS))
    return (range(start, min(start + step, trials)) for start in range(0, trials, step))


# the widest block the two width-driven suites take: their arrays grow with w
# (the exact capped activity probability takes about 0.01 s at 2**14 on a
# 2-CPU machine, about fourfold per doubling of w)
MAX_WIDTH = 1 << 14


def _check_width_and_trials(w: int, trials: int) -> None:
    if w < 2 or w % 2:
        raise ValueError("need even w >= 2")
    if w > MAX_WIDTH:
        raise ValueError(f"w={w} is past the width ceiling {MAX_WIDTH}")
    _check_trials(trials=trials)


def _partition_counts(w: int, trials: int, root: Seed) -> tuple[list[int], int, int, int]:
    """(64 pattern-cell counts, clean, active capped, active uncapped) over object trials.

    Trial i draws a one-block instance of width w from ``object/i/inst`` and
    partition functions from ``object/i/F``.  Index 1's pattern and every
    index's cleanness read F's slots alone (``function_index_table``), so the
    instance contributes only sigma(1).  A batch of trials holds the
    streams of its ``inst`` and ``F`` keys together (``seeds.key_streams``),
    reads sigma(1) (``sample_ngc_sigma1``) and F's slots
    (``partition_slots``) off them, and counts on (trials, 6w) arrays.
    """
    table = function_index_table(w, 1)
    w_c = clean_cap(w)
    pattern_counts = np.zeros(64, dtype=np.int64)
    clean_hits = active_capped = active_uncapped = 0
    trial = root.child("object")
    inst_words = word_budget(2, 1) + word_budget(w, 1)  # theta, then sigma(1)
    for batch in _trial_batches(trials, 6 * w):
        inst, functions = key_streams(
            (trial.keys(batch, "inst"), inst_words), (trial.keys(batch, "F"), word_budget(2, 6 * w))
        )
        sigma1 = sample_ngc_sigma1(inst, w) - 1
        owners = partition_slots(functions, w, 1)
        clean, capped = clean_masks(owners, table, w_c)
        rows = np.arange(len(batch))
        clean_hits += int(np.count_nonzero(clean[:, 0, 0]))
        active_capped += int(np.count_nonzero(capped[rows, 0, sigma1]))
        active_uncapped += int(np.count_nonzero(clean[rows, 0, sigma1]))
        # six-owner pattern of index 1, encoded little-endian as a cell id
        cells = owners[:, table[0, 0]].astype(np.int64) @ (1 << np.arange(6))
        pattern_counts += np.bincount(cells, minlength=64)
    return pattern_counts.tolist(), clean_hits, active_capped, active_uncapped


def partition_stats_suite(
    w: int,
    trials: int,
    seed: Seed | int | None = None,
    tail_blocks: int | None = None,
    sigma1_trials: int | None = None,
) -> SuiteResult:
    """Ownership-pattern and activity statistics for the two-player split.

    Object-level rows (per trial a fresh one-block instance of width w and
    fresh partition functions, each from its own seed path, counted in
    batches of trials): the 64-cell ownership-pattern chi-square, Pr[index
    clean], and Pr[block active] both capped and uncapped.  The capped
    probability is compared against its exact cap-aware value, the uncapped
    one against 1/64.

    When floor(w/100) >= 2 a vectorized row checks that, conditioned on the
    block being active (and on the clean set being large enough for the cap to
    bind), the image sigma(1) is uniform over the w_c capped slots.  Its trial
    budget, ``sigma1_trials``, defaults to max(trials, 4000 * w_c): 2.5 times
    the 10 * w_c conditioned draws the row needs at the worst rate, one draw
    in 157 at w = 298.  With fewer than 10 * w_c the row reads nan and fails.

    With ``tail_blocks`` set, adds the active-count tail row: out of that many
    independent blocks at this width, the number of active ones is at least
    ln(w) with frequency at least 1 - 1/w^2, over 2000 draws of the count.
    """
    _check_width_and_trials(w, trials)
    if sigma1_trials is not None:
        _check_trials(sigma1_trials=sigma1_trials)
    if tail_blocks is not None:
        _check_trials(tail_blocks=tail_blocks)
        if tail_blocks >= 2**63:  # numpy's binomial takes an int64 count
            raise ValueError(f"need tail_blocks < 2**63, got tail_blocks={tail_blocks}")
    root = as_seed(seed)
    verdicts = _Verdicts("partition-stats", _params(w=w), root)

    pattern_counts, clean_hits, active_capped, active_uncapped = _partition_counts(w, trials, root)

    obs_p = chi_square_uniform(pattern_counts)
    verdicts.uniform("ownership_pvalue", obs_p, trials, f"ownership pattern chi-square p={obs_p:.2e}")
    verdicts.near("clean_prob", clean_hits, trials, CLEAN_P, "Pr[index clean] outside 3 sigma of 1/64")
    verdicts.near(
        "active_prob",
        active_capped,
        trials,
        float(capped_activity_probability(w)),
        "Pr[block active] outside 3 sigma of its cap-aware value",
    )
    verdicts.near(
        "active_prob_uncapped",
        active_uncapped,
        trials,
        CLEAN_P,
        "uncapped Pr[block active] outside 3 sigma of 1/64",
    )

    w_c = clean_cap(w)
    if w_c >= 2:
        budget = sigma1_trials if sigma1_trials is not None else max(trials, 4000 * w_c)
        counts = _sigma1_rank_counts(w, w_c, budget, root.child("sigma1"))
        conditioned = int(sum(counts))
        # the chi-square needs a sane expected count per capped slot
        if conditioned >= 10 * w_c:
            p = chi_square_uniform(counts)
            failure = f"conditional sigma(1) chi-square p={p:.2e}"
        else:
            p = float("nan")
            failure = (
                f"conditional sigma(1) uniformity not judged: {conditioned} conditioned draws, "
                f"need {10 * w_c}; raise sigma1_trials"
            )
        verdicts.uniform("sigma1_uniform_pvalue", p, conditioned, failure)

    if tail_blocks is not None:
        hits = _active_count_tail(w, tail_blocks, _TAIL_DRAWS, root.child("tail"))
        verdicts.params = _params(w=w, blocks=tail_blocks)
        verdicts.floor(
            "tail_prob", hits, _TAIL_DRAWS, 1 - 1 / w**2, "active-count tail frequency below 1 - 1/w^2"
        )

    return verdicts.result()


def _sigma1_rank_counts(w: int, w_c: int, trials: int, seed: Seed) -> list[int]:
    """Counts of sigma(1)'s rank within the capped clean set, given active.

    Simulates the index-clean indicators directly (iid, probability 1/64 per
    index) and an independent uniform image; restricts to draws whose clean
    set has at least w_c members so every capped slot exists.  Each chunk
    draws its indicators as ``integers(0, 64, dtype=np.uint8) == 0``, which is
    ``byte < 4`` of the generator's own bytes, then its images with
    ``integers(0, w)``: the images are drawn past the skipped indicators
    (``skip_bytes``), then the indicators are replayed in blocks of whole
    words (``replay_bytes``).  Only the rows whose sigma(1) index is clean,
    about one in 64, are counted and ranked.
    """
    gen = seed.generator()
    counts = np.zeros(w_c, dtype=np.int64)
    chunk = max(1, min(trials, _SIGMA1_CHUNK // w))
    block = 4 * max(1, _BATCH_ELEMENTS // (4 * w))  # rows
    for start in range(0, trials, chunk):
        size = min(chunk, trials - start)
        indicators = copy.deepcopy(gen)  # gen goes on past them to the images
        skip_bytes(gen, size * w)
        images = gen.integers(0, w, size=size)
        kept, active = [], []
        for head in range(0, size, block):
            draws = replay_bytes(indicators, min(block, size - head) * w).reshape(-1, w)
            hit = np.flatnonzero(draws[np.arange(len(draws)), images[head : head + block]] < 4)
            kept.append(draws[hit])
            active.append(head + hit)
        mask, sigma1 = np.concatenate(kept) < 4, images[np.concatenate(active)]
        capped = np.count_nonzero(mask, axis=1) >= w_c
        mask, sigma1 = mask[capped], sigma1[capped]
        # 0-based rank of sigma(1) among its row's clean indices
        rank = np.count_nonzero(mask & (np.arange(w) < sigma1[:, None]), axis=1)
        counts += np.bincount(rank[rank < w_c], minlength=w_c)
    return counts.tolist()


# draws of the active-block count behind the tail row
_TAIL_DRAWS = 2000


def _active_count_tail(w: int, blocks: int, trials: int, seed: Seed) -> int:
    """How often the active-block count reaches ln(w), out of `trials` draws."""
    gen = seed.generator()
    p = float(capped_activity_probability(w))
    t_a = gen.binomial(blocks, p, size=trials)
    return int(np.count_nonzero(t_a >= math.log(w)))


# --- reduction checks -------------------------------------------------------------


def reduce_check_suite(
    m: int,
    t: int,
    trials: int,
    seed: Seed | int | None = None,
    tvd_samples: int = 0,
    s: int | None = None,
) -> SuiteResult:
    """Re-run the narrow-to-wide embedding and verify its forwarding claim.

    Per trial: draw a uniform width-(m+1) witness, embed it at a random target
    group, and check that the embedded group's crossing parity equals the
    narrow witness's group-1 parity.  The check must hold in every run.  With
    ``s`` set the segment-form embedding over an s x t grid is used instead.

    With ``tvd_samples`` > 0 (block form, m=1 only), also estimates the total
    variation distance between the embedding's output witness and its exact
    law, the even hybrid mixture, which at m=1 is uniform over all width-2
    witnesses.
    """
    _check_trials(m=m, t=t, trials=trials, **({} if s is None else {"s": s}))
    if tvd_samples < 0:
        raise ValueError(f"need tvd_samples >= 0, got tvd_samples={tvd_samples}")
    if tvd_samples > 0 and (m != 1 or s is not None):
        raise ValueError("the marginal TVD row needs block form with m=1")
    if tvd_samples > 0 and t > 4:  # the exact support enumeration's size
        raise ValueError(f"the marginal TVD row needs t <= 4, got t={t}")
    k = 3 * t + 1 if s is None else (2 * t + 1) * s + 1
    ngc_shape(4 * m * k, k)  # the embedded instance's 2m groups on k layers fit MAX_VERTICES
    root = as_seed(seed)
    rng = root.child("claim").rng()
    verdicts = _Verdicts("reduce-check", _params(m=m, t=t, s=s), root)

    ok = 0
    for _ in range(trials):
        h_star = rng.randrange(1, m + 1)
        if s is None:
            narrow = uniform_witness("block", m + 1, 1, t, rng.getrandbits(63))
            _, record = embed_dhx(narrow, h_star, m, rng.getrandbits(63), build_graph=False)
        else:
            narrow = uniform_witness("segment", m + 1, s, t, rng.getrandbits(63))
            _, record = embed_dhx_batched(
                narrow, h_star, m, s, t, rng.getrandbits(63), build_graph=False
            )
        ok += record.witness.parity(h_star) == narrow.parity(1)
    verdicts.row("claim_holds", f"{ok}/{trials}", trials)
    if ok != trials:
        verdicts.fail(f"forwarding claim failed in {trials - ok} runs")

    if tvd_samples > 0:
        dist = _embedding_marginal_tvd(t, tvd_samples, root.child("tvd"))
        verdicts.row("marginal_tvd", dist, tvd_samples)
        if dist >= 0.02:
            verdicts.fail(f"embedding output TVD {dist:.4f} >= 0.02")

    return verdicts.result()


def _embedding_marginal_tvd(t: int, samples: int, seed: Seed) -> float:
    """TVD between embedded-witness draws (m=1) and the uniform width-2 law.

    A width-2 block witness is its t gadgets' (sigma(1), x_1, x_2), so each
    draw is tallied as the code 8 code + 4 (sigma(1) - 1) + 2 x_1 + x_2 over
    its gadgets, one of 8^t cells; the distance is summed exactly.
    """
    rng = seed.rng()
    counts = [0] * 8**t
    for _ in range(samples):
        narrow = uniform_witness("block", 2, 1, t, rng.getrandbits(63))
        _, record = embed_dhx(narrow, 1, 1, rng.getrandbits(63), build_graph=False)
        code = 0
        for x, sigma in zip(record.witness.X, record.witness.Sigma):
            code = 8 * code + 4 * (sigma[0] - 1) + 2 * x[0] + x[1]
        counts[code] += 1
    uniform = Fraction(1, len(counts))
    return float(sum(abs(Fraction(c, samples) - uniform) for c in counts)) / 2


# --- streaming runs ---------------------------------------------------------------


def stream_run_suite(
    n: int,
    k: int,
    trials: int,
    seed: Seed | int | None = None,
) -> SuiteResult:
    """Exact census recovery and the count-based theta decision over uniform streams."""
    _check_trials(trials=trials)
    root = as_seed(seed)
    census_ok = 0
    decision_ok = 0
    for i in range(trials):
        child = root.child("run", i)
        inst = sample_ngc(n, k, child.child("inst"))
        stream = make_stream(inst, "uniform_random", seed=child.child("order"))
        census = exact_census(n, stream)
        census_ok += census == census_law(inst.k, inst.m, inst.theta)
        decision = CensusThetaDecision(n, k)
        state = decision.run(decision.init(), stream.events)
        decision_ok += decision.finalize(state) == inst.theta
    verdicts = _Verdicts("stream-run", _params(n=n, k=k, mode="uniform_random"), root)
    verdicts.exact("census_exact", census_ok, trials, "streamed census wrong in {misses} runs")
    verdicts.exact("decision_correct", decision_ok, trials, "count decision wrong in {misses} runs")
    return verdicts.result()


# the edges whose arrival order adapter_suite tallies, one count for each of
# their 5! = 120 interleavings
_ORDER_EDGES = 5


def adapter_suite(
    n: int,
    k: int,
    trials: int,
    order_trials: int = 10_000,
    seed: Seed | int | None = None,
) -> SuiteResult:
    """Streaming-to-protocol adapter checks.

    Row 1: the two-player adapter's output census equals the whole-graph
    census on every instance (exact).  Row 2: under a uniform split with both
    players shuffling their halves, the induced arrival order of five edges
    is uniform over all 5! interleavings (chi-square).
    """
    _check_trials(trials=trials, order_trials=order_trials)
    root = as_seed(seed)
    verdicts = _Verdicts("adapter", _params(n=n, k=k, edges=_ORDER_EDGES), root)

    match = 0
    for i in range(trials):
        child = root.child("match", i)
        inst = sample_ngc(n, k, child.child("inst"))
        assignment = assign_uniform(inst.edge_array, 2, child.child("assign"))
        adapter = StreamingProtocol(UnionFindCensusAlgorithm(n))
        streamed = _run_adapter(adapter, inst.edge_array, assignment, child.child("run"))
        match += streamed == census_of_edges(n, inst.edge_array)
    verdicts.exact("adapter_match", match, trials, "adapter census differed in {misses} runs")

    counts = _order_counts(order_trials, root.child("order"))
    p = chi_square_uniform(counts)
    verdicts.uniform("order_uniform_pvalue", p, order_trials, f"induced-order chi-square p={p:.2e}")
    return verdicts.result()


def _order_counts(order_trials: int, root: Seed) -> list[int]:
    """The 5! cell counts of the adapter's induced arrival order, in first-seen cell order.

    Order trial t draws two ``getrandbits(63)`` seeds from ``root``'s
    generator, a then b.  Edge i of the five is Alice's when draw i of
    ``assign_uniform`` on a, ``randrange(2)``, is 0.  Alice streams her edges
    (in edge order) shuffled on b's ``alice-shuffle`` child, then Bob his on
    ``bob-shuffle``: the ``StreamingProtocol`` run's order.  A batch of trials
    reads the owner bits off the a keys' streams (``randrange_rows``), then
    each player's shuffle off the b keys' (``shuffle_rows``), grouped by the
    player's edge count, and tallies each order as a base-5 code.  Cells are
    numbered in the order the trials first reach them, so the chi-square sums
    them in the order one trial at a time would.
    """
    edges = _ORDER_EDGES
    rng = root.rng()
    # a shuffle's draws each accept a word at least as often as randrange(2)'s
    assign_words, shuffle_words = word_budget(2, edges), word_budget(2, edges - 1)
    per_trial = assign_words + 2 * shuffle_words
    cells: dict[int, int] = {}  # order code -> cell, numbered as first reached
    counts = [0] * math.factorial(edges)
    place = edges ** np.arange(edges - 1, -1, -1)
    for batch in _trial_batches(order_trials, per_trial):
        draws = [rng.getrandbits(63) for _ in range(2 * len(batch))]
        shared = draws[1::2]
        (assign,) = key_streams((master_keys(draws[0::2]), assign_words))
        owner = randrange_rows(assign, 2, edges)
        order = np.argsort(owner, axis=1, kind="stable")  # Alice's edges, then Bob's
        alice = np.count_nonzero(owner == ALICE, axis=1)
        shuffles, groups = [], []  # per side and size: (trials, first column, size), (keys, words)
        for label, held in (("alice-shuffle", alice), ("bob-shuffle", edges - alice)):
            for size in range(2, edges + 1):
                rows = np.flatnonzero(held == size)
                shuffles.append((rows, 0 if label == "alice-shuffle" else edges - size, size))
                keys = master_keys([shared[r] for r in rows.tolist()], label)
                groups.append((keys, shuffle_words))
        for (rows, column, size), streams in zip(shuffles, key_streams(*groups)):
            part = order[rows, column : column + size]
            order[rows, column : column + size] = np.take_along_axis(
                part, shuffle_rows(streams, size), axis=1
            )
        codes, first, hits = np.unique(order @ place, return_index=True, return_counts=True)
        seen = np.argsort(first)
        for code, hit in zip(codes[seen].tolist(), hits[seen].tolist()):
            counts[cells.setdefault(code, len(cells))] += hit
    return counts


def _run_adapter(adapter, edges, assignment, seed):
    """Drive a streaming adapter across a two-player cut, returning Bob's value."""
    shared = as_seed(seed)
    edges_a, edges_b = assignment.split(edges)
    message = adapter.alice(edges_a, shared)
    return adapter.bob(message, edges_b, shared)


def l_player_suite(
    n: int,
    k: int,
    s: int,
    t: int,
    l: int,
    trials: int,
    seed: Seed | int | None = None,
) -> SuiteResult:
    """Relay the census state through l players holding batched edge shares."""
    _check_trials(trials=trials)
    root = as_seed(seed)
    ok = 0
    hop_ok = 0
    for i in range(trials):
        child = root.child("relay", i)
        inst = sample_ngc_batched(n, k, s, t, child.child("inst"))
        assignment = assign_batches(inst, l, child.child("assign"))
        protocol = LPlayerStreamingProtocol(CensusThetaDecision(n, k), l)
        result = protocol.run(inst, assignment, seed=child.child("run"))
        ok += result.output == inst.theta
        hop_ok += len(result.hop_bits) == l - 1
    verdicts = _Verdicts("l-player", _params(n=n, k=k, s=s, t=t, l=l), root)
    verdicts.exact("relay_correct", ok, trials, "relay decision wrong in {misses} runs")
    verdicts.exact("relay_hops", hop_ok, trials, "relay hop count != l-1")
    return verdicts.result()


def estimator_suite(
    vertices: int,
    epsilon: float,
    r: int,
    trials: int,
    seed: Seed | int | None = None,
) -> SuiteResult:
    """Bounded-memory component-count estimation on a disjoint triangle union."""
    _check_trials(trials=trials)
    if vertices < 3:
        raise ValueError(f"need vertices >= 3, got vertices={vertices}")
    if vertices % 3:
        raise ValueError("vertices must be a multiple of 3")
    if vertices > MAX_VERTICES:
        raise ValueError(f"n={vertices} is past the vertex ceiling MAX_VERTICES={MAX_VERTICES}")
    root = as_seed(seed)
    corners = np.arange(0, vertices, 3)[:, None, None]
    edges = (corners + np.array([[0, 1], [1, 2], [0, 2]])).reshape(-1, 2)
    truth = vertices // 3
    ok = 0
    for i in range(trials):
        child = root.child("est", i)
        stream = stream_from_edges(vertices, edges, "uniform_random", seed=child.child("order"))
        result = cc_estimate(stream, epsilon, r, seed=child.child("seeds"))
        ok += abs(result.estimate - truth) <= epsilon * vertices
    verdicts = _Verdicts("estimator", _params(n=vertices, epsilon=epsilon, r=r), root)
    verdicts.least("estimate_within", ok, trials, 2 / 3, f"estimator success {ok}/{trials} below 2/3")
    return verdicts.result()


def estimator_budget_curve(
    n: int,
    k: int,
    epsilon: float,
    r_values: Iterable[int],
    trials: int,
    seed: Seed | int | None = None,
) -> SuiteResult:
    """Theta-distinguishing advantage of the bounded estimator versus budget.

    For each budget r, classify theta by thresholding the component estimate
    at 7n/8k and report the empirical advantage 2*Pr[correct]-1, alongside the
    exact-census baseline (advantage 1 by construction).  Reported as a curve;
    the suite never fails on the estimator's accuracy.
    """
    _check_trials(trials=trials)
    root = as_seed(seed)
    verdicts = _Verdicts("estimator-curve", "", root)
    for r in r_values:
        correct = 0
        for i in range(trials):
            child = root.child("curve", r, i)
            inst = sample_ngc(n, k, child.child("inst"))
            stream = make_stream(inst, "uniform_random", seed=child.child("order"))
            est = cc_estimate(stream, epsilon, r, seed=child.child("seeds")).estimate
            guess = theta_from_components(n, k, est)
            correct += guess == inst.theta
        lo, hi = clopper_pearson(correct, trials)
        verdicts.params = _params(n=n, k=k, epsilon=epsilon, r=r)
        verdicts.row("advantage", 2 * correct / trials - 1, trials, (2 * lo - 1, 2 * hi - 1))
    verdicts.params = _params(n=n, k=k)
    verdicts.row("exact_census_advantage", 1.0, trials)
    return verdicts.result()


def bob_only_suite(
    n: int, k: int, trials: int, seed: Seed | int | None = None
) -> SuiteResult:
    """Zero-communication detection: Bob alone looks for a surviving long cycle."""
    _check_trials(trials=trials)
    root = as_seed(seed)
    ok = 0
    for i in range(trials):
        child = root.child("bob", i)
        inst = sample_ngc(n, k, child.child("inst"))
        assignment = assign_uniform(inst.edge_array, 2, child.child("assign"))
        result = run_protocol(BobOnlyCycleDetector(n, k), inst, assignment, seed=child.child("run"))
        ok += result.output == inst.theta
    verdicts = _Verdicts("bob-only", _params(n=n, k=k), root)
    verdicts.least(
        "success_rate", ok, trials, 0.6, f"one-sided detector success {ok}/{trials} below 0.6"
    )
    return verdicts.result()


# --- stochastic model -------------------------------------------------------------


def _stochastic_counts(c: float, trials: int, w: int, root: Seed) -> tuple[int, int, int]:
    """(absent, alice-only, clean) counts over stochastic trials on one instance.

    The instance of width w comes from ``inst``; trial i draws both players'
    samples from ``draw/i`` (``stochastic_picks``, Alice's half first), a
    batch of trials' streams at once.  Absence is read at the probe edge (core
    edge 0), cleanness at index 1 of the block; the counting runs once per
    batch on (trials, 2, S) arrays of sampled core positions.
    """
    inst = sample_ngc(4 * 4 * (w // 2), 4, root.child("inst"))
    ends = inst.edge_array
    count = sample_size(c, len(ends))
    columns = core_columns(inst, ends)
    probe = columns[0]  # a core edge's column is its lower end
    positions = len(inst.core_targets)
    table = inst.index_table[:1, :1]
    absent = a_only = clean = 0
    draws = root.child("draw")
    words = word_budget(len(ends), 2 * count)
    for batch in _trial_batches(trials, 2 * count + 2 * positions):
        (streams,) = key_streams((draws.keys(batch), words))
        drawn = columns[stochastic_picks(streams, len(ends), c)]
        counts = seen_counts(drawn, positions)
        seen_a, seen_b = counts[:, 0, probe] > 0, counts[:, 1, probe] > 0
        absent += int(np.count_nonzero(~seen_b))
        a_only += int(np.count_nonzero(seen_a & ~seen_b))
        clean += int(np.count_nonzero(clean_masks(stochastic_owners(counts), table, 1)[0]))
    return absent, a_only, clean


def stochastic_stats_suite(
    c: float,
    trials: int,
    seed: Seed | int | None = None,
    w: int = 16,
) -> SuiteResult:
    """Sampling-model absence and cleanness frequencies against their floors.

    Fixed instance of width w (k=4); per trial both players draw their
    ceil(c|E|/2) edge samples afresh from the trial's own seed path, and the
    samples are counted in batches of trials.  Checks, one-sided at 3 sigma:
    Pr[fixed edge unseen by the second player] >= e^{-c}, Pr[seen by the first
    player only] >= e^{-3c/2}, and Pr[a fixed index is clean] >= e^{-9c}.
    """
    _check_width_and_trials(w, trials)
    if not 0 < c < math.inf:
        raise ValueError(f"the bounds need a finite c > 0, got c={c}")
    root = as_seed(seed)
    verdicts = _Verdicts("stochastic-stats", _params(c=c, w=w), root)
    absent, a_only, clean = _stochastic_counts(c, trials, w, root)
    for metric, count, floor in (
        ("absent_prob", absent, math.exp(-c)),
        ("alice_only_prob", a_only, math.exp(-1.5 * c)),
        ("clean_prob", clean, math.exp(-9 * c)),
    ):
        verdicts.floor(
            metric, count, trials, floor, f"{metric} {count / trials:.3e} below floor {floor:.3e}"
        )
    return verdicts.result()


# --- walk-based detection ---------------------------------------------------------


def walk_cover_suite(
    k: int,
    walks: int,
    trials: int,
    seed: Seed | int | None = None,
    m: int = 8,
) -> SuiteResult:
    """Classify theta from length-2k random walks and measure cycle coverage.

    Per instance, `walks` walks of 2k steps start at independent uniform
    vertices; a walk certifies a cycle length when it covers its component.
    The instance is classified by the certified length (k-cycles mean theta 0,
    2k-cycles theta 1); rows report the classification rate and the pooled
    coverage frequency of cycle-started walks on theta=1 instances, checked
    against the 4^{-k} floor.

    Cycle-started walks are simulated as +/-1 increment sequences, exactly the
    walk law on a cycle (see the module docstring).
    """
    _check_trials(trials=trials, walks=walks, m=m)
    if 2 * m > MAX_WIDTH:
        raise ValueError(f"m={m} is past the width ceiling: 2m > {MAX_WIDTH}")
    if 2 * k >= 1 << 15:
        raise ValueError(f"walk positions are int16: need 2k < 2^15, got 2k={2 * k}")
    root = as_seed(seed)
    # the rows still name the simulated route, so that their bytes are those
    # recorded while a real-walk route could be selected
    verdicts = _Verdicts("walk-cover", _params(k=k, walks=walks, m=m, method="fast"), root)
    n = 4 * k * m
    correct = 0
    cyc_walks = 0
    cyc_hits = 0
    for i in range(trials):
        child = root.child("walks", i)
        inst = sample_ngc(n, k, child.child("inst"))
        length = k if inst.theta == 0 else 2 * k
        on_cycle, hits = _fast_walk_coverage(walks, length, 2 * k, child.child("sim"))
        if inst.theta == 1:
            cyc_walks += on_cycle
            cyc_hits += hits
        correct += hits > 0  # a covering walk certifies the instance's own cycle length
    failure = f"walk classification {correct}/{trials} below 2/3"
    verdicts.least("classify_correct", correct, trials, 2 / 3, failure, interval=False)
    if cyc_walks:
        failure = f"cycle coverage {cyc_hits / cyc_walks:.2e} below 4^-k floor"
        verdicts.floor("coverage_rate", cyc_hits, cyc_walks, 4.0 ** (-k), failure)
    return verdicts.result()


def _byte_walk_table(steps: int) -> np.ndarray:
    """(3, 256) int16: net, lowest and highest position of the walk a byte code spells.

    Bit 7 of the code is the first step, a set bit +1 and a clear one -1, and
    only the first ``steps`` bits count; the extremes include the start, 0.
    """
    bits = (np.arange(256)[:, None] >> np.arange(7, 7 - steps, -1)) & 1
    pos = np.cumsum(2 * bits - 1, axis=1)
    table = [pos[:, -1], np.minimum(pos.min(axis=1), 0), np.maximum(pos.max(axis=1), 0)]
    return np.stack(table).astype(np.int16)


# a byte code of 1..8 walk steps -> its (net, lowest, highest) position
_BYTE_WALKS = {steps: _byte_walk_table(steps) for steps in range(1, 9)}


def _fast_walk_coverage(walks: int, length: int, steps: int, seed: Seed) -> tuple[int, int]:
    """(cycle-started walk count, covering walk count) via increment simulation.

    Each chunk of walks draws its +/-1 steps as ``integers(0, 2, dtype=np.int8)``,
    the top bit of one byte per step (``replay_bytes``); a chunk of a multiple
    of four walks reads whole words, so the chunks read the bytes of one draw.  A
    walk's bits pack into ceil(steps/8) byte codes, and folding the codes'
    (net, lowest, highest) positions left to right gives the walk's range.
    """
    gen = seed.generator()
    on_cycle = int(gen.binomial(walks, 0.5))  # exactly half the vertices sit on cycles
    codes_per_walk = -(-steps // 8)
    chunk = 4 * max(1, _BATCH_ELEMENTS // (4 * steps))
    hits = 0
    for start in range(0, on_cycle, chunk):
        size = min(chunk, on_cycle - start)
        draws = replay_bytes(gen, size * steps).reshape(size, steps)
        bits = np.zeros((size, 8 * codes_per_walk), dtype=bool)
        np.greater_equal(draws, 128, out=bits[:, :steps])
        codes = np.packbits(bits).reshape(size, codes_per_walk)
        pos, lo, hi = np.take(_BYTE_WALKS[min(8, steps)], codes[:, 0], axis=1)
        for j in range(1, codes_per_walk):
            net, low, high = np.take(_BYTE_WALKS[min(8, steps - 8 * j)], codes[:, j], axis=1)
            lo, hi, pos = np.minimum(lo, pos + low), np.maximum(hi, pos + high), pos + net
        hits += int(np.count_nonzero(hi - lo + 1 >= length))
    return on_cycle, hits


# --- bias scan --------------------------------------------------------------------

# the largest support bias-scan draws is 2**MAX_LOG_A members, each held as a
# Python int in a list and a set
MAX_LOG_A = 20


def bias_scan_suite(
    m: int,
    log_a: int,
    k: int,
    trials: int,
    seed: Seed | int | None = None,
) -> SuiteResult:
    """Mean squared subset bias of a random support versus the spectral bound.

    Draws a uniform size-2^log_a subset of the m-cube, estimates the mean
    squared bias over size-k coordinate subsets, and reports it next to
    ((m - log|A|)/m)^k.  Fails only if the ratio is non-finite.
    """
    if not 1 <= m <= MAX_WORD_BITS:
        raise ValueError(f"need 1 <= m <= {MAX_WORD_BITS}, got m={m}")
    if not 0 <= log_a <= m:
        raise ValueError(f"need 0 <= logA <= m, got logA={log_a} m={m}")
    if log_a > MAX_LOG_A:
        raise ValueError(f"logA={log_a} asks for a support past 2**{MAX_LOG_A} members")
    if not 1 <= k <= m:
        raise ValueError(f"need 1 <= k <= m, got k={k} m={m}")
    root = as_seed(seed)
    rng = root.child("support").rng()
    members = frozenset(rng.sample(range(2**m), 2**log_a))
    support = SupportSet(m, members)
    if math.comb(m, k) <= 2000:
        value = float(mean_bias_sq(support, k, mode="exact"))
        used = math.comb(m, k)
    else:
        value = float(
            mean_bias_sq(support, k, mode="sampled", trials=trials, seed=root.child("subsets"))
        )
        used = trials
    rhs = kkl_rhs(m, len(support), k)
    ratio = value / rhs if rhs > 0 else float("inf")
    verdicts = _Verdicts("bias-scan", _params(m=m, logA=log_a, k=k), root)
    verdicts.row("mean_bias_sq", value, used)
    verdicts.row("spectral_rhs", rhs, used)
    verdicts.row("ratio", ratio, used)
    if not math.isfinite(ratio):
        verdicts.fail("bias ratio is not finite (rhs vanished)")
    return verdicts.result()


# --- combinatorial sizes ----------------------------------------------------------


def combinatorial_suite(
    n: int,
    k: int,
    trials: int,
    seed: Seed | int | None = None,
) -> SuiteResult:
    """Maximum matching and independent set sizes against the component law.

    On a disjoint union of cycles and paths both quantities decompose per
    component (floor(v/2) matching everywhere; floor(v/2) on cycles and
    ceil(v/2) on paths for the independent set), so the theta-conditioned law
    pins both numbers exactly.
    """
    _check_trials(trials=trials)
    root = as_seed(seed)
    laws = {theta: census_law(k, n // (4 * k), theta) for theta in (0, 1)}
    match_ok = 0
    mis_ok = 0
    for i in range(trials):
        inst = sample_ngc(n, k, root.child("comb", i))
        edges = inst.all_edges()
        law = laws[inst.theta]
        match_ok += matching_size_exact(n, edges) == census_matching_size(law)
        mis_ok += mis_size_exact(n, edges) == census_mis_size(law)
    verdicts = _Verdicts("combinatorial", _params(n=n, k=k), root)
    verdicts.exact("matching_exact", match_ok, trials, "matching size off the law in {misses} runs")
    verdicts.exact("mis_exact", mis_ok, trials, "independent-set size off the law in {misses} runs")
    return verdicts.result()


# --- MST / weighted checks --------------------------------------------------------


def mst_suite(
    n: int,
    k: int,
    weight: int,
    trials: int,
    seed: Seed | int | None = None,
) -> SuiteResult:
    """Weighted-augmentation separation: MST weight n-1 vs >= n-m+W(m-1)."""
    _check_trials(trials=trials)
    root = as_seed(seed)
    ok = 0
    for i in range(trials):
        child = root.child("mst", i)
        inst = mst_augment(sample_ngc(n, k, child), weight)
        weighted = [(u, v, w) for (u, v), w in zip(inst.all_edges(), inst.edge_weights.tolist())]
        result = mst_weight_exact(weighted, n)
        m = inst.m
        if inst.theta == 1:
            ok += result.spanning and result.weight == n - 1
        else:
            ok += result.spanning and result.weight >= n - m + weight * (m - 1)
    verdicts = _Verdicts("mst", _params(n=n, k=k, W=weight), root)
    verdicts.exact("mst_separates", ok, trials, "MST separation failed in {misses} runs")
    return verdicts.result()
