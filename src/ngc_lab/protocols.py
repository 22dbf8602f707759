"""One-way protocols, the witness-space embedding, and distinguishing metrics.

The centrepiece is the embedding that turns a crossing-parity query on a
width-(m+1) gadget stack into a full-width hard instance whose group h* carries
exactly that parity, while every other group's parity is pinned to the hybrid
interpolation targets.  Around it: a two-player one-way protocol harness with
exact bit accounting, adapters that lift any serializable streaming algorithm
to a (sequential, multi-player) protocol, total-variation utilities, and the
hybrid advantage scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

import numpy as np

from .distributions import (
    NgcInstance,
    Witness,
    as_edge_array,
    census_of_edges,
    crossing_parity,
    sample_hybrid,
)
from .gadgets import Edge, GroupLayeredGraph
from .partitions import EdgeAssignment, assign_uniform
from .seeds import Seed, as_seed, randrange_many, sample_range, shuffle_order
from .stats import clopper_pearson
from .streaming import (
    EventView,
    StreamingAlgorithm,
    batch_order,
    pack_edges,
    theta_from_components,
    unpack_edges,
)

# --- embedding -----------------------------------------------------------------


@dataclass(frozen=True)
class EmbeddingRecord:
    """How a narrow witness was planted into a full-width one.

    maps[g] is the lexicographic bijection used for gadget g (flat row-major
    order for segment grids): position r (1-based) of the narrow witness lands
    on wide index maps[g][r-1].  The complement of each map's range is exactly
    the image of the pre-sampled columns.
    """

    h_star: int
    maps: tuple[tuple[int, ...], ...]
    witness: Witness
    source: Witness


def _embed(
    narrow: Witness,
    h_star: int,
    m: int,
    t: int,
    seed: Seed | int | None,
    build_graph: bool,
) -> tuple[GroupLayeredGraph | None, EmbeddingRecord]:
    """Shared embedding core over the narrow witness's row-major gadgets.

    Pre-samples the columns of groups [m] \\ {h_star} (uniform distinct images,
    bit parities forced to 0 below h_star and 1 above via the last gadget),
    then maps the narrow witness onto the remaining m+1 indices per gadget.
    """
    gadgets = narrow.gadgets
    width = len(gadgets[0][1])
    if width != m + 1:
        raise ValueError(f"witness width {width} != m+1 = {m + 1}")
    if not 1 <= h_star <= m:
        raise ValueError(f"h_star={h_star} outside [1, {m}]")
    wide = 2 * m
    count = len(gadgets)
    free = [j for j in range(1, m + 1) if j != h_star]
    # sigma slot of narrow group r + 1: h_star first, then groups m+1 .. 2m
    slots = [h_star - 1, *range(m, wide)]
    everything = tuple(range(1, wide + 1))

    # images[g][i] is gadget g's pre-sampled image of group free[i] and
    # bits[g][i] the cross bit there; the last gadget's bits force the parities
    images: list[list[int]] = [[]] * count
    bits: list[list[int]] = [[]] * count
    if free:  # at m=1 nothing is pre-sampled, so no generator is derived
        rng = as_seed(seed).rng()
        images = [sample_range(rng, wide, m - 1) for _ in range(count)]
        flat = randrange_many(rng, 2, (count - 1) * (m - 1))
        bits = [flat[g * (m - 1) : (g + 1) * (m - 1)] for g in range(count - 1)]
        bits.append([int(j > h_star) ^ (sum(flat[i :: m - 1]) & 1) for i, j in enumerate(free)])
        columns = set(everything)

    maps, sigmas, xs = [], [], []
    for (y, phi), image, bit in zip(gadgets, images, bits):
        sigma = [0] * wide
        x = [0] * wide
        f = everything
        if image:
            f = tuple(sorted(columns.difference(image)))
            for j, v, b in zip(free, image, bit):
                sigma[j - 1] = v
                x[v - 1] = b
        for slot, r in zip(slots, phi):
            sigma[slot] = f[r - 1]
        for v, b in zip(f, y):
            x[v - 1] = b
        maps.append(f)
        sigmas.append(tuple(sigma))
        xs.append(tuple(x))
    if crossing_parity(zip(xs, sigmas), h_star) != crossing_parity(gadgets, 1):
        raise RuntimeError("embedding lost the planted parity")

    assembled = Witness.from_gadgets(narrow.form, xs, sigmas, t)
    record = EmbeddingRecord(h_star, tuple(maps), assembled, narrow)
    return (assembled.build() if build_graph else None), record


def embed_dhx(
    dhx_witness: Witness,
    h_star: int,
    m: int,
    seed: Seed | int | None = None,
    build_graph: bool = True,
) -> tuple[GroupLayeredGraph | None, EmbeddingRecord]:
    """Plant a width-(m+1) block witness as group h_star of a width-2m instance.

    The embedded graph's group-h_star crossing parity equals the narrow
    witness's group-1 parity on every run; for uniform narrow inputs the
    output is distributed exactly as the even mixture of the two hybrids
    adjacent at h_star.
    """
    if dhx_witness.form != "block":
        raise ValueError("expected a block-form witness")
    return _embed(dhx_witness, h_star, m, len(dhx_witness.X), seed, build_graph)


def embed_dhx_batched(
    dhx_witness: Witness,
    h_star: int,
    m: int,
    s: int,
    t: int,
    seed: Seed | int | None = None,
    build_graph: bool = True,
) -> tuple[GroupLayeredGraph | None, EmbeddingRecord]:
    """Segment-form analogue of embed_dhx over an s x t gadget grid."""
    if dhx_witness.form != "segment":
        raise ValueError("expected a segment-form witness")
    if len(dhx_witness.Sigma) != s or any(len(row) != t for row in dhx_witness.Sigma):
        raise ValueError(f"witness grid is not {s} x {t}")
    return _embed(dhx_witness, h_star, m, t, seed, build_graph)


# --- one-way protocol harness ----------------------------------------------------


class BudgetExceededError(RuntimeError):
    """The protocol's message overran its own declared budget."""


class OneWayProtocol:
    """Alice sees her edges, sends one message, Bob answers with one bit.

    Each player's edges come as an (E, 2) int array (``run_protocol`` passes
    the split's arrays); the protocols here also accept a list of pairs.
    message_budget is a hard cap in bits (None = uncapped); messages are byte
    strings, accounted at 8 bits per byte, with b"" costing zero.
    """

    message_budget: int | None = None

    def alice(self, edges: np.ndarray, shared: Seed) -> bytes:
        raise NotImplementedError

    def bob(self, message: bytes, edges: np.ndarray, shared: Seed):
        raise NotImplementedError


@dataclass(frozen=True)
class ProtocolResult:
    output: int
    message_bits: int


def run_protocol(
    protocol: OneWayProtocol,
    instance: NgcInstance,
    assignment: EdgeAssignment,
    seed: Seed | int | None = None,
) -> ProtocolResult:
    """Split the edges per the assignment, run Alice then Bob, meter the bits."""
    if assignment.mode != "two_player":
        raise ValueError("run_protocol needs a two-player assignment")
    shared = as_seed(seed)
    edges_a, edges_b = assignment.split(instance.edge_array)
    message = protocol.alice(edges_a, shared)
    bits = 8 * len(message)
    budget = protocol.message_budget
    if budget is not None and bits > budget:
        raise BudgetExceededError(f"message is {bits} bits, budget {budget}")
    output = protocol.bob(message, edges_b, shared)
    if output not in (0, 1):
        raise ValueError(f"protocol output {output!r} is not a bit")
    return ProtocolResult(output=output, message_bits=bits)


class ConstantProtocol(OneWayProtocol):
    """Ignores the input; useful as the no-information baseline."""

    message_budget = 0

    def __init__(self, bit: int) -> None:
        self.bit = bit

    def alice(self, edges: np.ndarray, shared: Seed) -> bytes:
        return b""

    def bob(self, message: bytes, edges: np.ndarray, shared: Seed) -> int:
        return self.bit


class FullForwardCensusProtocol(OneWayProtocol):
    """Alice forwards her edges verbatim; Bob runs the exact census decision.

    Message cost is the whole of E_A — the trivial upper bound the
    communication-bounded regime is measured against.
    """

    def __init__(self, n: int, k: int) -> None:
        self.n = n
        self.k = k

    def alice(self, edges: np.ndarray, shared: Seed) -> bytes:
        return pack_edges(edges)

    def bob(self, message: bytes, edges: np.ndarray, shared: Seed) -> int:
        seen = np.concatenate([unpack_edges(message), as_edge_array(edges)])
        census = census_of_edges(self.n, seen)
        return theta_from_components(self.n, self.k, census.components)


class BobOnlyCycleDetector(OneWayProtocol):
    """Zero-communication detector: Bob looks for a whole short-side cycle.

    A length-2k cycle survives into Bob's half with probability 2^-2k, and
    there are n/4k of them when theta=1; when theta=0 there are none, so a
    sighting is one-sided evidence.  For 2k < log2(n)/3 the expected number
    of surviving cycles keeps the success rate bounded away from 1/2.
    """

    message_budget = 0

    def __init__(self, n: int, k: int) -> None:
        self.n = n
        self.k = k

    def alice(self, edges: np.ndarray, shared: Seed) -> bytes:
        return b""

    def bob(self, message: bytes, edges: np.ndarray, shared: Seed) -> int:
        census = census_of_edges(self.n, edges)
        return 1 if census.count_cycles(2 * self.k) > 0 else 0


class TraceParityProtocol(OneWayProtocol):
    """Alice forwards everything; Bob traces one group's crossing parity.

    Reads the parity of group `group` exactly, so it distinguishes the two
    hybrids adjacent at that group perfectly — the information-theoretic
    ceiling the communication-bounded protocols are compared against.
    """

    def __init__(self, width: int, depth: int, group: int) -> None:
        self.width = width
        self.depth = depth
        self.group = group

    def alice(self, edges: np.ndarray, shared: Seed) -> bytes:
        return pack_edges(edges)

    def bob(self, message: bytes, edges: np.ndarray, shared: Seed) -> int:
        seen = np.concatenate([unpack_edges(message), as_edge_array(edges)])
        neighbours: dict[int, list[int]] = {}
        for u, v in seen.tolist():
            neighbours.setdefault(u, []).append(v)
            neighbours.setdefault(v, []).append(u)
        span = 2 * self.width
        current = 2 * (self.group - 1)  # layer 1, side a
        for layer in range(1, self.depth):
            nxt = [v for v in neighbours.get(current, ()) if v // span == layer]
            if len(nxt) != 1:
                raise ValueError("edge set does not trace a layered path")
            current = nxt[0]
        return current % 2


# --- streaming adapters -----------------------------------------------------------


class OrderProbe(StreamingAlgorithm):
    """Records arrival order; instrument for verifying stream/adapter laws."""

    def init(self) -> tuple[Edge, ...]:
        return ()

    def process(self, state, event):
        return state + (event[0],)

    def serialize(self, state) -> bytes:
        return pack_edges(state)

    def deserialize(self, blob: bytes):
        return tuple(map(tuple, unpack_edges(blob).tolist()))

    def finalize(self, state):
        return state


class StreamingProtocol(OneWayProtocol):
    """One-way protocol that runs a streaming algorithm across the cut.

    Alice streams her edges in a fresh uniform order and ships the serialized
    state; Bob resumes on his own uniformly shuffled edges and finalizes.
    Under a uniform edge assignment the composed order is a uniformly random
    order of the whole edge set.  Each order is ``shuffle_order`` of the
    player's edge count, the permutation ``rng.shuffle`` would apply.
    """

    def __init__(self, algorithm: StreamingAlgorithm) -> None:
        self.algorithm = algorithm

    @staticmethod
    def _events(edges, shared: Seed, label: str) -> EventView:
        ends = as_edge_array(edges)
        return EventView(ends[shuffle_order(shared.child(label).rng(), len(ends))])

    def alice(self, edges: np.ndarray, shared: Seed) -> bytes:
        alg = self.algorithm
        state = alg.run(alg.init(), self._events(edges, shared, "alice-shuffle"))
        return alg.serialize(state)

    def bob(self, message: bytes, edges: np.ndarray, shared: Seed):
        alg = self.algorithm
        state = alg.run(alg.deserialize(message), self._events(edges, shared, "bob-shuffle"))
        return alg.finalize(state)


@dataclass(frozen=True)
class LProtocolResult:
    output: int
    hop_bits: tuple[int, ...]

    @property
    def max_bits(self) -> int:
        return max(self.hop_bits, default=0)


class LPlayerStreamingProtocol:
    """Sequential relay: players 1..l each stream their own batches.

    Player p shuffles the batches they own (batch order and order within each
    batch uniform, drawn as ``streaming.batch_order``), resumes the state
    received from player p-1 with one ``run`` over all of their events, and
    forwards it; the last player finalizes.  Each hop's serialized size is
    metered.
    """

    def __init__(self, algorithm: StreamingAlgorithm, l: int) -> None:
        if l < 1:
            raise ValueError("need at least one player")
        self.algorithm = algorithm
        self.l = l

    def run(
        self,
        instance: NgcInstance,
        assignment: EdgeAssignment,
        seed: Seed | int | None = None,
    ) -> LProtocolResult:
        if assignment.mode != "l_player" or assignment.batch_owners is None:
            raise ValueError("needs a batched l-player assignment")
        if assignment.players != self.l:
            raise ValueError(
                f"assignment has {assignment.players} players, protocol has {self.l}"
            )
        ends = instance.batched_edges
        if ends is None:
            raise ValueError("instance has no batches")
        shared = as_seed(seed)
        alg = self.algorithm
        owners = np.array(assignment.batch_owners, dtype=np.int64)
        edge_owners = np.repeat(owners, 2)
        state = alg.init()
        hop_bits = []
        for player in range(1, self.l + 1):
            rng = shared.child("player", player).rng()
            mine = ends[edge_owners == player]  # the owned batches, back to back
            order = batch_order(rng, int(np.count_nonzero(owners == player)))
            state = alg.run(state, EventView(mine[order]))
            if player < self.l:
                blob = alg.serialize(state)
                hop_bits.append(8 * len(blob))
                state = alg.deserialize(blob)
        output = alg.finalize(state)
        return LProtocolResult(output=output, hop_bits=tuple(hop_bits))


# --- distribution distance ---------------------------------------------------------


Distribution = dict


def _check_table(p: Distribution) -> None:
    total = sum(p.values())
    if abs(float(total) - 1.0) > 1e-12:
        raise ValueError(f"probabilities sum to {float(total)}, not 1")


def tvd(p: Distribution, q: Distribution) -> float:
    """Total variation distance 1/2 sum |p - q|; requires identical supports."""
    if set(p) != set(q):
        missing = set(p) ^ set(q)
        raise ValueError(f"support mismatch on {len(missing)} points")
    _check_table(p)
    _check_table(q)
    return float(sum(abs(Fraction(p[k]) - Fraction(q[k])) for k in p)) / 2


def advantage_from_tvd(distance: float) -> float:
    """Best achievable success probability distinguishing two laws: 1/2 + tvd/2."""
    return 0.5 + distance / 2


def empirical_table(samples: Iterable, support: Iterable | None = None) -> Distribution:
    """Frequency table with exact rational weights; optionally zero-filled."""
    counts: dict = {}
    total = 0
    for sample in samples:
        counts[sample] = counts.get(sample, 0) + 1
        total += 1
    if total == 0:
        raise ValueError("no samples")
    table = {key: Fraction(c, total) for key, c in counts.items()}
    if support is not None:
        support = set(support)
        stray = set(table) - support
        if stray:
            raise ValueError(f"{len(stray)} samples outside the declared support")
        for key in support - set(table):
            table[key] = Fraction(0)
    return table


# --- hybrid advantage scan -----------------------------------------------------------


@dataclass(frozen=True)
class AdvantageCell:
    h: int
    trials: int
    successes: int
    advantage: float
    ci_low: float
    ci_high: float


@dataclass(frozen=True)
class HybridScanReport:
    cells: tuple[AdvantageCell, ...]

    @property
    def best_h(self) -> int:
        return max(self.cells, key=lambda c: c.advantage).h


def pair_advantage(
    protocol: OneWayProtocol,
    m: int,
    t: int,
    h_one: int,
    h_zero: int,
    trials: int,
    seed: Seed | int | None = None,
    h_label: int = 0,
) -> AdvantageCell:
    """Advantage of the protocol's own output bit at telling two hybrids apart.

    Each trial draws a fair source bit b, samples the hybrid h_one (if b=1) or
    h_zero (if b=0), splits it uniformly, and scores output == b.  Advantage
    is 2*Pr[correct] - 1 with a Clopper-Pearson 95% interval; this lower-bounds
    the maximum-likelihood distinguishing advantage.
    """
    root = as_seed(seed)
    successes = 0
    for trial in range(trials):
        branch = root.child("trial", trial)
        rng = branch.child("coin").rng()
        b = rng.randrange(2)
        instance = sample_hybrid(m, t, h_one if b else h_zero, seed=branch.child("draw"))
        assignment = assign_uniform(instance.edge_array, 2, seed=branch.child("split"))
        result = run_protocol(protocol, instance, assignment, seed=branch.child("run"))
        successes += int(result.output == b)
    lo, hi = clopper_pearson(successes, trials)
    return AdvantageCell(
        h=h_label,
        trials=trials,
        successes=successes,
        advantage=2 * successes / trials - 1,
        ci_low=2 * lo - 1,
        ci_high=2 * hi - 1,
    )


def hybrid_scan(
    protocol: OneWayProtocol | Callable[[int], OneWayProtocol],
    m: int,
    t: int,
    trials: int,
    seed: Seed | int | None = None,
) -> HybridScanReport:
    """Per-step advantage profile over the hybrid chain.

    Step h tests hybrid h-1 (group h parity 1) against hybrid h (parity 0);
    summed over h the advantages telescope: they cannot all be small if the
    end-to-end pair is easy to tell apart.  `protocol` is either one protocol
    used at every step or a callable h -> protocol for step-aware probes.
    """
    root = as_seed(seed)
    cells = []
    for h in range(1, m + 1):
        probe = protocol(h) if callable(protocol) else protocol
        cells.append(
            pair_advantage(
                probe, m, t, h - 1, h, trials, seed=root.child("h", h), h_label=h
            )
        )
    return HybridScanReport(tuple(cells))
