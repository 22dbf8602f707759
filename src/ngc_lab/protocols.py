"""One-way protocols and the witness-space embedding.

The centrepiece is the embedding that turns a crossing-parity query on a
width-(m+1) gadget stack into a full-width hard instance whose group h* carries
exactly that parity, while every other group's parity is pinned to the hybrid
interpolation targets.  Around it: a two-player one-way protocol harness with
exact bit accounting, and adapters that lift any serializable streaming
algorithm to a (sequential, multi-player) protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .distributions import (
    NgcInstance,
    Witness,
    as_edge_array,
    census_of_edges,
    component_count,
    crossing_parity,
)
from .gadgets import GroupLayeredGraph
from .partitions import EdgeAssignment
from .seeds import Seed, as_seed, randrange_many, sample_range, shuffle_order
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


@lru_cache(maxsize=256)
def _layout(m: int, h_star: int) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Groups [m] \\ {h_star}, the slots of narrow groups 1..m+1 (h_star's, then m+1..2m), 1..2m."""
    free = tuple(j for j in range(1, m + 1) if j != h_star)
    return free, (h_star - 1, *range(m, 2 * m)), tuple(range(1, 2 * m + 1))


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
    Every gadget's x and sigma must have width m+1, checked in that pass.
    """
    if not 1 <= h_star <= m:
        raise ValueError(f"h_star={h_star} outside [1, {m}]")
    gadgets = narrow.gadgets
    count = len(gadgets)
    if not count:
        raise ValueError("the witness has no gadgets")
    wide = 2 * m
    free, slots, everything = _layout(m, h_star)

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
        if len(y) != m + 1 or len(phi) != m + 1:
            raise ValueError(f"gadget {len(maps)} of the witness is not of width m+1 = {m + 1}")
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
    record = object.__new__(EmbeddingRecord)  # no checks to skip: this saves __init__'s cost
    fields = record.__dict__
    fields["h_star"], fields["maps"] = h_star, tuple(maps)
    fields["witness"], fields["source"] = assembled, narrow
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


class FullForwardCensusProtocol(OneWayProtocol):
    """Alice forwards her edges verbatim; Bob decides from the exact component count.

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
        return theta_from_components(self.n, self.k, component_count(self.n, seen))


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


# --- streaming adapters -----------------------------------------------------------


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
