"""Stream simulators and reference streaming algorithms.

Streams are replayable event sequences ((u, v), None) in one of two orders:
as given, or uniformly shuffled.  A stream's events are an ``EventView``: the
ordered edges as one (E, 2) array, read as ((u, v), None) tuples only on
demand.  The shuffled order is an index array into the edge array, drawn with
``seeds.shuffle_order`` from exactly the words ``Random.shuffle`` would use.
The batched order (batches stay contiguous, the order of batches and of the
edges inside each batch uniform) is the l-player relay's, drawn with
``batch_order``; the stochastic model's with-replacement samples are
``partitions.stochastic_assign``'s.

Algorithms follow an explicit-state contract —
init/process/serialize/deserialize/finalize — so a one-way protocol can ship
the state across a cut; serialized size is the honest message cost.

The reference algorithms are exact oracles on the degree-<=2 instance family
(census, matching, independent set, MST) plus the truncated-exploration
connected-components estimator.
"""

from __future__ import annotations

import math
import struct
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable

import numpy as np

from .distributions import (
    Census,
    NgcInstance,
    as_edge_array,
    canon_keys,
    census_of_edges,
    component_count,
    component_pass,
    distinct_edges,
    distinct_keys,
    keys_to_edges,
)
from .gadgets import Edge
from .seeds import Seed, as_seed, randrange_array, shuffle_order

Event = tuple[Edge, None]


class EventView(Sequence):
    """A tuple of ((u, v), None) events held as an (E, 2) edge array.

    Reads like the tuple it stands for: ``len``, iteration and indexing give
    Python ints, slices are views, ``+`` concatenates, and it equals the tuple
    of its events.
    """

    __slots__ = ("edges",)

    def __init__(self, edges: np.ndarray) -> None:
        self.edges = edges

    def __len__(self) -> int:
        return len(self.edges)

    def __iter__(self):
        return zip(zip(self.edges[:, 0].tolist(), self.edges[:, 1].tolist()), repeat(None))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return EventView(self.edges[index])
        u, v = self.edges[index].tolist()
        return (u, v), None

    def __add__(self, other):
        if isinstance(other, EventView):
            return EventView(np.concatenate([self.edges, other.edges]))
        if isinstance(other, tuple):
            return tuple(self) + other
        return NotImplemented

    def __radd__(self, other):
        return other + tuple(self) if isinstance(other, tuple) else NotImplemented

    def __eq__(self, other) -> bool:
        if isinstance(other, EventView):
            return np.array_equal(self.edges, other.edges)
        if isinstance(other, tuple):
            return tuple(self) == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"EventView({len(self)} events)"


def event_edges(events: Iterable[Event]) -> np.ndarray:
    """The (E, 2) edge array of events: an ``EventView``'s own, else read off the tuples."""
    if isinstance(events, EventView):
        return events.edges
    return as_edge_array([edge for edge, _ in events])


@dataclass(frozen=True)
class Stream:
    n: int
    events: EventView | tuple[Event, ...]
    order_mode: str


def batch_order(rng, count: int) -> np.ndarray:
    """The stream order of ``count`` batches of two, as positions in their concatenation.

    It is the order ``rng.shuffle`` of the batch list, then of each batch in
    its new place, would leave the edges in, drawn from the same words:
    shuffling two items is one ``randbelow(2)``, which swaps them on 0.
    """
    batches = shuffle_order(rng, count)
    keep = randrange_array(rng, 2, count)
    return (2 * batches[:, None] + np.stack([1 - keep, keep], axis=1)).ravel()


def stream_from_edges(
    n: int,
    edges: list[Edge] | np.ndarray,
    mode: str,
    seed: Seed | int | None = None,
) -> Stream:
    """Build a stream over a raw edge list or (E, 2) array.

    mode: "given" keeps the edges' order and draws nothing; "uniform_random"
    applies the permutation ``Random.shuffle`` would.
    """
    ends = as_edge_array(edges)
    if mode == "uniform_random":
        ends = ends[shuffle_order(as_seed(seed).rng(), len(ends))]
    elif mode != "given":
        raise ValueError(f"unknown stream mode {mode!r}")
    return Stream(n=n, events=EventView(ends), order_mode=mode)


def make_stream(instance: NgcInstance, mode: str, seed: Seed | int | None = None) -> Stream:
    """Stream the instance's edges, ``edge_array``, in the requested order."""
    return stream_from_edges(instance.n, instance.edge_array, mode, seed=seed)


def exact_census(n: int, stream_or_edges: Stream | list[Edge] | np.ndarray) -> Census:
    """Exact census over all events; duplicate edges are idempotent."""
    if isinstance(stream_or_edges, Stream):
        edges = event_edges(stream_or_edges.events)
    else:
        edges = stream_or_edges
    return census_of_edges(n, distinct_edges(edges))


def theta_from_components(n: int, k: int, components: float) -> int:
    """The census decision rule: at least 7n/8k components means k-cycles.

    theta=0 gives n/k components (8n/8k scaled), theta=1 gives 3n/4k (6n/8k),
    so the 7n/8k threshold separates them exactly on genuine instances.
    """
    return 0 if 8 * k * components >= 7 * n else 1


def pack_edges(edges: Iterable[Edge] | np.ndarray) -> bytes:
    """Big-endian u32 edge count, then u32 (u, v) pairs in the given order.

    Ids outside [0, 2**32) raise OverflowError.
    """
    ends = as_edge_array(edges)
    if (ends >> 32).any():
        raise OverflowError("edge endpoint outside the u32 range")
    return struct.pack(">I", len(ends)) + ends.astype(">u4").tobytes()


def unpack_edges(blob: bytes) -> np.ndarray:
    """The (E, 2) int64 edges of a ``pack_edges`` message."""
    (count,) = struct.unpack_from(">I", blob, 0)
    flat = np.frombuffer(blob, dtype=">u4", count=2 * count, offset=4)
    return flat.astype(np.int64).reshape(-1, 2)


# --- streaming algorithm contract ---------------------------------------------


class StreamingAlgorithm:
    """Explicit-state single-pass algorithm; states are value-semantic.

    Subclasses hold only parameters, never state, so one factory instance can
    drive many concurrent runs.
    """

    def init(self):
        raise NotImplementedError

    def process(self, state, event: Event):
        raise NotImplementedError

    def serialize(self, state) -> bytes:
        raise NotImplementedError

    def deserialize(self, blob: bytes):
        raise NotImplementedError

    def finalize(self, state):
        raise NotImplementedError

    def run(self, state, events) -> object:
        """Fold ``process`` over the events.

        An override may fold in bulk, but it must return what this fold
        returns, from the same starting state.
        """
        for ev in events:
            state = self.process(state, ev)
        return state


class UnionFindCensusAlgorithm(StreamingAlgorithm):
    """Exact census: state is the deduplicated edge set (honest memory cost).

    A parent-array-only sketch cannot stay exact under duplicate edges, so the
    state is the edge set itself, held as the sorted distinct ``canon_keys``
    of the edges seen; serialization is the sorted packed list and its byte
    length is the real one-way message cost of being exact.
    """

    def __init__(self, n: int) -> None:
        self.n = n

    def init(self) -> np.ndarray:
        return np.empty(0, dtype=np.uint64)

    def process(self, state: np.ndarray, event: Event) -> np.ndarray:
        edge, _ = event
        return distinct_keys(np.concatenate([state, canon_keys([edge])]))

    def run(self, state: np.ndarray, events) -> np.ndarray:
        return distinct_keys(np.concatenate([state, canon_keys(event_edges(events))]))

    def serialize(self, state: np.ndarray) -> bytes:
        return pack_edges(keys_to_edges(state))

    def deserialize(self, blob: bytes) -> np.ndarray:
        return distinct_keys(canon_keys(unpack_edges(blob)))

    def finalize(self, state: np.ndarray) -> Census:
        return census_of_edges(self.n, keys_to_edges(state))


class CensusThetaDecision(UnionFindCensusAlgorithm):
    """Census decision rule (``theta_from_components``) on the exact component count.

    The state is the census algorithm's distinct edge set; the decision reads
    only its number of components (``component_count``), not the census.
    """

    def __init__(self, n: int, k: int) -> None:
        super().__init__(n)
        self.k = k

    def finalize(self, state: np.ndarray) -> int:
        return theta_from_components(self.n, self.k, component_count(self.n, keys_to_edges(state)))


# --- truncated-exploration connected components estimator -----------------------


@dataclass(frozen=True)
class CcEstimateResult:
    estimate: float
    r: int
    cap: int
    clean_seeds: int
    dirty_seeds: int
    state_bits: int


def cc_estimate(
    stream: Stream,
    epsilon: float,
    r: int,
    seed: Seed | int | None = None,
) -> CcEstimateResult:
    """Estimate component count as (n/r) * sum over clean seeds of 1/|C|.

    The truncated-exploration estimator (Chazelle, Rubinfeld and Trevisan,
    2005).  Each of r seed vertices (sampled with replacement) grows a set
    greedily over the stream: an arriving edge with exactly one endpoint
    inside is absorbed while the set is below the cap, ceil(2/epsilon)
    vertices, and the seed is dirty if, after the stream, any edge still
    crosses the set's boundary.  So a seed is clean exactly when its
    component C has at most cap vertices and the time-respecting reach from
    the seed covers C.  The reach is what greedy absorption reaches along
    edges taken in stream order; the cap never binds on it while
    |C| <= cap.  A clean seed's set is C, and a seed in a larger component
    is dirty.

    That criterion is computed from one ``component_pass`` and, once per
    distinct seed vertex in a component of at most cap vertices, an
    earliest-arrival relaxation over that component's edges in stream order:
    at most cap - 1 rounds over at most cap * E (source, edge) pairs.  The
    1/|C| terms are added left to right in seed order.  State is accounted as
    r*cap vertex ids.  The seeds are r ``randrange(n)`` values drawn in bulk,
    which needs n < 2**32.  Stream ids outside [0, n) raise ValueError.
    """
    if not 0 < epsilon < 1:
        raise ValueError("need 0 < epsilon < 1")
    if r < 1:
        raise ValueError(f"need r >= 1, got r={r}")
    cap = math.ceil(2 / epsilon)
    rng = as_seed(seed).rng()
    n = stream.n
    seeds = randrange_array(rng, n, r)
    ends = event_edges(stream.events)
    label, size, *_ = component_pass(n, ends)
    seed_size = size[label[seeds]]
    small = seed_size <= cap
    sources, source_of = np.unique(seeds[small], return_inverse=True)
    clean = small.copy()
    clean[small] = _reach_covers_component(ends, label, size, sources)[source_of]
    # cumsum adds left to right, as the per-seed ``+=`` does; sum() and
    # np.sum() would round differently (compensated from Python 3.12; pairwise)
    terms = 1.0 / seed_size[clean]
    clean_total = float(np.cumsum(terms)[-1]) if terms.size else 0.0
    clean_count = int(terms.size)
    estimate = (n / r) * clean_total
    return CcEstimateResult(
        estimate=estimate,
        r=r,
        cap=cap,
        clean_seeds=clean_count,
        dirty_seeds=r - clean_count,
        state_bits=r * cap * max(1, (n - 1).bit_length()),
    )


def _reach_covers_component(
    ends: np.ndarray, label: np.ndarray, size: np.ndarray, sources: np.ndarray
) -> np.ndarray:
    """Whether the time-respecting reach from each source covers its component.

    A source arrives at position -1; another vertex arrives at the first
    stream position p whose edge joins it to a vertex that arrived before p,
    which is where greedy absorption takes it in.  Relaxing every (source,
    edge) pair of the source's component at once finds the arrivals of one
    more hop of a time-respecting path each round.  Such a path never
    revisits a vertex, so |C| - 1 rounds reach the fixpoint.
    """
    if not sources.size:
        return np.zeros(0, dtype=bool)
    comp = label[sources]
    # each vertex's rank inside its component, 0..|C| - 1
    comp_start = np.cumsum(size) - size
    by_comp = np.argsort(label)
    rank = np.empty_like(label)
    rank[by_comp] = np.arange(len(label)) - comp_start[label[by_comp]]
    # the edges other than self-loops, grouped by component
    u, v = ends[:, 0], ends[:, 1]
    pos = np.flatnonzero(u != v)
    pos = pos[np.argsort(label[u[pos]])]
    edge_count = np.bincount(label[u[pos]], minlength=len(size))
    edge_start = np.cumsum(edge_count) - edge_count
    # (source, edge) pairs, as flat slots source * width + rank
    count = edge_count[comp]
    first = np.cumsum(count) - count
    pair_source = np.repeat(np.arange(sources.size), count)
    pair_pos = pos[np.repeat(edge_start[comp] - first, count) + np.arange(count.sum())]
    width = int(size[comp].max())
    pu = pair_source * width + rank[u[pair_pos]]
    pv = pair_source * width + rank[v[pair_pos]]
    never = len(ends)
    arrival = np.full(sources.size * width, never, dtype=np.int64)
    arrival[np.arange(sources.size) * width + rank[sources]] = -1
    for _ in range(width - 1):
        from_u = arrival[pu] < pair_pos
        from_v = arrival[pv] < pair_pos
        relaxed = arrival.copy()
        np.minimum.at(
            relaxed,
            np.concatenate([pv[from_u], pu[from_v]]),
            np.concatenate([pair_pos[from_u], pair_pos[from_v]]),
        )
        if np.array_equal(relaxed, arrival):
            break
        arrival = relaxed
    return (arrival.reshape(-1, width) < never).sum(axis=1) == size[comp]


# --- exact oracles on degree-<=2 graphs ------------------------------------------


def _census_deg2(n: int, edges: list[Edge]) -> Census:
    """Census of a disjoint union of paths and cycles; rejects degree > 2."""
    census = census_of_edges(n, distinct_edges(edges))
    if census.degree_violations:
        raise ValueError(
            f"degree > 2 at vertices {census.degree_violations[:5]}..."
            if len(census.degree_violations) > 5
            else f"degree > 2 at vertices {census.degree_violations}"
        )
    return census


def census_matching_size(census: Census) -> int:
    """Maximum matching: floor(v/2) per component (a path is keyed by v - 1 edges)."""
    return sum(c * (length // 2) for length, c in census.cycles.items()) + sum(
        c * ((length + 1) // 2) for length, c in census.paths.items()
    )


def census_mis_size(census: Census) -> int:
    """Maximum independent set: floor(v/2) per cycle, ceil(v/2) per path."""
    return sum(c * (length // 2) for length, c in census.cycles.items()) + sum(
        c * ((length + 2) // 2) for length, c in census.paths.items()
    )


def matching_size_exact(n: int, edges: list[Edge]) -> int:
    """Maximum matching on disjoint paths/cycles: floor(p/2) resp. floor(c/2)."""
    return census_matching_size(_census_deg2(n, edges))


def mis_size_exact(n: int, edges: list[Edge]) -> int:
    """Maximum independent set: ceil(p/2) per path, floor(c/2) per cycle."""
    return census_mis_size(_census_deg2(n, edges))


@dataclass(frozen=True)
class MstResult:
    weight: int
    components: int

    @property
    def spanning(self) -> bool:
        return self.components == 1


def mst_weight_exact(weighted_edges: list[tuple[int, int, int]], n: int) -> MstResult:
    """Kruskal; on disconnected input reports the forest weight + components."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    weight = 0
    merged = 0
    for u, v, w in sorted(weighted_edges, key=lambda e: e[2]):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            weight += w
            merged += 1
    return MstResult(weight=weight, components=n - merged)
