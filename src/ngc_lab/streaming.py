"""Stream simulators and reference streaming algorithms.

Streams are replayable event sequences (edge, weight) in one of four orders:
as given, uniformly shuffled, batch-shuffled (batches stay contiguous, order
of batches and of edges inside each batch uniform), or stochastic (iid edge
samples with repetition).  Algorithms follow an explicit-state contract —
init/process/serialize/deserialize/finalize — so a one-way protocol can ship
the state across a cut; serialized size is the honest message cost.

The reference algorithms are exact oracles on the degree-<=2 instance family
(census, matching, independent set, MST) plus the truncated-exploration
connected-components estimator and random-walk utilities the distinguishers
are built from.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from typing import Iterable

import numpy as np

from .distributions import Census, NgcInstance, canon, census_of_edges
from .gadgets import Edge
from .seeds import Seed, as_seed, randrange_many

Event = tuple[Edge, int | None]


@dataclass(frozen=True)
class Stream:
    n: int
    events: tuple[Event, ...]
    order_mode: str


def stream_from_edges(
    n: int,
    edges: list[Edge],
    mode: str,
    seed: Seed | int | None = None,
    c: float | None = None,
    weights: dict[Edge, int] | None = None,
    batches: tuple[tuple[Edge, ...], ...] | None = None,
) -> Stream:
    """Build a stream over a raw edge list.

    mode: "given" | "uniform_random" | "batched_random" | "stochastic";
    stochastic emits ceil(c*|E|) iid samples with repetition.
    """

    def events_of(ordered: Iterable[Edge]) -> Iterable[Event]:
        if weights is None:
            return zip(ordered, repeat(None))
        return ((e, weights[canon(e)]) for e in ordered)

    rng = as_seed(seed).rng()
    if mode == "given":
        events = events_of(edges)
    elif mode == "uniform_random":
        shuffled = list(edges)
        rng.shuffle(shuffled)
        events = events_of(shuffled)
    elif mode == "batched_random":
        if batches is None:
            raise ValueError("batched_random needs batches")
        groups = [list(b) for b in batches]
        rng.shuffle(groups)
        for batch in groups:
            rng.shuffle(batch)
        events = events_of(chain.from_iterable(groups))
    elif mode == "stochastic":
        if c is None or c < 0:
            raise ValueError("stochastic mode needs c >= 0")
        picks = randrange_many(rng, len(edges), math.ceil(c * len(edges)))
        events = events_of(map(edges.__getitem__, picks))
    else:
        raise ValueError(f"unknown stream mode {mode!r}")
    return Stream(n=n, events=tuple(events), order_mode=mode)


def make_stream(
    instance: NgcInstance,
    mode: str,
    seed: Seed | int | None = None,
    c: float | None = None,
) -> Stream:
    """Stream the instance's edges in the requested order."""
    return stream_from_edges(
        instance.n,
        instance.all_edges(),
        mode,
        seed=seed,
        c=c,
        weights=instance.weights,
        batches=instance.batches,
    )


def exact_census(n: int, stream_or_edges: Stream | list[Edge]) -> Census:
    """Exact census over all events; duplicate edges are idempotent."""
    if isinstance(stream_or_edges, Stream):
        edges = [e for e, _ in stream_or_edges.events]
    else:
        edges = stream_or_edges
    return census_of_edges(n, {canon(e) for e in edges})


def theta_from_components(n: int, k: int, components: float) -> int:
    """The census decision rule: at least 7n/8k components means k-cycles.

    theta=0 gives n/k components (8n/8k scaled), theta=1 gives 3n/4k (6n/8k),
    so the 7n/8k threshold separates them exactly on genuine instances.
    """
    return 0 if 8 * k * components >= 7 * n else 1


def pack_edges(edges: Iterable[Edge]) -> bytes:
    """Big-endian u32 edge count, then u32 (u, v) pairs in the given order."""
    flat = np.fromiter(chain.from_iterable(edges), dtype=">u4")
    return struct.pack(">I", flat.size // 2) + flat.tobytes()


def unpack_edges(blob: bytes) -> list[Edge]:
    (count,) = struct.unpack_from(">I", blob, 0)
    flat = np.frombuffer(blob, dtype=">u4", count=2 * count, offset=4).tolist()
    return list(zip(flat[0::2], flat[1::2]))


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
    state is the edge set itself; serialization is a sorted packed list and
    its byte length is the real one-way message cost of being exact.
    """

    def __init__(self, n: int) -> None:
        self.n = n

    def init(self) -> set[Edge]:
        return set()

    def process(self, state: set[Edge], event: Event) -> set[Edge]:
        edge, _ = event
        state.add(canon(edge))
        return state

    def run(self, state: set[Edge], events) -> set[Edge]:
        state.update([e if e[0] <= e[1] else (e[1], e[0]) for e, _ in events])
        return state

    def serialize(self, state: set[Edge]) -> bytes:
        return pack_edges(sorted(state))

    def deserialize(self, blob: bytes) -> set[Edge]:
        return set(unpack_edges(blob))

    def finalize(self, state: set[Edge]) -> Census:
        return census_of_edges(self.n, state)


class CensusThetaDecision(UnionFindCensusAlgorithm):
    """Census decision rule (``theta_from_components``) on the exact census."""

    def __init__(self, n: int, k: int) -> None:
        super().__init__(n)
        self.k = k

    def finalize(self, state: set[Edge]) -> int:
        census = census_of_edges(self.n, state)
        return theta_from_components(self.n, self.k, census.components)


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
    cap: int | None = None,
    seed: Seed | int | None = None,
) -> CcEstimateResult:
    """Estimate component count as (n/r) * sum over clean seeds of 1/|S|.

    Each of r seed vertices (sampled with replacement) grows a set greedily:
    an arriving edge with exactly one endpoint inside is absorbed while the
    set is below cap.  A second pass over the same replayable stream marks a
    seed dirty if any edge still crosses its boundary — that catches both
    cap overflow and growth missed due to arrival order.  Clean seeds hold
    exactly their component.  State is accounted as r*cap vertex ids.
    """
    if not 0 < epsilon < 1:
        raise ValueError("need 0 < epsilon < 1")
    if cap is None:
        cap = math.ceil(2 / epsilon)
    rng = as_seed(seed).rng()
    n = stream.n
    seeds = [rng.randrange(n) for _ in range(r)]
    members: list[set[int]] = [{v} for v in seeds]
    by_vertex: dict[int, list[int]] = {}
    for i, v in enumerate(seeds):
        by_vertex.setdefault(v, []).append(i)

    for (u, v), _ in stream.events:
        touching = set(by_vertex.get(u, ())) | set(by_vertex.get(v, ()))
        for i in touching:
            s = members[i]
            has_u, has_v = u in s, v in s
            if has_u == has_v:  # internal edge or stale map entry
                continue
            if len(s) >= cap:
                continue  # leave for the boundary pass to flag
            newcomer = v if has_u else u
            s.add(newcomer)
            by_vertex.setdefault(newcomer, []).append(i)

    dirty = [False] * r
    for (u, v), _ in stream.events:
        for i in set(by_vertex.get(u, ())) | set(by_vertex.get(v, ())):
            if (u in members[i]) != (v in members[i]):
                dirty[i] = True

    clean_total = 0.0
    clean_count = 0
    for i in range(r):
        if not dirty[i] and len(members[i]) <= cap:
            clean_total += 1.0 / len(members[i])
            clean_count += 1
    estimate = (n / r) * clean_total
    return CcEstimateResult(
        estimate=estimate,
        r=r,
        cap=cap,
        clean_seeds=clean_count,
        dirty_seeds=r - clean_count,
        state_bits=r * cap * max(1, (n - 1).bit_length()),
    )


# --- exact oracles on degree-<=2 graphs ------------------------------------------


def _census_deg2(n: int, edges: list[Edge]) -> Census:
    """Census of a disjoint union of paths and cycles; rejects degree > 2."""
    census = census_of_edges(n, {canon(e) for e in edges})
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


# --- random walks -----------------------------------------------------------------


@dataclass(frozen=True)
class WalkSample:
    vertices: tuple[int, ...]

    @property
    def start(self) -> int:
        return self.vertices[0]

    @property
    def length(self) -> int:
        return len(self.vertices) - 1


def build_adjacency(n: int, edges: list[Edge]) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def random_walk(
    edges: list[Edge],
    start: int,
    steps: int,
    seed: Seed | int | None = None,
    n: int | None = None,
    adjacency: list[list[int]] | None = None,
) -> WalkSample:
    """Uniform-neighbor walk; pass a prebuilt adjacency when doing many walks."""
    if adjacency is None:
        if n is None:
            n = 1 + max(max(u, v) for u, v in edges)
        adjacency = build_adjacency(n, edges)
    if not adjacency[start]:
        raise ValueError(f"start vertex {start} is isolated")
    rng = as_seed(seed).rng()
    path = [start]
    cur = start
    for _ in range(steps):
        nbrs = adjacency[cur]
        cur = nbrs[rng.randrange(len(nbrs))]
        path.append(cur)
    return WalkSample(tuple(path))


def walk_distribution_exact(
    edges: list[Edge], start: int, steps: int, n: int | None = None
) -> dict[tuple[int, ...], Fraction]:
    """Exact walk law by enumeration (guarded to <= 2^20 walks)."""
    if n is None:
        n = 1 + max(max(u, v) for u, v in edges)
    adjacency = build_adjacency(n, edges)
    if not adjacency[start]:
        raise ValueError(f"start vertex {start} is isolated")
    max_deg = max(len(a) for a in adjacency)
    if max_deg**steps > 2**20:
        raise ValueError("enumeration guard exceeded (max_degree^steps > 2^20)")
    table: dict[tuple[int, ...], Fraction] = {(start,): Fraction(1)}
    for _ in range(steps):
        nxt: dict[tuple[int, ...], Fraction] = {}
        for walk, p in table.items():
            nbrs = adjacency[walk[-1]]
            share = p / len(nbrs)
            for v in nbrs:
                nxt[walk + (v,)] = nxt.get(walk + (v,), Fraction(0)) + share
        table = nxt
    return table


@dataclass(frozen=True)
class WalkDetection:
    k_certificates: int
    two_k_certificates: int
    other_certificates: int
    classification: str  # "k_cycles" | "2k_cycles" | "unknown"


def detect_cycle_length_from_walks(
    walks: list[WalkSample], edges: list[Edge], n: int, k: int
) -> WalkDetection:
    """Certify complete cycles from walk footprints.

    A walk certifies a cycle when every visited vertex has degree 2 and both
    its neighbors were visited too: the visited set is then exactly one whole
    cycle component, of length |visited|.  Walks that touch a path can never
    certify (a path endpoint fails the degree test, an interior frontier
    vertex fails the both-neighbors test).
    """
    adjacency = build_adjacency(n, edges)
    counts = {"k": 0, "2k": 0, "other": 0}
    for walk in walks:
        visited = set(walk.vertices)
        certified = all(
            len(adjacency[v]) == 2 and all(u in visited for u in adjacency[v])
            for v in visited
        )
        if not certified:
            continue
        size = len(visited)
        if size == k:
            counts["k"] += 1
        elif size == 2 * k:
            counts["2k"] += 1
        else:
            counts["other"] += 1
    if counts["k"]:
        classification = "k_cycles"
    elif counts["2k"]:
        classification = "2k_cycles"
    else:
        classification = "unknown"
    return WalkDetection(counts["k"], counts["2k"], counts["other"], classification)
