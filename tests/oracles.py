"""Independent reference implementations used to pin expected values.

Everything here works from raw edge lists only — no layered-graph structure,
no permutation algebra — so a bug in the package cannot hide in its own
oracle.  Brute-force routines are deliberately naive and bounded to small
components.

The exceptions are the gadget, witness, partition, claim-suite and file
layers at the end: there the references are the per-gadget and object-level
routes the shared code replaced (a validated concat chain per gadget, one
``randrange`` per cross bit, edge or map slot, one ``Random.sample`` and one
set per embedded gadget, the embedding core filled slot by slot with the
dataclass constructors, one owner lookup per edge, one assignment and
clean report per suite trial, one adapter run with an ``OrderProbe`` per
order trial, the uint8 and int8 simulators that byte replay
replaced, real walks with real cycle certificates, one record loop step per
line and the edge-run pattern with backtracking repeats, event tuples
shuffled in place, set-valued census states relayed batch by batch, the
component estimator's two per-edge passes over set-valued seed states),
so the new routes can be checked draw for draw and byte for byte against
them.  The exact rational distance tables (``tvd``, ``empirical_table``)
and the walk toolkit behind ``reference_walk_cover`` are references of this
kind with no counterpart left in the package.
"""

from __future__ import annotations

import math
import re
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import chain, combinations
from typing import Iterable

import numpy as np

from ngc_lab.distributions import (
    NgcInstance,
    Witness,
    component_pass,
    crossing_parity,
    sample_ngc,
)
from ngc_lab.gadgets import (
    SIDE_A,
    SIDE_B,
    Edge,
    GroupLayeredGraph,
    MatchingSpec,
    concat,
    graph_of,
    identity_perm,
    invert_perm,
    make_perm_matching,
    make_perm_xor,
    make_xor_matching,
    to_edges,
    vertex_id,
)
from ngc_lab.instance_io import ParsedInstance, _parse_records
from ngc_lab.partitions import (
    CLEAN_PATTERN,
    BlockCleanEntry,
    CleanReport,
    EdgeAssignment,
    PartitionFunctions,
    active_blocks,
    assign_by_functions,
    assign_uniform,
    clean_indices_stochastic,
    index_ownership_pattern,
    sample_counts,
)
from ngc_lab.protocols import EmbeddingRecord, StreamingProtocol, pack_edges, unpack_edges
from ngc_lab.seeds import Seed, as_seed, randrange_many, sample_range
from ngc_lab.streaming import (
    CcEstimateResult,
    StreamingAlgorithm,
    event_edges,
    theta_from_components,
)


def canon(edge: tuple[int, int]) -> tuple[int, int]:
    u, v = edge
    return (u, v) if u <= v else (v, u)


def build_adjacency(n_vertices: int, edges: list[tuple[int, int]]) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n_vertices)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def trace_from(adj: list[list[int]], start: int) -> list[int]:
    """Walk the unique non-backtracking path from a degree-1 vertex."""
    if len(adj[start]) != 1:
        raise ValueError("trace must start at a degree-1 vertex")
    path = [start]
    prev, cur = start, adj[start][0]
    while True:
        path.append(cur)
        nexts = [v for v in adj[cur] if v != prev]
        if not nexts:
            return path
        if len(nexts) > 1:
            raise ValueError(f"vertex {cur} has degree > 2")
        prev, cur = cur, nexts[0]


def component_census(
    n_vertices: int, edges: list[tuple[int, int]]
) -> tuple[list[int], list[int]]:
    """BFS component scan; returns sorted (path sizes, cycle sizes) in vertices.

    A component is a cycle iff every vertex in it has degree 2.  Isolated
    vertices count as paths of size 1.
    """
    adj = build_adjacency(n_vertices, edges)
    seen = [False] * n_vertices
    paths: list[int] = []
    cycles: list[int] = []
    for s in range(n_vertices):
        if seen[s]:
            continue
        comp = []
        queue = deque([s])
        seen[s] = True
        while queue:
            u = queue.popleft()
            comp.append(u)
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    queue.append(v)
        if all(len(adj[u]) == 2 for u in comp):
            cycles.append(len(comp))
        else:
            paths.append(len(comp))
    return sorted(paths), sorted(cycles)


class _UnionFind:
    def __init__(self, n: int) -> None:
        self.parent = list(range(n))
        self.size = [1] * n
        self.edges = [0] * n

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, u: int, v: int) -> None:
        ru, rv = self.find(u), self.find(v)
        if ru == rv:
            self.edges[ru] += 1
            return
        if self.size[ru] < self.size[rv]:
            ru, rv = rv, ru
        self.parent[rv] = ru
        self.size[ru] += self.size[rv]
        self.edges[ru] += self.edges[rv] + 1


def union_find_census(
    n_vertices: int, edges: list[tuple[int, int]]
) -> tuple[dict[int, int], dict[int, int], int, tuple[int, ...]]:
    """Object-level census on any multigraph: (cycles, paths, components, violations).

    A component with #edges == #vertices whose vertices all have degree 2 is a
    cycle keyed by length; any other component is a path keyed by edge count.
    Self-loops add 2 to a degree and one edge to their component.  The dicts
    are sorted by key; violations lists the vertices of degree > 2.
    """
    uf = _UnionFind(n_vertices)
    degree = [0] * n_vertices
    for u, v in edges:
        uf.union(u, v)
        degree[u] += 1
        degree[v] += 1
    two_regular: dict[int, bool] = {}
    for v in range(n_vertices):
        r = uf.find(v)
        two_regular[r] = two_regular.get(r, True) and degree[v] == 2
    cycles: dict[int, int] = {}
    paths: dict[int, int] = {}
    for r, regular in two_regular.items():
        size, nedges = uf.size[r], uf.edges[r]
        if regular and nedges == size:
            cycles[size] = cycles.get(size, 0) + 1
        else:
            paths[nedges] = paths.get(nedges, 0) + 1
    violations = tuple(v for v in range(n_vertices) if degree[v] > 2)
    return (
        dict(sorted(cycles.items())),
        dict(sorted(paths.items())),
        len(two_regular),
        violations,
    )


def components_of(n_vertices: int, edges: list[tuple[int, int]]) -> list[list[int]]:
    adj = build_adjacency(n_vertices, edges)
    seen = [False] * n_vertices
    out: list[list[int]] = []
    for s in range(n_vertices):
        if seen[s]:
            continue
        comp = []
        queue = deque([s])
        seen[s] = True
        while queue:
            u = queue.popleft()
            comp.append(u)
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    queue.append(v)
        out.append(comp)
    return out


def _induced_edges(
    comp: list[int], edges: list[tuple[int, int]]
) -> list[tuple[int, int]]:
    inside = set(comp)
    return [(u, v) for u, v in edges if u in inside and v in inside]


def brute_max_matching(n_vertices: int, edges: list[tuple[int, int]]) -> int:
    """Maximum matching by exhaustive per-component search (<= 20 edges each)."""
    total = 0
    for comp in components_of(n_vertices, edges):
        sub = _induced_edges(comp, edges)
        if len(sub) > 20:
            raise ValueError("component too large for brute-force matching")
        best = 0
        for k in range(len(sub), 0, -1):
            if k <= best:
                break
            for chosen in combinations(sub, k):
                used: set[int] = set()
                ok = True
                for u, v in chosen:
                    if u in used or v in used:
                        ok = False
                        break
                    used.add(u)
                    used.add(v)
                if ok:
                    best = k
                    break
        total += best
    return total


def brute_max_independent_set(n_vertices: int, edges: list[tuple[int, int]]) -> int:
    """Maximum independent set by per-component bitmask scan (<= 20 vertices)."""
    total = 0
    for comp in components_of(n_vertices, edges):
        if len(comp) > 20:
            raise ValueError("component too large for brute-force MIS")
        index = {v: i for i, v in enumerate(comp)}
        masks = [0] * len(comp)
        for u, v in _induced_edges(comp, edges):
            masks[index[u]] |= 1 << index[v]
            masks[index[v]] |= 1 << index[u]
        best = 0
        for subset in range(1 << len(comp)):
            if subset.bit_count() <= best:
                continue
            if all(
                not (subset >> i) & 1 or not (subset & masks[i])
                for i in range(len(comp))
            ):
                best = subset.bit_count()
        total += best
    return total


def scipy_mst_weight(
    n_vertices: int, weighted_edges: list[tuple[int, int, int]]
) -> int:
    """MST weight via scipy's csgraph, as a cross-check for Kruskal."""
    import numpy as np
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import minimum_spanning_tree

    rows = np.array([u for u, _, _ in weighted_edges])
    cols = np.array([v for _, v, _ in weighted_edges])
    vals = np.array([w for _, _, w in weighted_edges], dtype=float)
    graph = coo_matrix((vals, (rows, cols)), shape=(n_vertices, n_vertices))
    tree = minimum_spanning_tree(graph)
    return int(round(tree.sum()))


def layer_of(vid: int, width: int) -> int:
    return vid // (2 * width) + 1


def group_of(vid: int, width: int) -> int:
    return (vid % (2 * width)) // 2 + 1


def side_of(vid: int) -> int:
    return vid % 2


@dataclass(frozen=True)
class VertexRef:
    """A vertex named by (layer, group, side); all 1-based except side."""

    layer: int
    group: int
    side: int  # SIDE_A or SIDE_B


def vertex_from_id(vid: int, width: int) -> VertexRef:
    layer, rest = divmod(vid, 2 * width)
    group, side = divmod(rest, 2)
    return VertexRef(layer + 1, group + 1, side)


def traced_group_and_parity(
    width: int,
    depth: int,
    edges: list[tuple[int, int]],
    j: int,
) -> tuple[int, int]:
    """Follow a-side of first-layer group j through raw edges to the last layer.

    Returns (end group, side flip).  Uses only the edge list and the canonical
    id layout, none of the matching algebra.
    """
    n = 2 * width * depth
    adj = build_adjacency(n, edges)
    start = 2 * (j - 1)  # layer 1, group j, a-side
    path = trace_from(adj, start)
    end = path[-1]
    if layer_of(end, width) != depth:
        raise AssertionError("trace did not end in the last layer")
    return group_of(end, width), side_of(end)


# --- gadget layer: the concat chain -----------------------------------------------


def reference_block(x, sigma) -> GroupLayeredGraph:
    """perm(sigma) | xor(x) | perm(sigma^-1), every matching validated on its own."""
    perm, bits = tuple(sigma), tuple(x)
    if len(perm) != len(bits):
        raise ValueError("x and sigma lengths differ")
    return graph_of(
        make_perm_matching(perm),  # validates perm before it is inverted
        make_xor_matching(bits),
        make_perm_matching(invert_perm(perm)),
    )


def reference_multi_block(X, Sigma) -> GroupLayeredGraph:
    """t blocks glued one at a time with concat."""
    if len(X) != len(Sigma) or not X:
        raise ValueError("need equally many cross vectors and permutations, t >= 1")
    g = reference_block(X[0], Sigma[0])
    for x, sigma in zip(X[1:], Sigma[1:]):
        g = concat(g, reference_block(x, sigma))
    return g


def reference_segment(X_i, Sigma_i) -> GroupLayeredGraph:
    """Perm-XOR gadgets with step perms sigma^i (sigma^{i-1})^-1, closed by (sigma^t)^-1."""
    if len(X_i) != len(Sigma_i) or not X_i:
        raise ValueError("need equally many cross vectors and permutations, t >= 1")
    perms = [make_perm_matching(s).pi for s in Sigma_i]  # validated before inversion
    g = make_perm_xor(perms[0], X_i[0])
    for i in range(1, len(perms)):
        prev_inv = invert_perm(perms[i - 1])
        step = tuple(perms[i][prev_inv[g - 1] - 1] for g in range(1, len(prev_inv) + 1))
        g = concat(g, make_perm_xor(step, X_i[i]))
    return concat(g, graph_of(make_perm_matching(invert_perm(perms[-1]))))


def reference_multi_segment(X, Sigma) -> GroupLayeredGraph:
    """s segments glued one at a time with concat."""
    if len(X) != len(Sigma) or not X:
        raise ValueError("need equally many segment rows, s >= 1")
    t = len(X[0])
    if any(len(row) != t for row in X) or any(len(row) != t for row in Sigma):
        raise ValueError("ragged input: every segment needs exactly t gadgets")
    g = reference_segment(X[0], Sigma[0])
    for xs, sigmas in zip(X[1:], Sigma[1:]):
        g = concat(g, reference_segment(xs, sigmas))
    return g


def check_layered_degrees(g: GroupLayeredGraph) -> None:
    """Assert the defining degree profile: 1 on boundary layers, 2 inside."""
    degree = np.bincount(to_edges(g).array.ravel(), minlength=g.n_vertices)
    layer = np.arange(g.n_vertices) // (2 * g.width) + 1
    want = np.where((layer == 1) | (layer == g.depth), 1, 2)
    wrong = np.flatnonzero(degree != want)
    if wrong.size:
        vid = int(wrong[0])
        raise AssertionError(
            f"vertex {vid} (layer {layer[vid]}) has degree {degree[vid]}, wanted {want[vid]}"
        )


# --- witness layer: the per-gadget samplers ---------------------------------------


def witness_parity(witness: Witness, group: int) -> int:
    """Crossing parity from the witness algebra, bypassing the graph."""
    bit = 0
    if witness.form == "block":
        for x, sigma in zip(witness.X, witness.Sigma):
            bit ^= x[sigma[group - 1] - 1]
    else:
        for xs, sigmas in zip(witness.X, witness.Sigma):
            for x, sigma in zip(xs, sigmas):
                bit ^= x[sigma[group - 1] - 1]
    return bit


def _uniform_perm(rng, w: int) -> tuple[int, ...]:
    return tuple(rng.sample(range(1, w + 1), w))


def _uniform_bits(rng, w: int) -> list[int]:
    return [rng.randrange(2) for _ in range(w)]


def reference_blocks_conditioned(w: int, t: int, targets: dict[int, int], rng) -> Witness:
    """Uniform (X, Sigma) given parity(j) = targets[j]; forces the last block."""
    Sigma = [_uniform_perm(rng, w) for _ in range(t)]
    X = [_uniform_bits(rng, w) for _ in range(t)]
    for j, bit in targets.items():
        acc = 0
        for i in range(t - 1):
            acc ^= X[i][Sigma[i][j - 1] - 1]
        X[t - 1][Sigma[t - 1][j - 1] - 1] = bit ^ acc
    return Witness("block", tuple(tuple(x) for x in X), tuple(Sigma))


def reference_segments_conditioned(
    w: int, s: int, t: int, targets: dict[int, int], rng
) -> Witness:
    """Segment-form analogue; forces gadget (s, t), the last of the last segment."""
    Sigma = [[_uniform_perm(rng, w) for _ in range(t)] for _ in range(s)]
    X = [[_uniform_bits(rng, w) for _ in range(t)] for _ in range(s)]
    for j, bit in targets.items():
        acc = 0
        for i in range(s):
            for ip in range(t):
                if (i, ip) == (s - 1, t - 1):
                    continue
                acc ^= X[i][ip][Sigma[i][ip][j - 1] - 1]
        X[s - 1][t - 1][Sigma[s - 1][t - 1][j - 1] - 1] = bit ^ acc
    return Witness(
        "segment",
        tuple(tuple(tuple(x) for x in row) for row in X),
        tuple(tuple(row) for row in Sigma),
    )


def reference_dhx(w: int, t: int, seed) -> Witness:
    rng = as_seed(seed).rng()
    return Witness(
        "block",
        tuple(tuple(_uniform_bits(rng, w)) for _ in range(t)),
        tuple(_uniform_perm(rng, w) for _ in range(t)),
    )


def reference_dhx_segment(w: int, s: int, t: int, seed) -> Witness:
    rng = as_seed(seed).rng()
    return Witness(
        "segment",
        tuple(tuple(tuple(_uniform_bits(rng, w)) for _ in range(t)) for _ in range(s)),
        tuple(tuple(_uniform_perm(rng, w) for _ in range(t)) for _ in range(s)),
    )


def reference_embed(narrow: Witness, h_star: int, m: int, t: int, seed, build_graph: bool):
    """``protocols._embed`` as one ``rng.sample`` per gadget and one ``randrange(2)`` per bit,

    each gadget's map the complement of a set of its pre-sampled images.
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

    images: list[list[int]] = [[]] * count
    bits: list[list[int]] = [[]] * count
    if free:
        rng = as_seed(seed).rng()
        images = [rng.sample(range(1, wide + 1), m - 1) for _ in range(count)]
        flat = randrange_loop(rng, 2, (count - 1) * (m - 1))
        bits = [flat[g * (m - 1) : (g + 1) * (m - 1)] for g in range(count - 1)]
        bits.append([int(j > h_star) ^ (sum(flat[i :: m - 1]) & 1) for i, j in enumerate(free)])

    maps, sigmas, xs = [], [], []
    for (y, phi), image, bit in zip(gadgets, images, bits):
        taken = set(image)
        f = tuple(v for v in range(1, wide + 1) if v not in taken)
        sigma = [0] * wide
        x = [0] * wide
        for j, v, b in zip(free, image, bit):
            sigma[j - 1] = v
            x[v - 1] = b
        sigma[h_star - 1] = f[phi[0] - 1]
        sigma[m:] = [f[phi[r] - 1] for r in range(1, m + 1)]
        for r in range(m + 1):
            x[f[r] - 1] = y[r]
        maps.append(f)
        sigmas.append(tuple(sigma))
        xs.append(tuple(x))
    if crossing_parity(zip(xs, sigmas), h_star) != crossing_parity(gadgets, 1):
        raise RuntimeError("embedding lost the planted parity")

    assembled = Witness.from_gadgets(narrow.form, xs, sigmas, t)
    record = EmbeddingRecord(h_star, tuple(maps), assembled, narrow)
    return (assembled.build() if build_graph else None), record


# The embedding core filled slot by slot, with EmbeddingRecord's constructor
# and the width read off gadget 0: the reference for ``protocols._embed``'s
# records and the generator state it leaves, on witnesses of width m + 1.
def slotwise_embed(
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


@contextmanager
def generators_made():
    """Collect every generator ``Seed.rng`` returns inside the block, in order."""
    made = []
    rng = Seed.rng

    def recording(seed):
        made.append(rng(seed))
        return made[-1]

    Seed.rng = recording
    try:
        yield made
    finally:
        Seed.rng = rng


def per_edge_expansion(g: GroupLayeredGraph) -> list[tuple[int, int]]:
    """``to_edges`` as one vertex_id call per endpoint, ordered by layer, group, side."""
    w = g.width
    edges = []
    for layer, m in enumerate(g.matchings, start=1):
        for j in range(1, w + 1):
            for side in (SIDE_A, SIDE_B):
                u = vertex_id(layer, j, side, w)
                v = vertex_id(layer + 1, m.pi[j - 1], side ^ m.cross[j - 1], w)
                edges.append((u, v))
    return edges


def reference_auxiliary_edges(k: int, m: int, width: int):
    """One ``vertex_id`` pair per closer: (a^k_j, a^1_j), then (b^k_j, b^1_j)."""
    out = []
    for j in range(1, m + 1):
        out.append((vertex_id(k, j, SIDE_A, width), vertex_id(1, j, SIDE_A, width)))
        out.append((vertex_id(k, j, SIDE_B, width), vertex_id(1, j, SIDE_B, width)))
    return tuple(out)


def reference_mst_augment(edges, k: int, width: int, W: int):
    """(extra edges, canonical edge -> weight) of the MST augmentation, one edge at a time.

    Every given edge weighs 1; then come the bridges (a^k_j, b^k_j) of
    weight W, the links (a^1_j, a^1_{m+j}) and (a^1_j, b^1_{m+j}), and the
    ring (a^1_j, b^1_{j+1}) closed by (a^1_m, b^1_1), all of weight 1.
    """
    m = width // 2
    extra = []
    weights = {canon(e): 1 for e in edges}
    for j in range(1, m + 1):
        bridge = (vertex_id(k, j, SIDE_A, width), vertex_id(k, j, SIDE_B, width))
        extra.append(bridge)
        weights[canon(bridge)] = W
    for j in range(1, m + 1):
        for side in (SIDE_A, SIDE_B):
            link = (vertex_id(1, j, SIDE_A, width), vertex_id(1, m + j, side, width))
            extra.append(link)
            weights[canon(link)] = 1
    for j in range(1, m):
        ring = (vertex_id(1, j, SIDE_A, width), vertex_id(1, j + 1, SIDE_B, width))
        extra.append(ring)
        weights[canon(ring)] = 1
    closing = (vertex_id(1, m, SIDE_A, width), vertex_id(1, 1, SIDE_B, width))
    extra.append(closing)
    weights[canon(closing)] = 1
    return extra, weights


def reference_instance_parts(instance) -> dict:
    """An instance's derived parts, built eagerly as instances once stored them.

    The witness's concat-chain core with k - core_k identity layers glued in
    front, the per-closer loop, consecutive pairs of core edges and then of
    closers for a segment-form instance, the per-edge augmentation when the
    instance has a W, and the sizes counted off the witness grid.
    """
    wit = instance.witness
    if wit.form == "block":
        core, t, s = reference_multi_block(wit.X, wit.Sigma), len(wit.Sigma), None
        core_k = 3 * t + 1
    else:
        core, s, t = reference_multi_segment(wit.X, wit.Sigma), len(wit.Sigma), len(wit.Sigma[0])
        core_k = (2 * t + 1) * s + 1
    w, k = core.width, instance.k
    graph = core
    for _ in range(k - core_k):
        graph = concat(graph_of(make_xor_matching((0,) * w)), graph)
    core_edges = per_edge_expansion(graph)
    aux = reference_auxiliary_edges(k, w // 2, w)
    batches = None
    if s is not None:
        batches = tuple((core_edges[i], core_edges[i + 1]) for i in range(0, len(core_edges), 2))
        batches += tuple((aux[i], aux[i + 1]) for i in range(0, len(aux), 2))
    extra, weights = [], None
    if instance.W is not None:
        extra, weights = reference_mst_augment([*core_edges, *aux], k, w, instance.W)
    return {
        "graph": graph,
        "batches": batches,
        "auxiliary_edges": aux,
        "extra_edges": extra,
        "weights": weights,
        "all_edges": [*core_edges, *aux, *extra],
        "n": 2 * w * k,
        "m": w // 2,
        "t": t,
        "s": s,
        "width": w,
        "core_k": core_k,
    }


# --- distribution distance: exact rational tables ---------------------------------


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


# --- partition layer: the per-element routes --------------------------------------


def randrange_loop(rng, n: int, count: int) -> list[int]:
    return [rng.randrange(n) for _ in range(count)]


def reference_random_partition_functions(w: int, t: int, seed):
    rng = as_seed(seed).rng()

    def draw():
        return tuple(tuple(rng.randrange(2) for _ in range(2 * w)) for _ in range(t))

    return PartitionFunctions(draw(), draw(), draw())


def reference_assign_uniform(edges, players: int, seed):
    rng = as_seed(seed).rng()
    owner = {canon(e): rng.randrange(players) for e in edges}
    mode = "two_player" if players == 2 else "l_player"
    return EdgeAssignment(mode=mode, players=players, owner=owner)


def reference_assign_batches(instance, l: int, seed):
    rng = as_seed(seed).rng()
    batches = reference_instance_parts(instance)["batches"]
    batch_owners = tuple(rng.randrange(1, l + 1) for _ in batches)
    owner = {}
    for b, (e1, e2) in enumerate(batches):
        owner[canon(e1)] = batch_owners[b]
        owner[canon(e2)] = batch_owners[b]
    return EdgeAssignment(mode="l_player", players=l, owner=owner, batch_owners=batch_owners)


def instance_graph(instance: NgcInstance) -> GroupLayeredGraph:
    """The object graph an instance stands for: k - core_k identity layers, then the witness's core."""
    w = instance.width
    ident = MatchingSpec(identity_perm(w), (0,) * w)
    return GroupLayeredGraph(w, (ident,) * (instance.k - instance.core_k) + instance.witness.build().matchings)


def reference_index_table(instance) -> np.ndarray:
    """Each block index's six core edge positions, looked up in the object graph's edge list.

    Index j of block i enters its layer-2 vertices (group j, a then b), leaves
    them through the middle matching, and leaves the layer-3 vertices of
    group j.
    """
    w, pad = instance.width, instance.k - instance.core_k
    edges = list(to_edges(instance_graph(instance)))
    entering = {v: p for p, (_, v) in enumerate(edges)}
    leaving = {u: p for p, (u, _) in enumerate(edges)}
    table = np.empty((instance.t, w, 6), dtype=np.int64)
    for block in range(instance.t):
        layer2 = pad + 3 * block + 2
        for j in range(1, w + 1):
            for side in (SIDE_A, SIDE_B):
                middle, out = vertex_id(layer2, j, side, w), vertex_id(layer2 + 1, j, side, w)
                table[block, j - 1, side :: 2] = entering[middle], leaving[middle], leaving[out]
    return table


def _block_matchings(instance, block: int) -> tuple[int, int, int]:
    """1-based matching indices of block's L, M, R matchings, padding-aware."""
    base = instance.k - instance.core_k + 3 * (block - 1)
    return base + 1, base + 2, base + 3


def _edge_of(core, w: int, q: int, src_group: int, side: int):
    """The core edge of matching q leaving (source group, side)."""
    return core[(q - 1) * 2 * w + 2 * (src_group - 1) + side]


def reference_index_edges(instance, block: int, j: int):
    w = instance.width
    graph = instance_graph(instance)
    core = to_edges(graph)
    qL, qM, qR = _block_matchings(instance, block)
    src = invert_perm(graph.matchings[qL - 1].pi)[j - 1]
    into = (_edge_of(core, w, qL, src, 0), _edge_of(core, w, qL, src, 1))
    mid = (_edge_of(core, w, qM, j, 0), _edge_of(core, w, qM, j, 1))
    out = (_edge_of(core, w, qR, j, 0), _edge_of(core, w, qR, j, 1))
    return into, mid, out


def reference_assign_by_functions(instance, F, seed):
    w = instance.width
    rng = as_seed(seed).rng()
    owner = {}
    graph = instance_graph(instance)
    core = to_edges(graph)
    pad = instance.k - instance.core_k
    for q, m in enumerate(graph.matchings, start=1):
        for src in range(1, w + 1):
            tgt = m.pi[src - 1]
            flip = m.cross[src - 1]
            for side in (0, 1):
                e = _edge_of(core, w, q, src, side)
                if q <= pad:
                    owner[canon(e)] = rng.randrange(2)
                    continue
                block, role = divmod(q - pad - 1, 3)
                if role == 0:  # into layer 2, keyed by target vertex
                    val = F.fL[block][2 * (tgt - 1) + (side ^ flip)]
                elif role == 1:  # middle, keyed by layer-2 source vertex
                    val = F.fM[block][2 * (src - 1) + side]
                else:  # out of layer 3, keyed by layer-3 source vertex
                    val = F.fR[block][2 * (src - 1) + side]
                owner[canon(e)] = val
    for e in list(instance.auxiliary_edges) + list(instance.extra_edges):
        owner[canon(e)] = rng.randrange(2)
    return EdgeAssignment(mode="two_player", players=2, owner=owner)


def _reference_report(instance, is_clean, w_c_raw: int):
    entries = []
    for block in range(1, instance.t + 1):
        uncapped = tuple(
            j
            for j in range(1, instance.width + 1)
            if is_clean(*reference_index_edges(instance, block, j))
        )
        w_c = max(1, w_c_raw)
        entries.append(
            BlockCleanEntry(
                block=block,
                clean=uncapped[:w_c],
                clean_uncapped=uncapped,
                w_c=w_c,
                cap_floored=w_c_raw < 1,
            )
        )
    return CleanReport(tuple(entries))


def reference_clean_indices(instance, F_or_assignment, seed=None):
    assignment = F_or_assignment
    if isinstance(F_or_assignment, PartitionFunctions):
        assignment = reference_assign_by_functions(instance, F_or_assignment, seed)

    def is_clean(into, mid, out):
        return tuple(assignment.owner_of(e) for e in into + mid + out) == CLEAN_PATTERN

    return _reference_report(instance, is_clean, instance.width // 100)


def reference_active_blocks(instance, F_or_assignment, seed=None):
    base = reference_clean_indices(instance, F_or_assignment, seed)
    entries = []
    for entry in base.entries:
        sigma1 = instance.witness.Sigma[entry.block - 1][0]
        entries.append(
            replace(
                entry,
                sigma1=sigma1,
                active=sigma1 in entry.clean,
                active_uncapped=sigma1 in entry.clean_uncapped,
            )
        )
    return CleanReport(tuple(entries))


def reference_stochastic_assign(edges, c: float, seed):
    rng = as_seed(seed).rng()
    count = math.ceil(c * len(edges) / 2)
    sample_a = tuple(edges[rng.randrange(len(edges))] for _ in range(count))
    sample_b = tuple(edges[rng.randrange(len(edges))] for _ in range(count))
    return EdgeAssignment(mode="stochastic", players=2, samples=(sample_a, sample_b), c=c)


def reference_clean_indices_stochastic(instance, assignment):
    seen_a = {canon(e) for e in assignment.samples[0]}
    seen_b = {canon(e) for e in assignment.samples[1]}

    def is_clean(into, mid, out):
        outer = [canon(e) for e in into + out]
        middle = [canon(e) for e in mid]
        return all(e not in seen_a and e in seen_b for e in outer) and all(
            e not in seen_b and e in seen_a for e in middle
        )

    return _reference_report(instance, is_clean, int(instance.width / (2 * math.exp(9 * assignment.c))))


# --- walk layer: real walks and cycle certificates --------------------------------


@dataclass(frozen=True)
class WalkSample:
    vertices: tuple[int, ...]

    @property
    def start(self) -> int:
        return self.vertices[0]

    @property
    def length(self) -> int:
        return len(self.vertices) - 1


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


# --- claim suites: one object trial at a time -------------------------------------


def reference_capped_activity_probability(w: int) -> Fraction:
    """``experiments.capped_activity_probability`` as ``Fraction`` tail sums.

    E[min(C, w_c)] = sum_{r=1..w_c} Pr[C >= r] with C ~ Binomial(w, 1/64),
    each Pr[C < r] accumulated from the binomial terms as fractions.
    """
    w_c = max(1, w // 100)
    p = Fraction(1, 64)
    prob_lt = Fraction(0)
    expect = Fraction(0)
    for r in range(1, w_c + 1):
        prob_lt += math.comb(w, r - 1) * p ** (r - 1) * (1 - p) ** (w - r + 1)
        expect += 1 - prob_lt
    return expect / w


def reference_partition_counts(w: int, trials: int, root):
    """``partition_stats_suite``'s counts, one assignment and report per trial.

    Every draw is a ``random.Random`` call on the trial's own generator,
    never a replayed word.  Each trial also splits the instance's non-block
    edges from ``split``, which no count reads.
    """
    n = 4 * 4 * (w // 2)
    pattern_counts = [0] * 64
    clean_hits = active_capped = active_uncapped = 0
    for i in range(trials):
        child = root.child("object", i)
        inst = sample_ngc(n, 4, child.child("inst"))
        F = reference_random_partition_functions(w, 1, child.child("F"))
        assignment = assign_by_functions(inst, F, child.child("split"))
        entry = active_blocks(inst, assignment).entries[0]
        clean_hits += 1 in entry.clean_uncapped
        active_capped += bool(entry.active)
        active_uncapped += bool(entry.active_uncapped)
        pat = index_ownership_pattern(inst, assignment, 1, 1)
        pattern_counts[sum(b << i for i, b in enumerate(pat))] += 1
    return pattern_counts, clean_hits, active_capped, active_uncapped


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


def reference_order_counts(order_trials: int, root) -> list[int]:
    """``adapter_suite``'s order cell counts, one assignment and adapter run per trial.

    Cells are numbered in the order the trials first reach them.
    """
    edges = [(2 * i, 2 * i + 1) for i in range(5)]
    adapter = StreamingProtocol(OrderProbe())
    perm_ids: dict[tuple, int] = {}
    counts = [0] * math.factorial(len(edges))
    probe_rng = root.rng()
    for _ in range(order_trials):
        assignment = assign_uniform(edges, 2, probe_rng.getrandbits(63))
        shared = as_seed(probe_rng.getrandbits(63))
        edges_a, edges_b = assignment.split(edges)
        order = adapter.bob(adapter.alice(edges_a, shared), edges_b, shared)
        cell = perm_ids.setdefault(tuple(order), len(perm_ids))
        counts[cell] += 1
    return counts


def reference_stochastic_counts(c: float, trials: int, w: int, root):
    """``stochastic_stats_suite``'s counts, one assignment and report per trial.

    The samples are ``randrange`` calls on each trial's own ``random.Random``.
    """
    inst = sample_ngc(4 * 4 * (w // 2), 4, root.child("inst"))
    edges = inst.all_edges()
    probe = canon(edges[0])[0]
    absent = a_only = clean = 0
    for i in range(trials):
        assignment = reference_stochastic_assign(edges, c, root.child("draw", i))
        seen_a, seen_b = (sample_counts(inst, assignment)[:, probe] > 0).tolist()
        absent += not seen_b
        a_only += seen_a and not seen_b
        clean += 1 in clean_indices_stochastic(inst, assignment).entries[0].clean_uncapped
    return absent, a_only, clean


def reference_sigma1_rank_counts(w: int, w_c: int, trials: int, seed, chunk_elements: int):
    """``_sigma1_rank_counts`` as the uint8 simulator: every row masked and ranked."""
    gen = seed.generator()
    counts = np.zeros(w_c, dtype=np.int64)
    chunk = max(1, min(trials, chunk_elements // w))
    done = 0
    while done < trials:
        size = min(chunk, trials - done)
        mask = gen.integers(0, 64, size=(size, w), dtype=np.uint8) == 0
        sigma1 = gen.integers(0, w, size=size)
        total = np.count_nonzero(mask, axis=1)
        rows = np.flatnonzero(mask[np.arange(size), sigma1] & (total >= w_c))
        before = np.arange(w) < sigma1[rows, None]
        rank = np.count_nonzero(mask[rows] & before, axis=1)
        counts += np.bincount(rank[rank < w_c], minlength=w_c)
        done += size
    return counts.tolist()


def reference_fast_walk_coverage(walks: int, length: int, steps: int, seed):
    """``_fast_walk_coverage`` as the int8 simulator, every walk in one draw:
    +/-1 increments and their cumsum.

    The int8 positions wrap past 127 steps, so this reference holds for k < 64.
    """
    gen = seed.generator()
    on_cycle = int(gen.binomial(walks, 0.5))
    if on_cycle == 0:
        return 0, 0
    inc = gen.integers(0, 2, size=(on_cycle, steps), dtype=np.int8) * 2 - 1
    pos = np.cumsum(inc, axis=1, dtype=np.int8)
    hi = np.maximum(pos.max(axis=1), 0)
    lo = np.minimum(pos.min(axis=1), 0)
    return on_cycle, int(np.count_nonzero(hi - lo + 1 >= length))


def _object_walk_coverage(inst: NgcInstance, walks: int, seed) -> tuple[int, int, int | None]:
    """(cycle-started walks, covering walks, certified length) with real walks."""
    edges = inst.all_edges()
    adjacency = build_adjacency(inst.n, edges)
    label, _, _, cycle, _ = component_pass(inst.n, edges)
    rng = seed.rng()
    samples = []
    on_cycle = 0
    for _ in range(walks):
        start = rng.randrange(inst.n)
        on_cycle += bool(cycle[label[start]])
        samples.append(
            random_walk(edges, start, 2 * inst.k, seed=rng.getrandbits(63), adjacency=adjacency)
        )
    detection = detect_cycle_length_from_walks(samples, edges, inst.n, inst.k)
    hits = detection.k_certificates + detection.two_k_certificates
    guessed = {"k_cycles": inst.k, "2k_cycles": 2 * inst.k}.get(detection.classification)
    return on_cycle, hits, guessed


def reference_walk_cover(k: int, walks: int, trials: int, seed, m: int) -> tuple[int, int, int]:
    """``walk_cover_suite``'s counts with real walks on the edge lists and real certificates.

    Returns (instances classified correctly, cycle-started walks on theta=1
    instances, covering walks among them), each instance drawn from the
    suite's seed path.
    """
    root = as_seed(seed)
    correct = cyc_walks = cyc_hits = 0
    for i in range(trials):
        child = root.child("walks", i)
        inst = sample_ngc(4 * k * m, k, child.child("inst"))
        on_cycle, hits, guessed = _object_walk_coverage(inst, walks, child.child("sim"))
        if inst.theta == 1:
            cyc_walks += on_cycle
            cyc_hits += hits
        correct += guessed == (k if inst.theta == 0 else 2 * k)
    return correct, cyc_walks, cyc_hits


# --- file layer: one line at a time ------------------------------------------------


def parse_instance_by_lines(text: str) -> ParsedInstance:
    """``parse_instance`` with every line, plain edge records too, each its own record."""
    return _parse_records(enumerate(text.splitlines(), start=1))


# ``instance_io._EDGE_RUN`` with greedy repeats, which backtrack where the
# possessive ones give up at once; both match the same spans
_REFERENCE_NUMBER = "[0-9]{1,18}"
REFERENCE_EDGE_RUN = re.compile(
    "^(?:"
    + "|".join(
        f"(?:e {_REFERENCE_NUMBER} {_REFERENCE_NUMBER}{notes}\n){{1,4096}}"
        for notes in (
            "",
            f" w={_REFERENCE_NUMBER}",
            f" b={_REFERENCE_NUMBER}",
            f" w={_REFERENCE_NUMBER} b={_REFERENCE_NUMBER}",
        )
    )
    + ")",
    re.MULTILINE,
)


def reference_edge_records(instance: NgcInstance) -> list[str]:
    """One ``e <u> <v> [w=<int>] [b=<int>]`` record per edge, formatted edge by edge."""
    parts = reference_instance_parts(instance)
    batch_id = {}
    for b, (e1, e2) in enumerate(parts["batches"] or ()):
        batch_id[canon(e1)] = b
        batch_id[canon(e2)] = b
    records = []
    for u, v in parts["all_edges"]:
        rec = f"e {u} {v}"
        if parts["weights"] is not None:
            rec += f" w={parts['weights'][canon((u, v))]}"
        if canon((u, v)) in batch_id:  # augmentation edges belong to no batch
            rec += f" b={batch_id[canon((u, v))]}"
        records.append(rec)
    return records


# --- streams and relays: event tuples and set states ------------------------------


def reference_stream_events(edges, mode: str, seed, c=None, weights=None, batches=None):
    """The event tuple of a stream, each order made by shuffling a list in place.

    ``weights`` holds one weight per edge, in order; batched mode streams the
    edges of ``batches``, and the weights are theirs, batch after batch.
    """
    rng = as_seed(seed).rng()
    if mode == "batched_random":
        edges = list(chain.from_iterable(batches))
    events = [(e, None if weights is None else weights[i]) for i, e in enumerate(edges)]
    if mode == "given":
        ordered = events
    elif mode == "uniform_random":
        ordered = list(events)
        rng.shuffle(ordered)
    elif mode == "batched_random":
        rest = iter(events)
        groups = [[next(rest) for _ in batch] for batch in batches]
        rng.shuffle(groups)
        for batch in groups:
            rng.shuffle(batch)
        ordered = list(chain.from_iterable(groups))
    else:  # stochastic
        ordered = [events[rng.randrange(len(events))] for _ in range(math.ceil(c * len(events)))]
    return tuple(ordered)


def reference_relay(instance, assignment, l: int, seed):
    """(output, hop bits) of the census-decision relay with a set state, batch by batch."""
    shared = as_seed(seed)
    batches = reference_instance_parts(instance)["batches"]
    state: set = set()
    hop_bits = []
    for player in range(1, l + 1):
        rng = shared.child("player", player).rng()
        owned = [
            list(batch)
            for batch, owner in zip(batches, assignment.batch_owners)
            if owner == player
        ]
        rng.shuffle(owned)
        for batch in owned:
            rng.shuffle(batch)
            state.update(canon(e) for e in batch)
        if player < l:
            hop_bits.append(8 * (4 + 8 * len(state)))  # u32 count, then u32 pairs
    paths, cycles = component_census(instance.n, sorted(state))
    return theta_from_components(instance.n, instance.k, len(paths) + len(cycles)), tuple(hop_bits)


# --- component estimator: two passes with a set per seed --------------------------


def reference_cc_estimate(stream, epsilon: float, r: int, seed=None) -> CcEstimateResult:
    """``cc_estimate`` as a greedy absorption pass, then a boundary pass, per edge.

    Each seed's set absorbs an arriving edge with exactly one endpoint inside
    while below cap; a seed is dirty if any edge still crosses its boundary.
    """
    if not 0 < epsilon < 1:
        raise ValueError("need 0 < epsilon < 1")
    if r < 1:
        raise ValueError(f"need r >= 1, got r={r}")
    cap = math.ceil(2 / epsilon)
    rng = as_seed(seed).rng()
    n = stream.n
    seeds = randrange_many(rng, n, r)
    members: list[set[int]] = [{v} for v in seeds]
    by_vertex: dict[int, list[int]] = {}
    for i, v in enumerate(seeds):
        by_vertex.setdefault(v, []).append(i)
    pairs = event_edges(stream.events).tolist()

    for u, v in pairs:
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
    for u, v in pairs:
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
