"""Independent reference implementations used to pin expected values.

Everything here works from raw edge lists only — no layered-graph structure,
no permutation algebra — so a bug in the package cannot hide in its own
oracle.  Brute-force routines are deliberately naive and bounded to small
components.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations


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
