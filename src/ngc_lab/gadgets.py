"""Layered-graph gadget algebra.

A group-layered graph has d layers; each layer holds w groups of two vertices,
called the `a` and `b` side.  Consecutive layers are joined by a perfect
matching that respects groups: every matching factors into a permutation on
groups plus one crossing bit per group, which is exactly how we encode it
(``MatchingSpec``).  On top of that sit the composite gadgets: XOR matchings,
perm matchings, blocks (perm | xor | perm-inverse), multi-blocks, Perm-XOR
matchings, segments, and multi-segments.

Two derived queries matter downstream: ``group_map(g, j)`` — the last-layer
group reachable from first-layer group j — and ``parity(g, j)`` — the XOR of
crossing bits picked up along group j's path, which decides whether the a/b
strands stay parallel (0) or swap sides (1).

Validation lives in two places: the public constructors (``MatchingSpec``,
``make_*_matching``, ``graph_of``, ``concat``) check every matching they get,
and the witness builders (``make_multi_block``, ``make_multi_segment``) check
each gadget's bits and width once, and its permutation in the pass that
inverts it (``invert_perm``, the one permutation test), then make all its
matchings with ``_built``, skipping the constructors.  Sampled instances
build no graph: ``NgcInstance.core_targets`` lays the same matchings out as
arrays straight from the witness, and ``matching_targets`` is the one edge
formula both use.

Indices are 1-based to match the construction's arithmetic; the canonical
integer vertex ids used in edge lists and files are 0-based.  Edge lists are
``EdgeView``s: read-only list views over an (E, 2) int64 array.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

Perm = tuple[int, ...]  # 1-based images: perm[j-1] is the image of group j
Bits = tuple[int, ...]
Edge = tuple[int, int]

SIDE_A = 0
SIDE_B = 1


def identity_perm(w: int) -> Perm:
    return tuple(range(1, w + 1))


def invert_perm(perm: Sequence[int]) -> Perm:
    """The inverse of a permutation of 1..w, checked in the same pass (ValueError if not one)."""
    w = len(perm)
    inv = [0] * w
    for j, image in enumerate(perm, start=1):
        if not 0 < image <= w or inv[image - 1]:
            raise ValueError(f"not a permutation of 1..{w}: {perm!r}")
        inv[image - 1] = j
    return tuple(inv)


def _check_bits(bits: Sequence[int]) -> Bits:
    out = tuple(bits)
    if out.count(0) + out.count(1) != len(out):
        raise ValueError(f"cross vector must be 0/1: {bits!r}")
    return out


def _check_gadget(x: Sequence[int], sigma: Sequence[int], w: int) -> tuple[Perm, Bits, Perm]:
    """One gadget's (permutation, cross bits, inverse), checked against each other and width w."""
    perm, bits = tuple(sigma), _check_bits(x)
    if len(perm) != len(bits):
        raise ValueError("x and sigma lengths differ")
    if len(perm) != w:
        raise ValueError(f"width mismatch: {w} vs {len(perm)}")
    return perm, bits, invert_perm(perm)


def vertex_id(layer: int, group: int, side: int, width: int) -> int:
    return (layer - 1) * 2 * width + 2 * (group - 1) + side


@dataclass(frozen=True)
class MatchingSpec:
    """One inter-layer perfect matching: group permutation + per-group cross bit.

    Group j's two vertices both map into group pi(j); cross[j-1] == 0 keeps
    a->a, b->b, cross[j-1] == 1 swaps a->b, b->a.  Constructing one checks
    it.  The witness builders below instead check each gadget once and make
    the specs it implies with ``_built``, which skips the check.
    """

    pi: Perm
    cross: Bits

    def __post_init__(self) -> None:
        invert_perm(self.pi)
        _check_bits(self.cross)
        if len(self.pi) != len(self.cross):
            raise ValueError("pi and cross lengths differ")

    @property
    def width(self) -> int:
        return len(self.pi)


@dataclass(frozen=True)
class GroupLayeredGraph:
    width: int
    matchings: tuple[MatchingSpec, ...]

    def __post_init__(self) -> None:
        for m in self.matchings:
            if m.width != self.width:
                raise ValueError("matching width differs from graph width")

    @property
    def depth(self) -> int:
        return len(self.matchings) + 1

    @property
    def n_vertices(self) -> int:
        return 2 * self.width * self.depth

    @cached_property
    def _targets(self) -> np.ndarray:
        """Upper ends of all 2w(d-1) edges (``matching_targets``); edge p leaves vertex p."""
        specs = np.array([(m.pi, m.cross) for m in self.matchings], dtype=np.int64)
        pi, cross = specs.reshape(-1, 2, self.width).transpose(1, 0, 2)
        return matching_targets(pi - 1, cross)


def matching_targets(pi: np.ndarray, cross: np.ndarray) -> np.ndarray:
    """Upper ends of the edges of stacked matchings, in (layer, group, side) order.

    Row q of the (L, w) arrays is the matching out of layer q + 1: ``pi``
    holds its 0-based group images, ``cross`` its bits.  Edge p leaves vertex p.
    """
    layers, w = pi.shape
    side_a = 2 * pi + cross  # side a's target; side b's is the other vertex of its group
    side_a += 2 * w * np.arange(1, layers + 1).reshape(-1, 1)
    return np.stack([side_a, side_a ^ 1], axis=-1).ravel()


def make_xor_matching(x: Sequence[int]) -> MatchingSpec:
    """Matching that keeps every group in place and crosses group j iff x_j=1."""
    bits = tuple(x)
    return MatchingSpec(identity_perm(len(bits)), bits)


def make_perm_matching(sigma: Sequence[int]) -> MatchingSpec:
    """Matching that routes group j to group sigma(j) without crossing."""
    perm = tuple(sigma)
    return MatchingSpec(perm, (0,) * len(perm))


def graph_of(*matchings: MatchingSpec) -> GroupLayeredGraph:
    if not matchings:
        raise ValueError("need at least one matching")
    return GroupLayeredGraph(matchings[0].width, tuple(matchings))


def concat(g1: GroupLayeredGraph, g2: GroupLayeredGraph) -> GroupLayeredGraph:
    """Glue g2 onto g1, identifying g1's last layer with g2's first."""
    if g1.width != g2.width:
        raise ValueError(f"width mismatch: {g1.width} vs {g2.width}")
    return GroupLayeredGraph(g1.width, g1.matchings + g2.matchings)


def _built(w: int, matchings: list[tuple[Perm, Bits]]) -> GroupLayeredGraph:
    """A graph over the (pi, cross) pairs a builder made at width w, without re-checking them."""
    new = object.__new__
    specs = []
    for pi, cross in matchings:
        spec = new(MatchingSpec)
        fields = spec.__dict__  # item stores: cheaper than update() on a build's hot path
        fields["pi"] = pi
        fields["cross"] = cross
        specs.append(spec)
    graph = new(GroupLayeredGraph)
    fields = graph.__dict__
    fields["width"] = w
    fields["matchings"] = tuple(specs)
    return graph


def make_block(x: Sequence[int], sigma: Sequence[int]) -> GroupLayeredGraph:
    """Depth-4 gadget perm(sigma) | xor(x) | perm(sigma^-1).

    Routes every group back to itself; the crossing picked up by start group j
    is x_{sigma(j)}.
    """
    return make_multi_block([x], [sigma])


def make_multi_block(
    X: Sequence[Sequence[int]], Sigma: Sequence[Sequence[int]]
) -> GroupLayeredGraph:
    """t concatenated blocks; depth 3t+1; parity(j) = XOR_i x^i_{sigma^i(j)}."""
    if len(X) != len(Sigma) or not X:
        raise ValueError("need equally many cross vectors and permutations, t >= 1")
    w = len(Sigma[0])
    ident, zeros = identity_perm(w), (0,) * w
    pairs = []
    for x, sigma in zip(X, Sigma):
        perm, bits, inverse = _check_gadget(x, sigma, w)
        pairs += ((perm, zeros), (ident, bits), (inverse, zeros))
    return _built(w, pairs)


def make_perm_xor(sigma: Sequence[int], x: Sequence[int]) -> GroupLayeredGraph:
    """Depth-3 gadget perm(sigma) | xor(x): group j lands on sigma(j), crossing x_{sigma(j)}."""
    perm, bits = tuple(sigma), tuple(x)
    if len(perm) != len(bits):
        raise ValueError("x and sigma lengths differ")
    return graph_of(make_perm_matching(perm), make_xor_matching(bits))


def make_segment(
    X_i: Sequence[Sequence[int]], Sigma_i: Sequence[Sequence[int]]
) -> GroupLayeredGraph:
    """t chained Perm-XOR gadgets closed by a plain perm matching; depth 2t+2.

    Gadget i >= 2 carries the group map g -> sigma^i((sigma^{i-1})^-1(g)) and the
    closer is (sigma^t)^-1, so the whole segment maps every group to itself and
    start group j accumulates crossing XOR_i x^i_{sigma^i(j)}.
    """
    return make_multi_segment([X_i], [Sigma_i])


def make_multi_segment(
    X: Sequence[Sequence[Sequence[int]]], Sigma: Sequence[Sequence[Sequence[int]]]
) -> GroupLayeredGraph:
    """s concatenated segments of t gadgets each (see make_segment); depth (2t+1)s+1."""
    if len(X) != len(Sigma) or not X:
        raise ValueError("need equally many segment rows, s >= 1")
    t = len(X[0])
    if any(len(row) != t for row in X) or any(len(row) != t for row in Sigma):
        raise ValueError("ragged input: every segment needs exactly t gadgets")
    if not t:
        raise ValueError("need t >= 1 gadgets per segment")
    w = len(Sigma[0][0])
    ident, zeros = identity_perm(w), (0,) * w
    pairs = []
    for xs, sigmas in zip(X, Sigma):
        prev_inv = None  # (sigma^{i-1})^-1 once gadget i-1 of the row is laid down
        for x, sigma in zip(xs, sigmas):
            perm, bits, inverse = _check_gadget(x, sigma, w)
            step = perm if prev_inv is None else tuple(perm[g - 1] for g in prev_inv)
            pairs += ((step, zeros), (ident, bits))
            prev_inv = inverse
        pairs.append((prev_inv, zeros))
    return _built(w, pairs)


def _check_group(j: int, width: int) -> None:
    """ValueError unless j names one of the groups 1..width."""
    if not 1 <= j <= width:
        raise ValueError(f"group index {j} out of range 1..{width}")


def group_map(g: GroupLayeredGraph, j: int) -> int:
    """Last-layer group reachable from first-layer group j."""
    _check_group(j, g.width)
    for m in g.matchings:
        j = m.pi[j - 1]
    return j


def parity(g: GroupLayeredGraph, j: int) -> int:
    """XOR of crossing bits along group j's path.

    0 means a^1_j leads to the a-side vertex of group_map(g, j) in the last
    layer (and b to b); 1 means the sides swap.
    """
    _check_group(j, g.width)
    bit = 0
    for m in g.matchings:
        bit ^= m.cross[j - 1]
        j = m.pi[j - 1]
    return bit


class EdgeView(Sequence):
    """A list of (u, v) edges held as a read-only (E, 2) int64 array.

    Reads like the list it stands for: ``len``, iteration and indexing give
    tuples of Python ints, slices are views, and it equals any list or tuple
    of the same pairs in the same order.  ``array`` is the array itself, and
    ``np.asarray`` returns it without a copy.
    """

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray) -> None:
        if array.flags.writeable:
            array = array.view()
            array.flags.writeable = False
        self.array = array

    def __len__(self) -> int:
        return len(self.array)

    def __iter__(self):
        return zip(self.array[:, 0].tolist(), self.array[:, 1].tolist())

    def __getitem__(self, index):
        if isinstance(index, slice):
            return EdgeView(self.array[index])
        u, v = self.array[index].tolist()
        return u, v

    def __eq__(self, other) -> bool:
        if isinstance(other, EdgeView):
            return np.array_equal(self.array, other.array)
        if isinstance(other, (list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        if copy:
            return np.array(self.array, dtype=dtype)
        out = self.array if dtype is None else self.array.astype(dtype, copy=False)
        if copy is False and out is not self.array:
            raise ValueError(f"an EdgeView holds int64, not {np.dtype(dtype)}, so a copy is needed")
        return out

    def __repr__(self) -> str:
        return f"EdgeView({len(self)} edges)"


def edge_rows(targets: np.ndarray) -> np.ndarray:
    """Layered edges as a fresh (E, 2) int64 array: row p is (p, targets[p])."""
    return np.stack([np.arange(targets.size), targets], axis=1)


def to_edges(g: GroupLayeredGraph) -> EdgeView:
    """The 2w(d-1) edges on canonical ids (u < v), ordered by layer, group, side."""
    return EdgeView(edge_rows(g._targets))
