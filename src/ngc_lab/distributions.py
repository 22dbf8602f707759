"""Hard-instance distributions over layered cycle/path graphs.

The flagship sampler draws a hidden bit theta and a uniformly random witness
(cross vectors X, permutations Sigma) conditioned so that the first m groups
all accumulate crossing parity theta; auxiliary edges then close those groups
into cycles.  The result is a graph that is, component for component, either
n/2k cycles of length k (theta=0) or n/4k cycles of length 2k (theta=1), plus
n/2k camouflage paths — the gap a counting algorithm has to detect.

Also here: the hybrid interpolation family (first h groups parity 0, the rest
of the constrained groups parity 1), the fully unconditioned distribution used
as a reduction target, depth padding for k not of the exact gadget shape,
the weighted augmentation that turns the cycle gap into a spanning-tree gap,
and the batched multi-segment variant whose edges arrive in size-2 batches.

Conditioning is realized by forcing the last gadget: all permutations and all
earlier cross vectors are uniform, then the constrained coordinates of the
final cross vector are set to hit the target parities and the rest filled
uniformly.  The constrained coordinates are distinct, so this is exactly the
uniform conditional law (pinned by a chi-square test over the enumerated
support at small parameters).
"""

from __future__ import annotations

import operator
import random
import warnings
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import chain

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .gadgets import (
    SIDE_A,
    SIDE_B,
    Edge,
    EdgeView,
    GroupLayeredGraph,
    _check_group,
    edge_rows,
    make_multi_block,
    make_multi_segment,
    matching_targets,
    vertex_id,
)
from .seeds import KeyStreams, Seed, as_seed, randrange_many, randrange_rows, sample_range

_SIDES = np.array([SIDE_A, SIDE_B])


def as_edge_array(edges: Iterable[Edge] | np.ndarray) -> np.ndarray:
    """Edges as an (E, 2) int64 array.

    An array passes through reshaped, and an ``EdgeView`` as its own array.
    """
    if isinstance(edges, EdgeView):
        return edges.array
    if isinstance(edges, np.ndarray):
        return edges.reshape(-1, 2).astype(np.int64, copy=False)
    if not isinstance(edges, Sequence):
        edges = list(edges)
    return np.fromiter(chain.from_iterable(edges), np.int64, 2 * len(edges)).reshape(-1, 2)


def canon_keys(edges: Iterable[Edge] | np.ndarray) -> np.ndarray:
    """One uint64 key per edge, (min << 32) | max: keys sort as canonical edges do.

    Ids outside [0, 2**32) raise ValueError.
    """
    ends = as_edge_array(edges)
    if (ends >> 32).any():
        raise ValueError("edge endpoint outside [0, 2**32)")
    u, v = ends[:, 0], ends[:, 1]
    # a low end >= 2**31 wraps the int64 negative; its bits are the uint64 key
    return (np.minimum(u, v) << 32 | np.maximum(u, v)).view(np.uint64)


def keys_to_edges(keys: np.ndarray) -> np.ndarray:
    """The (K, 2) int64 canonical edges of ``canon_keys`` keys."""
    return np.stack([keys >> 32, keys & 0xFFFFFFFF], axis=1).astype(np.int64)


def distinct_keys(keys: np.ndarray) -> np.ndarray:
    """The distinct keys, sorted."""
    keys = np.sort(keys)
    return keys[np.concatenate([[True], keys[1:] != keys[:-1]])] if keys.size else keys


def distinct_edges(edges: Iterable[Edge] | np.ndarray) -> np.ndarray:
    """The distinct canonical edges, sorted: a multigraph's edge set as (U, 2)."""
    return keys_to_edges(distinct_keys(canon_keys(edges)))


class EdgeTable(Mapping):
    """A read-only map from canonical edges to ints, held as two arrays.

    ``codes`` are the sorted distinct ``canon_keys`` and ``data`` the value
    of each.  Lookups canonicalize, so (u, v) and (v, u) find the same entry;
    iteration yields canonical edges in sorted order.
    """

    def __init__(self, codes: np.ndarray, data: np.ndarray) -> None:
        self.codes = codes
        self.data = data

    @classmethod
    def from_edges(cls, edges: Iterable[Edge] | np.ndarray, data) -> "EdgeTable":
        """Edge i maps to data[i]; of repeated edges the last one wins, as in a dict."""
        keys = canon_keys(edges)[::-1]
        codes, first = np.unique(keys, return_index=True)  # first of the reversed: last
        return cls(codes, np.asarray(data, dtype=np.int64)[::-1][first])

    @classmethod
    def of(cls, mapping: Mapping[Edge, int]) -> "EdgeTable":
        """The mapping itself if it is a table, else a table of its items."""
        if isinstance(mapping, EdgeTable):
            return mapping
        return cls.from_edges(list(mapping), list(mapping.values()))

    def lookup(self, edges: Iterable[Edge] | np.ndarray) -> np.ndarray:
        """The value of every edge, in order.

        An edge not in the table raises KeyError; an id outside [0, 2**32)
        raises ``canon_keys``' ValueError.
        """
        keys = canon_keys(edges)
        at = np.searchsorted(self.codes, keys)
        found = at < len(self.codes)
        found[found] = self.codes[at[found]] == keys[found]
        if not found.all():
            missing = keys[np.argmin(found)]
            raise KeyError((int(missing >> 32), int(missing & 0xFFFFFFFF)))
        return self.data[at]

    def __getitem__(self, edge: Edge) -> int:
        """One edge's value, keyed in plain ints as ``canon_keys`` keys it."""
        u, v = map(operator.index, edge)
        low, high = min(u, v), max(u, v)
        key = low << 32 | high
        at = int(self.codes.searchsorted(key)) if 0 <= low and high < 2**32 else len(self)
        if at == len(self) or int(self.codes[at]) != key:
            raise KeyError((low, high))
        return int(self.data[at])

    def __iter__(self) -> Iterator[Edge]:
        ends = keys_to_edges(self.codes)
        return zip(ends[:, 0].tolist(), ends[:, 1].tolist())

    def __len__(self) -> int:
        return len(self.codes)

    def values(self) -> list[int]:
        return self.data.tolist()

    def items(self) -> list[tuple[Edge, int]]:
        return list(zip(self, self.data.tolist()))

    def __repr__(self) -> str:
        return f"EdgeTable({len(self)} edges)"


@dataclass(frozen=True)
class Witness:
    """The random bits that define an instance's core graph.

    Block form: X and Sigma are length-t tuples (one cross vector / one
    permutation per block).  Segment form: s x t nested tuples, one entry per
    gadget of each segment.  The witness describes the unpadded core.
    """

    form: str  # "block" | "segment"
    X: tuple
    Sigma: tuple

    def __post_init__(self) -> None:
        if self.form not in ("block", "segment"):
            raise ValueError(f"unknown witness form {self.form!r}")

    @classmethod
    def from_gadgets(cls, form: str, xs: Sequence, sigmas: Sequence, t: int) -> "Witness":
        """Assemble from row-major lists of cross vectors and permutations, t per row."""
        if form == "block":
            X, Sigma = tuple(xs), tuple(sigmas)
        elif form == "segment":
            rows = range(0, len(xs), t)
            X = tuple(tuple(xs[i : i + t]) for i in rows)
            Sigma = tuple(tuple(sigmas[i : i + t]) for i in rows)
        else:
            return cls(form, tuple(xs), tuple(sigmas))  # raises: __post_init__ checks the form
        witness = object.__new__(cls)  # the form is the one field __init__ would check
        fields = witness.__dict__
        fields["form"], fields["X"], fields["Sigma"] = form, X, Sigma
        return witness

    @property
    def gadgets(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """(cross vector, permutation) of every gadget, segments in row-major order."""
        if self.form == "block":
            return list(zip(self.X, self.Sigma))
        return [g for row in zip(self.X, self.Sigma) for g in zip(*row)]

    def parity(self, group: int) -> int:
        """Crossing parity XOR_i x^i_{sigma^i(group)} of one start group 1..w."""
        gadgets = self.gadgets
        _check_group(group, len(gadgets[0][1]) if gadgets else 0)
        return crossing_parity(gadgets, group)

    def build(self) -> GroupLayeredGraph:
        if self.form == "block":
            return make_multi_block(self.X, self.Sigma)
        return make_multi_segment(self.X, self.Sigma)


def crossing_parity(gadgets: Iterable[tuple[Sequence[int], Sequence[int]]], group: int) -> int:
    """XOR of the cross bits start group `group` picks up across (x, sigma) gadgets."""
    bit = 0
    for x, sigma in gadgets:
        bit ^= x[sigma[group - 1] - 1]
    return bit


@dataclass(frozen=True)
class NgcInstance:
    """A witness at depth k, plus closers on the first m groups.

    The witness fixes the core (depth ``core_k``); depth k puts k - core_k
    identity layers in front of it.  theta is recorded only at the hybrid
    endpoints; W is the MST augmentation's bridge weight, None when the
    instance is not augmented.  The sizes, the core targets and index
    table, the closers, the augmentation edges, the weights and the batches
    are read off these four fields, each array on first use and with no
    graph built.
    """

    k: int
    theta: int | None
    witness: Witness
    W: int | None = None

    @property
    def form(self) -> str:
        return self.witness.form

    @property
    def t(self) -> int:
        return len(self.witness.Sigma[0] if self.form == "segment" else self.witness.Sigma)

    @property
    def s(self) -> int | None:
        return len(self.witness.Sigma) if self.form == "segment" else None

    @property
    def width(self) -> int:
        first = self.witness.Sigma[0]
        return len(first[0] if self.form == "segment" else first)

    @property
    def m(self) -> int:
        return self.width // 2

    @property
    def n(self) -> int:
        return 2 * self.width * self.k

    @property
    def core_k(self) -> int:
        if self.s is None:
            return 3 * self.t + 1
        return (2 * self.t + 1) * self.s + 1

    @cached_property
    def _matchings(self) -> tuple[np.ndarray, np.ndarray]:
        """(pi, cross) of the k - 1 matchings as (k - 1, w) arrays, pi 0-based.

        Identity padding, then per row of gadgets (a block is a row of one)
        the steps sigma^i (sigma^{i-1})^-1, each followed by x^i, then the
        closer (sigma^t)^-1: a block reads sigma | x | sigma^-1.
        """
        w, pad, t = self.width, self.k - self.core_k, (1 if self.s is None else self.t)
        sigma = np.array(self.witness.Sigma, dtype=np.int64).reshape(-1, w) - 1  # gadget by gadget
        x = np.array(self.witness.X, dtype=np.int64).reshape(-1, t, w)
        gadgets = np.arange(len(sigma)).reshape(-1, 1)
        inverse = np.empty_like(sigma)
        inverse[gadgets, sigma] = np.arange(w)
        step = sigma
        if t > 1:
            step = sigma[gadgets, np.roll(inverse, 1, axis=0)]
            step[::t] = sigma[::t]
        pi = np.empty((pad + len(x) * (2 * t + 1), w), dtype=np.int64)
        cross = np.zeros_like(pi)
        pi[:pad] = np.arange(w)
        core = pi[pad:].reshape(len(x), 2 * t + 1, w)
        core[:, : 2 * t : 2] = step.reshape(x.shape)
        core[:, 1 : 2 * t : 2] = np.arange(w)
        core[:, -1] = inverse[t - 1 :: t]
        cross[pad:].reshape(core.shape)[:, 1 : 2 * t : 2] = x
        return pi, cross

    @cached_property
    def core_targets(self) -> np.ndarray:
        """Upper ends of the 2w(k-1) core edges, read-only: core edge p runs from vertex p."""
        targets = matching_targets(*self._matchings)
        targets.flags.writeable = False
        return targets

    @cached_property
    def index_table(self) -> np.ndarray:
        """Each block index's six core edge positions, read-only (t, w, 6); block form only.

        Row [i, j-1]: block i+1's a/b edges into its layer-2 group j (from
        group sigma^-1(j)), of its middle matching, and out of layer-3 group j.
        """
        if self.s is not None:
            raise ValueError("index_table needs a block-form instance")
        w, pad = self.width, self.k - self.core_k
        groups = self._matchings[0][pad:].reshape(-1, 3, w)[:, [2, 1, 1]]  # sigma^-1(j), j, j
        sources = 2 * w * np.arange(pad, self.k - 1).reshape(-1, 3, 1) + 2 * groups
        table = (sources.transpose(0, 2, 1)[..., None] + _SIDES).reshape(-1, w, 6)
        table.flags.writeable = False
        return table

    @cached_property
    def edge_array(self) -> np.ndarray:
        """Core edges, then the closers, then any augmentation edges.

        One read-only (E, 2) int64 array, built once; core edge p leaves vertex p.
        """
        parts = [edge_rows(self.core_targets), auxiliary_edges_for(self.k, self.m, self.width).array]
        if self.W is not None:
            parts.append(augmentation_edges_for(self.k, self.m, self.width))
        edges = np.concatenate(parts)
        edges.flags.writeable = False
        return edges

    def all_edges(self) -> EdgeView:
        """Core edges, then closers, then any augmentation edges: a view of ``edge_array``."""
        return EdgeView(self.edge_array)

    @property
    def auxiliary_edges(self) -> EdgeView:
        """The closers: the rows of ``edge_array`` after the core."""
        core = len(self.core_targets)
        return self.all_edges()[core : core + 2 * self.m]

    @cached_property
    def extra_edges(self) -> EdgeView:
        """The augmentation edges: the last 4m rows of ``edge_array``, none unless augmented."""
        extra = 0 if self.W is None else 4 * self.m
        return self.all_edges()[len(self.edge_array) - extra :]

    @cached_property
    def edge_weights(self) -> np.ndarray | None:
        """Each row's weight, aligned with ``edge_array``: read-only (E,) int64.

        Every edge weighs 1 but the m bridges, the first augmentation rows,
        which weigh W; None when the instance is not augmented.
        """
        if self.W is None:
            return None
        weights = np.ones(len(self.edge_array), dtype=np.int64)
        bridges = len(weights) - 4 * self.m
        weights[bridges : bridges + self.m] = self.W
        weights.flags.writeable = False
        return weights

    @property
    def batched_edges(self) -> np.ndarray | None:
        """Segment form: the rows of ``edge_array`` that the batches pair, two by two.

        Batch i is rows 2i and 2i + 1: consecutive core edges (one
        group-transition each), then the closers.  Every edge but the
        augmentation's, which belong to no batch; None in block form.
        """
        if self.s is None:
            return None
        return self.edge_array[: len(self.edge_array) - len(self.extra_edges)]


def auxiliary_edges_for(k: int, m: int, width: int) -> EdgeView:
    """Closers (a^k_j, a^1_j), (b^k_j, b^1_j) for the first m groups.

    The first m groups' 2m vertices are consecutive ids on every layer, a
    before b, so the closers pair two runs of ids.
    """
    top, bottom = vertex_id(k, 1, SIDE_A, width), vertex_id(1, 1, SIDE_A, width)
    run = np.arange(2 * m)
    return EdgeView(np.stack([top + run, bottom + run], axis=1))


def augmentation_edges_for(k: int, m: int, width: int) -> np.ndarray:
    """The MST augmentation's 4m edges as an (4m, 2) int64 array, in order:

    the bridges (a^k_j, b^k_j), then the links (a^1_j, a^1_{m+j}) and
    (a^1_j, b^1_{m+j}) for each j, then the ring (a^1_j, b^1_{j+1}) closed by
    (a^1_m, b^1_1).  Groups are consecutive vertex ids, a before b.
    """
    top, a = vertex_id(k, 1, SIDE_A, width), 2 * np.arange(m)
    bridges = np.stack([top + a, top + a + 1], axis=1)
    links = np.stack([np.repeat(a, 2), np.repeat(a + 2 * m, 2) + np.tile([SIDE_A, SIDE_B], m)], axis=1)
    ring = np.stack([a, np.roll(a, -1) + SIDE_B], axis=1)
    return np.concatenate([bridges, links, ring])


def _perms(rng: random.Random, w: int, count: int) -> list[tuple[int, ...]]:
    """count uniform permutations, each ``rng.sample(range(1, w + 1), w)``."""
    return [tuple(sample_range(rng, w, w)) for _ in range(count)]


def uniform_witness(form: str, w: int, s: int, t: int, seed: Seed | int | None = None) -> Witness:
    """Fully unconditioned width-w witness: t blocks (s = 1) or an s x t segment grid.

    Every cross vector is drawn, then every permutation.  This is the
    reduction's target problem (decide the crossing parity of group 1), with
    no closers and no theta; ``sample_dhx`` and ``sample_dhx_segment`` build
    its graph.
    """
    if w < 1 or s < 1 or t < 1:
        raise ValueError(f"need w, s, t >= 1, got w={w} s={s} t={t}")
    if form == "block" and s != 1:
        raise ValueError(f"a block witness has s = 1, got s={s}")
    rng = as_seed(seed).rng()
    count = s * t
    xs = list(zip(*[iter(randrange_many(rng, 2, count * w))] * w))  # runs of w bits
    return Witness.from_gadgets(form, xs, _perms(rng, w, count), t)


def _hybrid(rng: random.Random, m: int, s: int | None, t: int, h: int) -> NgcInstance:
    """Hybrid h on the block (s None) or segment family, drawn from rng.

    Every permutation and cross vector is uniform, then the last gadget's bit
    at sigma(j) is forced so that group j <= h has parity 0 and h < j <= m has
    parity 1.  The forced slots are distinct, so this is the uniform law given
    those parities.
    """
    if m < 1 or t < 1 or (s is not None and s < 1):
        raise ValueError(f"need m, t >= 1 (and s >= 1), got m={m} t={t} s={s}")
    if not 0 <= h <= m:
        raise ValueError(f"cut index h={h} outside [0, {m}]")
    w = 2 * m
    count = t if s is None else s * t
    k = 3 * t + 1 if s is None else (2 * t + 1) * s + 1
    sigmas = _perms(rng, w, count)
    flat = randrange_many(rng, 2, count * w)
    xs = [flat[i : i + w] for i in range(0, count * w, w)]
    force = [0] * h + [1] * (m - h)  # group j's parity (j > h), less each earlier gadget's bit
    for x, sigma in zip(xs[:-1], sigmas[:-1]):
        force = [bit ^ x[image - 1] for bit, image in zip(force, sigma)]
    for image, bit in zip(sigmas[-1], force):
        xs[-1][image - 1] = bit
    xs = [tuple(x) for x in xs]
    witness = Witness.from_gadgets("block" if s is None else "segment", xs, sigmas, t)
    return NgcInstance(k, 0 if h == m else (1 if h == 0 else None), witness)


def ngc_shape(n: int, k: int) -> int:
    """m = n/4k, after checking k >= 4 and that n is a positive multiple of 4k."""
    if k < 4:
        raise ValueError("need k >= 4")
    if n % (4 * k) != 0 or n < 4 * k:
        raise ValueError(f"n={n} must be a positive multiple of 4k={4 * k}")
    return n // (4 * k)


def sample_ngc(n: int, k: int, seed: Seed | int | None = None) -> NgcInstance:
    """Draw theta and a conditioned witness; attach auxiliary edges.

    Requires k = 3t+1 and n = 4km.  The first m of the 2m groups are
    conditioned to parity theta and closed into cycles; the remaining m stay
    open paths with unconstrained parity.  theta=0 is hybrid m, theta=1
    hybrid 0.
    """
    if k < 4 or (k - 1) % 3 != 0:
        raise ValueError(f"k={k} is not of the form 3t+1 with t >= 1")
    m = ngc_shape(n, k)
    rng = as_seed(seed).rng()
    theta = rng.randrange(2)
    return _hybrid(rng, m, None, (k - 1) // 3, 0 if theta else m)


def sample_ngc_sigma1(streams: KeyStreams, w: int) -> np.ndarray:
    """sigma^1(1) of the width-w block instance ``sample_ngc`` draws from each stream.

    ``sample_ngc``'s stream opens with theta = ``randrange(2)``, then the
    first permutation, ``sample(range(1, w + 1), w)``.  In either of
    ``Random.sample``'s branches the first pick is ``randbelow(w)``, the
    attempts of ``randrange(w)``, and sigma^1(1) is one more than it.  So two
    batched reads give the image for every stream, shape (len(streams),),
    without the rest of the instance; the streams stop right after it.
    """
    randrange_rows(streams, 2, 1)  # theta
    return randrange_rows(streams, w, 1)[:, 0] + 1


def sample_hybrid(m: int, t: int, h: int, seed: Seed | int | None = None) -> NgcInstance:
    """Interpolation step h: parity 0 for groups j <= h, parity 1 for h < j <= m.

    h=0 reproduces the theta=1 branch and h=m the theta=0 branch; intermediate
    h mixes them groupwise.  theta is recorded only at the endpoints.  Like
    every instance, a hybrid closes its first m groups with auxiliary edges.
    """
    return _hybrid(as_seed(seed).rng(), m, None, t, h)


def sample_dhx(
    w: int, t: int, seed: Seed | int | None = None
) -> tuple[GroupLayeredGraph, Witness]:
    """``uniform_witness`` in block form, with its graph."""
    witness = uniform_witness("block", w, 1, t, seed)
    return witness.build(), witness


def sample_dhx_segment(
    w: int, s: int, t: int, seed: Seed | int | None = None
) -> tuple[GroupLayeredGraph, Witness]:
    """``uniform_witness`` on an s x t segment grid, with its graph: the batched reduction's target."""
    witness = uniform_witness("segment", w, s, t, seed)
    return witness.build(), witness


def sample_ngc_batched(
    n: int, k: int, s: int, t: int, seed: Seed | int | None = None
) -> NgcInstance:
    """Segment-form sampler whose edges come pre-grouped into size-2 batches.

    Requires k = (2t+1)s+1 and n = 4km.  Each batch holds the a/b edge pair of
    one group-transition of one gadget (or one group's pair of closers), so a
    batch reveals one coordinate of one cross vector and one permutation image.
    """
    if k != (2 * t + 1) * s + 1:
        raise ValueError(f"k={k} != (2t+1)s+1 for s={s}, t={t}")
    m = ngc_shape(n, k)
    rng = as_seed(seed).rng()
    theta = rng.randrange(2)
    return _hybrid(rng, m, s, t, 0 if theta else m)


def sample_hybrid_batched(
    m: int, s: int, t: int, h: int, seed: Seed | int | None = None
) -> NgcInstance:
    """Batched counterpart of sample_hybrid on the multi-segment family, closers batched too."""
    return _hybrid(as_seed(seed).rng(), m, s, t, h)


def pad_to_k(instance: NgcInstance, k: int) -> NgcInstance:
    """The same instance at depth k: k - core_k identity layers before the core.

    k = core+1 or core+2 handles every k >= 4 (k mod 3 = 2 or 0); k equal to
    the instance's depth returns it unchanged.  Group structure and parities
    are untouched, and the closers and batches, read off k, span the new
    depth, so cycle lengths land exactly on k.
    """
    if k < 4:
        raise ValueError("padding target k must be >= 4")
    if instance.W is not None:
        raise ValueError("pad before weighting, not after")
    pad = k - instance.k
    if pad == 0:
        return instance
    if pad not in (1, 2):
        raise ValueError(
            f"cannot pad core k={instance.k} to k={k}: only 1 or 2 identity layers"
        )
    return replace(instance, k=k)


def mst_augment(instance: NgcInstance, W: int) -> NgcInstance:
    """Add the weighted scaffolding that converts the cycle gap to an MST gap.

    All existing edges get weight 1.  New edges: (a^k_j, b^k_j) of weight W
    for j in [m]; weight-1 links (a^1_j, a^1_{m+j}) and (a^1_j, b^1_{m+j});
    and a weight-1 ring (a^1_j, b^1_{j+1}) for j in [m-1] closed by
    (a^1_m, b^1_1).  theta=1 then admits a spanning tree of weight n-1, while
    theta=0 forces m-1 of the weight-W edges.  W must lie in [2, 2**63), the
    instance file's int64 range.
    """
    if not isinstance(W, int) or not 2 <= W < 2**63:
        raise ValueError(f"weight W must be an integer in [2, 2**63), got W={W!r}")
    if instance.m < 2:
        warnings.warn("m=1 makes the MST gap degenerate (W multiplier is m-1=0)")
    return replace(instance, W=W)


@dataclass
class Census:
    """Exact component census: cycle/path multiplicity by length (in edges)."""

    cycles: dict[int, int] = field(default_factory=dict)
    paths: dict[int, int] = field(default_factory=dict)
    components: int = 0
    degree_violations: tuple[int, ...] = ()

    def count_cycles(self, length: int) -> int:
        return self.cycles.get(length, 0)

    def count_paths(self, length: int) -> int:
        return self.paths.get(length, 0)


def _tally(lengths: np.ndarray) -> dict[int, int]:
    keys, counts = np.unique(lengths, return_counts=True)
    return dict(zip(keys.tolist(), counts.tolist()))


def _adjacency(
    n_vertices: int, edges: Iterable[Edge] | np.ndarray
) -> tuple[np.ndarray, coo_matrix]:
    """The (E, 2) edge array and its n x n adjacency; ids outside [0, n) raise ValueError."""
    ends = as_edge_array(edges)
    flat = ends.ravel()
    if flat.size and (flat.min() < 0 or flat.max() >= n_vertices):
        bad = flat[(flat < 0) | (flat >= n_vertices)][0]
        raise ValueError(f"edge endpoint {bad} outside the vertex range [0, {n_vertices})")
    u, v = ends[:, 0], ends[:, 1]
    return ends, coo_matrix((np.ones(u.size), (u, v)), shape=(n_vertices, n_vertices))


def component_pass(
    n_vertices: int, edges: Iterable[Edge] | np.ndarray
) -> tuple[np.ndarray, ...]:
    """One connected-components pass over a multigraph on vertices 0..n-1.

    Returns (label, size, nedges, cycle, degree): each vertex's component
    label, then per component its vertex count, edge count and cycle flag (all
    degrees 2 and #edges == #vertices), then each vertex's degree.  Ids
    outside [0, n) raise ValueError.
    """
    ends, adjacency = _adjacency(n_vertices, edges)
    components, label = connected_components(adjacency, directed=False)
    degree = np.bincount(ends.ravel(), minlength=n_vertices)
    size = np.bincount(label, minlength=components)
    nedges = np.bincount(label[ends[:, 0]], minlength=components)
    irregular = np.bincount(label, weights=degree != 2, minlength=components)
    cycle = (irregular == 0) & (nedges == size)
    return label, size, nedges, cycle, degree


def component_count(n_vertices: int, edges: Iterable[Edge] | np.ndarray) -> int:
    """The number of connected components of a multigraph on vertices 0..n-1.

    ``census_of_edges(n_vertices, edges).components``, without the labels and
    per-component counts; ids outside [0, n) raise ValueError.
    """
    _, adjacency = _adjacency(n_vertices, edges)
    return int(connected_components(adjacency, directed=False, return_labels=False))


def census_of_edges(n_vertices: int, edges: Iterable[Edge] | np.ndarray) -> Census:
    """Connected-components census of a multigraph on vertices 0..n-1.

    ``edges`` is an (E, 2) array or any iterable of (u, v) pairs.

    A component with #edges == #vertices and all degrees 2 is a cycle of that
    length; otherwise it is reported as a path keyed by edge count (isolated
    vertex = path of length 0).  Vertices of degree > 2 are flagged, not
    crashed on; ids outside [0, n) raise ValueError.
    """
    _, size, nedges, cycle, degree = component_pass(n_vertices, edges)
    return Census(
        cycles=_tally(size[cycle]),
        paths=_tally(nedges[~cycle]),
        components=len(size),
        degree_violations=tuple(np.flatnonzero(degree > 2).tolist()),
    )


def census_law(k: int, m: int, theta: int) -> Census:
    """The component law of a theta-conditioned instance of depth k with 2m groups.

    theta=0 gives n/2k = 2m cycles of k edges, theta=1 gives n/4k = m cycles
    of 2k edges, and the m unconstrained groups always contribute 2m paths of
    k-1 edges.
    """
    cycles = {k: 2 * m} if theta == 0 else {2 * k: m}
    return Census(cycles=cycles, paths={k - 1: 2 * m}, components=sum(cycles.values()) + 2 * m)


def validate_instance(instance: NgcInstance) -> Census:
    """Exact structural census of the full edge set (core + closers + extras)."""
    return census_of_edges(instance.n, instance.edge_array)
