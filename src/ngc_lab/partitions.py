"""Input-division models: who sees which edges.

Implemented models:

* uniform two-player split — every edge iid to Alice or Bob;
* partition functions — per block, three vertex-keyed maps (fL on layer-2
  targets, fM on layer-2 sources, fR on layer-3 sources) decide ownership of
  the block's three matchings; with uniformly random functions this is
  distributionally identical to the iid split, because every block edge is
  keyed by a distinct (function, vertex) pair;
* batched multi-player — whole batches go iid to one of l players;
* stochastic — each player receives an iid-with-repetition sample of edges.

On top sit the structural events the lower-bound argument tracks: an index is
*clean* when its six block edges land Bob/Alice/Bob (in/mid/out), a block is
*active* when the permutation routes the tracked group 1 onto a (capped)
clean index, and the batched analogues (active segments, good groups).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .distributions import NgcInstance, canon
from .gadgets import Edge, invert_perm, to_edges
from .seeds import Seed, as_seed

ALICE = 0  # alpha
BOB = 1  # beta


@dataclass(frozen=True)
class PartitionFunctions:
    """Per block: fL, fM, fR mapping each of the 2w layer-slot vertices to a player.

    Domain order is (group 1, side a), (group 1, side b), (group 2, side a)...
    so slot 2*(j-1)+side; values are ALICE (alpha) or BOB (beta).
    """

    fL: tuple[tuple[int, ...], ...]
    fM: tuple[tuple[int, ...], ...]
    fR: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not (len(self.fL) == len(self.fM) == len(self.fR)):
            raise ValueError("fL, fM, fR must cover the same number of blocks")
        widths = {len(f) for trio in (self.fL, self.fM, self.fR) for f in trio}
        if len(widths) > 1:
            raise ValueError("all maps must share one domain size 2w")
        for trio in (self.fL, self.fM, self.fR):
            for f in trio:
                if any(v not in (ALICE, BOB) for v in f):
                    raise ValueError("map values must be ALICE/BOB")

    @property
    def t(self) -> int:
        return len(self.fL)


def random_partition_functions(
    w: int, t: int, seed: Seed | int | None = None
) -> PartitionFunctions:
    rng = as_seed(seed).rng()

    def draw() -> tuple[tuple[int, ...], ...]:
        return tuple(
            tuple(rng.randrange(2) for _ in range(2 * w)) for _ in range(t)
        )

    return PartitionFunctions(draw(), draw(), draw())


def constant_partition_functions(w: int, t: int, value: int) -> PartitionFunctions:
    maps = tuple(tuple(value for _ in range(2 * w)) for _ in range(t))
    return PartitionFunctions(maps, maps, maps)


@dataclass(frozen=True)
class EdgeAssignment:
    """Edge ownership under one of the division models.

    two_player: owner maps every edge to ALICE/BOB.  l_player: owner maps
    edges to players 1..l, constant on batches (batch_owners[b] is batch b's
    player).  stochastic: samples[0]/samples[1] are the two players' iid
    multisets and owner is None.
    """

    mode: str  # "two_player" | "l_player" | "stochastic"
    players: int
    owner: dict[Edge, int] | None = None
    batch_owners: tuple[int, ...] | None = None
    samples: tuple[tuple[Edge, ...], ...] | None = None
    c: float | None = None

    def owner_of(self, edge: Edge) -> int:
        assert self.owner is not None
        return self.owner[canon(edge)]


def assign_uniform(
    edges: list[Edge], players: int, seed: Seed | int | None = None
) -> EdgeAssignment:
    """Every edge independently to a uniform player."""
    if players < 2:
        raise ValueError("need at least two players")
    rng = as_seed(seed).rng()
    owner = {canon(e): rng.randrange(players) for e in edges}
    mode = "two_player" if players == 2 else "l_player"
    return EdgeAssignment(mode=mode, players=players, owner=owner)


def _block_matching_range(instance: NgcInstance, block: int) -> tuple[int, int, int]:
    """Matching indices (1-based) of block's L, M, R matchings, padding-aware."""
    pad = instance.k - instance.core_k
    base = pad + 3 * (block - 1)
    return base + 1, base + 2, base + 3


def _edge_of(core_edges: list[Edge], w: int, q: int, src_group: int, side: int) -> Edge:
    """The core edge of matching q leaving (source group, side)."""
    return core_edges[(q - 1) * 2 * w + 2 * (src_group - 1) + side]


def _index_edges_cached(
    instance: NgcInstance, core: list[Edge], block: int, j: int
) -> tuple[tuple[Edge, Edge], tuple[Edge, Edge], tuple[Edge, Edge]]:
    w = instance.width
    qL, qM, qR = _block_matching_range(instance, block)
    piL_inv = invert_perm(instance.graph.matchings[qL - 1].pi)
    src = piL_inv[j - 1]
    into = (_edge_of(core, w, qL, src, 0), _edge_of(core, w, qL, src, 1))
    mid = (_edge_of(core, w, qM, j, 0), _edge_of(core, w, qM, j, 1))
    out = (_edge_of(core, w, qR, j, 0), _edge_of(core, w, qR, j, 1))
    return into, mid, out


def index_edges(
    instance: NgcInstance, block: int, j: int
) -> tuple[tuple[Edge, Edge], tuple[Edge, Edge], tuple[Edge, Edge]]:
    """Index j's six block edges: (into layer 2, middle, out of layer 3).

    "Layer 2/3" are the block's middle layers; j names the group there (the
    middle matching of a block never permutes groups).
    """
    if instance.form != "block":
        raise ValueError("index_edges needs a block-form instance")
    return _index_edges_cached(instance, to_edges(instance.graph), block, j)


def assign_by_functions(
    instance: NgcInstance,
    F: PartitionFunctions,
    seed: Seed | int | None = None,
) -> EdgeAssignment:
    """Ownership from partition functions; non-block edges split iid uniform.

    Within block i: an edge into layer-2 vertex u goes to fL_i(u), a middle
    edge leaving layer-2 vertex u to fM_i(u), an edge leaving layer-3 vertex v
    to fR_i(v).
    """
    if instance.form != "block":
        raise ValueError("assign_by_functions needs a block-form instance")
    if F.t != instance.t:
        raise ValueError(f"F covers {F.t} blocks, instance has {instance.t}")
    w = instance.width
    if F.fL and len(F.fL[0]) != 2 * w:
        raise ValueError("F domain size differs from 2w")
    rng = as_seed(seed).rng()
    owner: dict[Edge, int] = {}
    core = to_edges(instance.graph)
    pad = instance.k - instance.core_k
    for q, m in enumerate(instance.graph.matchings, start=1):
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


def index_ownership_pattern(
    instance: NgcInstance, assignment: EdgeAssignment, block: int, j: int
) -> tuple[int, ...]:
    """The six owners (in-a, in-b, mid-a, mid-b, out-a, out-b) of index j."""
    into, mid, out = index_edges(instance, block, j)
    return tuple(assignment.owner_of(e) for pair in (into, mid, out) for e in pair)


CLEAN_PATTERN = (BOB, BOB, ALICE, ALICE, BOB, BOB)


@dataclass(frozen=True)
class BlockCleanEntry:
    block: int
    clean: tuple[int, ...]  # capped, lexicographically-first
    clean_uncapped: tuple[int, ...]
    w_c: int
    cap_floored: bool
    sigma1: int | None = None
    active: bool | None = None
    active_uncapped: bool | None = None


@dataclass(frozen=True)
class CleanReport:
    entries: tuple[BlockCleanEntry, ...]

    @property
    def active_list(self) -> tuple[int, ...]:
        return tuple(e.block for e in self.entries if e.active)

    @property
    def t_a(self) -> int:
        return len(self.active_list)


def _cap(uncapped: tuple[int, ...], w: int, w_c_raw: int) -> tuple[tuple[int, ...], int, bool]:
    floored = w_c_raw < 1
    w_c = max(1, w_c_raw)
    return uncapped[:w_c], w_c, floored


def clean_indices(
    instance: NgcInstance,
    F_or_assignment: PartitionFunctions | EdgeAssignment,
    seed: Seed | int | None = None,
) -> CleanReport:
    """Per block, the indices whose six edges split Bob/Alice/Bob.

    Accepts partition functions directly (ownership read off the maps) or an
    existing two-player assignment (ownership read off the edges); the seed is
    only used when functions are given, to split non-block edges.  Clean sets
    are capped to w_c = max(1, floor(w/100)), lexicographically-first; the
    floor substitution is flagged in the report.
    """
    if isinstance(F_or_assignment, PartitionFunctions):
        assignment = assign_by_functions(instance, F_or_assignment, seed)
    else:
        assignment = F_or_assignment
        if assignment.mode != "two_player":
            raise ValueError("clean_indices needs a two-player assignment")
    w = instance.width
    core = to_edges(instance.graph)
    entries = []
    for block in range(1, instance.t + 1):
        qL, qM, qR = _block_matching_range(instance, block)
        piL_inv = invert_perm(instance.graph.matchings[qL - 1].pi)
        uncapped = []
        for j in range(1, w + 1):
            src = piL_inv[j - 1]
            six = (
                _edge_of(core, w, qL, src, 0),
                _edge_of(core, w, qL, src, 1),
                _edge_of(core, w, qM, j, 0),
                _edge_of(core, w, qM, j, 1),
                _edge_of(core, w, qR, j, 0),
                _edge_of(core, w, qR, j, 1),
            )
            if tuple(assignment.owner_of(e) for e in six) == CLEAN_PATTERN:
                uncapped.append(j)
        uncapped = tuple(uncapped)
        capped, w_c, floored = _cap(uncapped, w, w // 100)
        entries.append(
            BlockCleanEntry(
                block=block,
                clean=capped,
                clean_uncapped=uncapped,
                w_c=w_c,
                cap_floored=floored,
            )
        )
    return CleanReport(tuple(entries))


def active_blocks(
    instance: NgcInstance,
    F_or_assignment: PartitionFunctions | EdgeAssignment,
    seed: Seed | int | None = None,
) -> CleanReport:
    """Clean report extended with activity: block i is active iff sigma^i(1)

    lands in its capped clean set (membership in the uncapped set is reported
    alongside, since the cap is a desk-scale artifact).
    """
    if instance.witness.form != "block":
        raise ValueError("active_blocks needs a block-form witness")
    base = clean_indices(instance, F_or_assignment, seed)
    entries = []
    for entry in base.entries:
        sigma1 = instance.witness.Sigma[entry.block - 1][0]
        entries.append(
            BlockCleanEntry(
                block=entry.block,
                clean=entry.clean,
                clean_uncapped=entry.clean_uncapped,
                w_c=entry.w_c,
                cap_floored=entry.cap_floored,
                sigma1=sigma1,
                active=sigma1 in entry.clean,
                active_uncapped=sigma1 in entry.clean_uncapped,
            )
        )
    return CleanReport(tuple(entries))


def assign_batches(
    instance: NgcInstance, l: int, seed: Seed | int | None = None
) -> EdgeAssignment:
    """Each batch iid uniform over players 1..l; both edges follow their batch."""
    if instance.batches is None:
        raise ValueError("instance carries no batches")
    if l < 1:
        raise ValueError("need at least one player")
    rng = as_seed(seed).rng()
    batch_owners = tuple(rng.randrange(1, l + 1) for _ in instance.batches)
    owner: dict[Edge, int] = {}
    for b, (e1, e2) in enumerate(instance.batches):
        owner[canon(e1)] = batch_owners[b]
        owner[canon(e2)] = batch_owners[b]
    return EdgeAssignment(
        mode="l_player", players=l, owner=owner, batch_owners=batch_owners
    )


@dataclass(frozen=True)
class SegmentReport:
    segment: int
    active: bool
    a_star: int | None
    group_star: int | None
    alpha: int | None
    beta: int | None
    good_groups: tuple[int, ...]

    @property
    def good_count(self) -> int:
        return len(self.good_groups)


def _batch_of(w: int, q: int, src_group: int) -> int:
    """Batch id of matching q's (source-group) edge pair under canonical batching."""
    return (q - 1) * w + (src_group - 1)


def active_segments(
    instance: NgcInstance,
    assignment: EdgeAssignment,
    s: int | None = None,
    t: int | None = None,
    l: int | None = None,
) -> tuple[SegmentReport, ...]:
    """Per segment: activity, the activating position/group, and good groups.

    Segment i is active iff some group at one of its even layers (local layer
    2a, a in [t]) has its outgoing batch owned by player beta and incoming by
    alpha with window(i) containing beta < alpha, where window(i) is the i-th
    run of l/s consecutive players.  First (a, j) in lexicographic order sets
    (a*, alpha, beta); good groups are the *other* groups with the same
    (out, in) owner pair at that layer.
    """
    if instance.form != "segment" or instance.s is None:
        raise ValueError("active_segments needs a segment-form instance")
    if assignment.mode != "l_player" or assignment.batch_owners is None:
        raise ValueError("active_segments needs a batched assignment")
    s = instance.s if s is None else s
    t = instance.t if t is None else t
    l = assignment.players if l is None else l
    if (s, t) != (instance.s, instance.t):
        raise ValueError("s/t disagree with the instance")
    if l != assignment.players:
        raise ValueError("l disagrees with the assignment")
    if l % s != 0:
        raise ValueError(f"player count l={l} not divisible by segment count s={s}")
    w = instance.width
    window = l // s
    matchings = instance.graph.matchings
    owners = assignment.batch_owners
    reports = []
    for i in range(1, s + 1):
        lo, hi = window * (i - 1) + 1, window * i
        hit: tuple[int, int, int, int] | None = None  # (a, j, beta, alpha)
        for a in range(1, t + 1):
            q_in = (2 * t + 1) * (i - 1) + 2 * a - 1
            q_out = q_in + 1
            pi_in_inv = invert_perm(matchings[q_in - 1].pi)
            for j in range(1, w + 1):
                beta = owners[_batch_of(w, q_out, j)]
                alpha = owners[_batch_of(w, q_in, pi_in_inv[j - 1])]
                if lo <= beta < alpha <= hi:
                    hit = (a, j, beta, alpha)
                    break
            if hit:
                break
        if hit is None:
            reports.append(SegmentReport(i, False, None, None, None, None, ()))
            continue
        a_star, j_star, beta, alpha = hit
        q_in = (2 * t + 1) * (i - 1) + 2 * a_star - 1
        q_out = q_in + 1
        pi_in_inv = invert_perm(matchings[q_in - 1].pi)
        good = tuple(
            j
            for j in range(1, w + 1)
            if j != j_star
            and owners[_batch_of(w, q_out, j)] == beta
            and owners[_batch_of(w, q_in, pi_in_inv[j - 1])] == alpha
        )
        reports.append(SegmentReport(i, True, a_star, j_star, alpha, beta, good))
    return tuple(reports)


def stochastic_assign(
    edges: list[Edge], c: float, seed: Seed | int | None = None
) -> EdgeAssignment:
    """Each player an iid sample (with repetition) of ceil(c*|E|/2) edges."""
    if c < 0:
        raise ValueError("need c >= 0")
    rng = as_seed(seed).rng()
    count = math.ceil(c * len(edges) / 2)
    sample_a = tuple(edges[rng.randrange(len(edges))] for _ in range(count))
    sample_b = tuple(edges[rng.randrange(len(edges))] for _ in range(count))
    return EdgeAssignment(
        mode="stochastic", players=2, samples=(sample_a, sample_b), c=c
    )


def clean_indices_stochastic(
    instance: NgcInstance, assignment: EdgeAssignment
) -> CleanReport:
    """Stochastic cleanliness: outer edges unseen by Alice but seen by Bob,

    middle edges unseen by Bob but seen by Alice.  Cap is
    max(1, floor(w / (2 e^{9c}))), lexicographically-first.
    """
    if assignment.mode != "stochastic" or assignment.samples is None:
        raise ValueError("clean_indices_stochastic needs a stochastic assignment")
    assert assignment.c is not None
    w = instance.width
    core = to_edges(instance.graph)
    seen_a = {canon(e) for e in assignment.samples[0]}
    seen_b = {canon(e) for e in assignment.samples[1]}
    w_c_raw = int(w / (2 * math.exp(9 * assignment.c)))
    entries = []
    for block in range(1, instance.t + 1):
        uncapped = []
        for j in range(1, w + 1):
            into, mid, out = _index_edges_cached(instance, core, block, j)
            outer = [canon(e) for e in into + out]
            middle = [canon(e) for e in mid]
            if all(e not in seen_a and e in seen_b for e in outer) and all(
                e not in seen_b and e in seen_a for e in middle
            ):
                uncapped.append(j)
        capped, w_c, floored = _cap(tuple(uncapped), w, w_c_raw)
        entries.append(
            BlockCleanEntry(
                block=block,
                clean=capped,
                clean_uncapped=tuple(uncapped),
                w_c=w_c,
                cap_floored=floored,
            )
        )
    return CleanReport(tuple(entries))
