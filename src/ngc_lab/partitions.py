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

Draws are made in bulk (``seeds.randrange_array`` and its list view
``randrange_many``) but from the identical stream, value for value, as one
``randrange`` per edge or map slot.  ``partition_slots`` and
``stochastic_picks`` take the word streams of a run of seed keys
(``seeds.KeyStreams``) and read them all at once (``seeds.randrange_rows``),
row r being key r's draw; ``random_partition_functions`` and
``stochastic_assign`` make the same draws on one seed's own generator, so
the batched suites and the object route share one law.  An owner map is an
``EdgeTable`` (sorted canonical edge keys plus one owner each), so a split
is one vectorized lookup and a boolean index.  Clean events are read off
owner arrays through a table of each index's six positions: the instance's
``index_table`` of core edge positions, or ``function_index_table`` over F's
slots, which ``clean_indices`` reads owning no edge.  ``clean_masks`` and
``seen_counts`` accept leading axes, so one call counts a batch of trials.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import itemgetter

import numpy as np

from .distributions import EdgeTable, NgcInstance, as_edge_array
from .gadgets import Edge
from .seeds import KeyStreams, Seed, as_seed, randrange_array, randrange_many, randrange_rows

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
        maps = (*self.fL, *self.fM, *self.fR)
        if len({len(f) for f in maps}) > 1:
            raise ValueError("all maps must share one domain size 2w")
        if not set(chain.from_iterable(maps)) <= {ALICE, BOB}:
            raise ValueError("map values must be ALICE/BOB")

    @property
    def t(self) -> int:
        return len(self.fL)


def partition_slots(streams: KeyStreams, w: int, t: int) -> np.ndarray:
    """Uniform partition functions' 6wt slots per stream, shape (len(streams), 6wt), int8.

    One ``randrange(2)`` per slot: all of fL's slots block by block, then
    fM's, then fR's, 2w each; ``function_index_table`` reads this layout.
    """
    return randrange_rows(streams, 2, 3 * t * 2 * w).astype(np.int8)


def random_partition_functions(
    w: int, t: int, seed: Seed | int | None = None
) -> PartitionFunctions:
    """Uniform maps: the slots ``partition_slots`` reads, drawn on the seed's own generator."""
    bits = randrange_many(as_seed(seed).rng(), 2, 6 * w * t)
    maps = tuple(tuple(bits[i * 2 * w : (i + 1) * 2 * w]) for i in range(3 * t))
    return PartitionFunctions(maps[:t], maps[t : 2 * t], maps[2 * t :])


@dataclass(frozen=True)
class EdgeAssignment:
    """Edge ownership under one of the division models.

    two_player: owner maps every edge to ALICE/BOB.  l_player: owner maps
    edges to players 1..l, constant on batches (batch_owners[b] is batch b's
    player).  stochastic: samples[0]/samples[1] are the two players' iid
    multisets and owner is None.  The models build owner as an
    ``EdgeTable``; any mapping keyed by canonical edges is read the same way.
    """

    mode: str  # "two_player" | "l_player" | "stochastic"
    players: int
    owner: Mapping[Edge, int] | None = None
    batch_owners: tuple[int, ...] | None = None
    samples: tuple[tuple[Edge, ...], ...] | None = None
    c: float | None = None

    @cached_property
    def _table(self) -> EdgeTable:
        assert self.owner is not None
        return EdgeTable.of(self.owner)

    def owner_of(self, edge: Edge) -> int:
        return self._table[edge]

    @cached_property
    def _sample_ends(self) -> np.ndarray:
        """Both samples as one (S, 2) array of edge ends, Alice's first."""
        assert self.samples is not None
        return as_edge_array(list(chain(*self.samples)))

    def split(self, edges: list[Edge] | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(Alice's edges, everyone else's) as (E, 2) arrays, each in the order given."""
        ends = as_edge_array(edges)
        alice = self._table.lookup(ends) == ALICE
        return ends[alice], ends[~alice]


def assign_uniform(
    edges: list[Edge] | np.ndarray, players: int, seed: Seed | int | None = None
) -> EdgeAssignment:
    """Every edge independently to a uniform player (a repeated edge keeps its last draw)."""
    if players < 2:
        raise ValueError("need at least two players")
    ends = as_edge_array(edges)
    draws = randrange_array(as_seed(seed).rng(), players, len(ends))
    mode = "two_player" if players == 2 else "l_player"
    return EdgeAssignment(mode=mode, players=players, owner=EdgeTable.from_edges(ends, draws))


def _require_block(instance: NgcInstance, what: str) -> None:
    if instance.form != "block":
        raise ValueError(f"{what} needs a block-form instance")


def index_edges(
    instance: NgcInstance, block: int, j: int
) -> tuple[tuple[Edge, Edge], tuple[Edge, Edge], tuple[Edge, Edge]]:
    """Index j's six block edges: (into layer 2, middle, out of layer 3).

    "Layer 2/3" are the block's middle layers; j names the group there (the
    middle matching of a block never permutes groups).
    """
    _require_block(instance, "index_edges")
    if not (1 <= block <= instance.t and 1 <= j <= instance.width):
        raise ValueError(f"no index j={j} in block {block} (t={instance.t}, w={instance.width})")
    rows = instance.edge_array[instance.index_table[block - 1, j - 1]]
    e = tuple(map(tuple, rows.tolist()))
    return e[0:2], e[2:4], e[4:6]


def _require_functions(instance: NgcInstance, F: PartitionFunctions, what: str) -> None:
    _require_block(instance, what)
    if F.t != instance.t:
        raise ValueError(f"F covers {F.t} blocks, instance has {instance.t}")
    if F.fL and len(F.fL[0]) != 2 * instance.width:
        raise ValueError("F domain size differs from 2w")


def assign_by_functions(
    instance: NgcInstance,
    F: PartitionFunctions,
    seed: Seed | int | None = None,
) -> EdgeAssignment:
    """Ownership from partition functions; non-block edges split iid uniform.

    Within block i: an edge into layer-2 vertex u goes to fL_i(u), a middle
    edge leaving layer-2 vertex u to fM_i(u), an edge leaving layer-3 vertex v
    to fR_i(v).  Padding edges, then auxiliary and augmentation edges, take
    one uniform draw each, in edge order.
    """
    _require_functions(instance, F, "assign_by_functions")
    w = instance.width
    targets = instance.core_targets
    pad_edges = 2 * w * (instance.k - instance.core_k)
    loose = len(instance.edge_array) - len(targets)
    draws = randrange_many(as_seed(seed).rng(), 2, pad_edges + loose)
    owners = draws[:pad_edges]
    for block, (fl, fm, fr) in enumerate(zip(F.fL, F.fM, F.fR)):
        # block i's into-edges, keyed by their target's slot: the id mod 2w
        first = pad_edges + 6 * w * block
        owners += itemgetter(*(targets[first : first + 2 * w] % (2 * w)).tolist())(fl)
        owners += fm
        owners += fr
    owners += draws[pad_edges:]
    owner = EdgeTable.from_edges(instance.edge_array, owners)
    return EdgeAssignment(mode="two_player", players=2, owner=owner)


def index_ownership_pattern(
    instance: NgcInstance, assignment: EdgeAssignment, block: int, j: int
) -> tuple[int, ...]:
    """The six owners (in-a, in-b, mid-a, mid-b, out-a, out-b) of index j."""
    into, mid, out = index_edges(instance, block, j)
    return tuple(assignment._table.lookup([*into, *mid, *out]).tolist())


def function_index_table(w: int, t: int) -> np.ndarray:
    """Where index j's six owners sit among F's slots, shape (t, w, 6).

    The slots are laid out as ``random_partition_functions`` draws them: fL of
    every block, then fM, then fR, 2w each.  Index j's into pair enters
    layer-2 slots 2j-2 and 2j-1, which key fL; its middle pair leaves those
    slots (fM) and its out pair leaves the layer-3 slots 2j-2 and 2j-1 (fR).
    So under a function split the pattern reads F alone, whatever sigma, x,
    padding or augmentation are.
    """
    return np.arange(6 * t * w).reshape(3, t, w, 2).transpose(1, 2, 0, 3).reshape(t, w, 6)


CLEAN_PATTERN = (BOB, BOB, ALICE, ALICE, BOB, BOB)
_CLEAN = np.array(CLEAN_PATTERN)


def clean_masks(owners: np.ndarray, table: np.ndarray, w_c: int) -> tuple[np.ndarray, np.ndarray]:
    """Clean indices, uncapped and capped to w_c, each of shape (..., blocks, w).

    ``owners[..., p]`` is the owner of position p, and ``table`` (blocks, w,
    6) holds each index's six positions; an index is clean when its six owners
    read CLEAN_PATTERN.  The capped mask keeps each block's first w_c clean
    indices.  Leading axes of ``owners``, such as trials, carry through.
    """
    clean = (owners[..., table] == _CLEAN).all(axis=-1)
    return clean, clean & (clean.cumsum(axis=-1) <= w_c)


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


def clean_cap(w: int) -> int:
    """The two-player cap on a block's clean set, w_c = max(1, floor(w/100)), floored below 100."""
    return max(1, w // 100)


def _clean_report(
    owners: np.ndarray, table: np.ndarray, w_c: int, cap_floored: bool, sigma1: list | None = None
) -> CleanReport:
    """Per block, the indices whose six owners (``clean_masks``) read CLEAN_PATTERN.

    Clean sets are capped to w_c, lexicographically-first.  Given sigma^i(1)
    per block, an entry also says if it lands in the capped and full sets.
    """
    clean, capped = clean_masks(owners, table, w_c)
    entries = []
    for block, (every, head) in enumerate(zip(clean, capped), start=1):
        kept, found = _indices(head), _indices(every)
        image = None if sigma1 is None else sigma1[block - 1]
        activity = () if image is None else (image, image in kept, image in found)
        entries.append(BlockCleanEntry(block, kept, found, w_c, cap_floored, *activity))
    return CleanReport(tuple(entries))


def _indices(mask: np.ndarray) -> tuple[int, ...]:
    """The 1-based indices a block's mask holds."""
    return tuple((mask.nonzero()[0] + 1).tolist())


def _two_player_inputs(
    instance: NgcInstance, split: PartitionFunctions | EdgeAssignment, what: str
) -> tuple[np.ndarray, np.ndarray, int, bool]:
    """``_clean_report``'s (owners, table, w_c, cap_floored); F is read as its slots."""
    w = instance.width
    if isinstance(split, PartitionFunctions):
        _require_functions(instance, split, what)
        owners, table = np.ravel(split.fL + split.fM + split.fR), function_index_table(w, instance.t)
    else:
        _require_block(instance, what)
        if split.mode != "two_player":
            raise ValueError(f"{what} needs a two-player assignment")
        owners = split._table.lookup(instance.edge_array[: len(instance.core_targets)])
        table = instance.index_table
    return owners, table, clean_cap(w), w < 100


def clean_indices(
    instance: NgcInstance, F_or_assignment: PartitionFunctions | EdgeAssignment
) -> CleanReport:
    """Per block, the indices whose six edges split Bob/Alice/Bob.

    Accepts partition functions (ownership read off the maps) or a two-player
    assignment (read off the edges).  Clean sets are capped to ``clean_cap(w)``,
    lexicographically-first; the floor substitution is flagged in the report.
    """
    return _clean_report(*_two_player_inputs(instance, F_or_assignment, "clean_indices"))


def active_blocks(
    instance: NgcInstance, F_or_assignment: PartitionFunctions | EdgeAssignment
) -> CleanReport:
    """Clean report extended with activity: block i is active iff sigma^i(1)
    lands in its capped clean set (membership in the uncapped set is reported
    alongside, since the cap is a desk-scale artifact).
    """
    inputs = _two_player_inputs(instance, F_or_assignment, "active_blocks")
    return _clean_report(*inputs, [sigma[0] for sigma in instance.witness.Sigma])


def assign_batches(
    instance: NgcInstance, l: int, seed: Seed | int | None = None
) -> EdgeAssignment:
    """Each batch iid uniform over players 1..l; both edges follow their batch."""
    ends = instance.batched_edges
    if ends is None:
        raise ValueError("instance carries no batches")
    if l < 1:
        raise ValueError("need at least one player")
    draws = randrange_many(as_seed(seed).rng(), l, len(ends) // 2)
    batch_owners = tuple(player + 1 for player in draws)
    return EdgeAssignment(
        mode="l_player",
        players=l,
        owner=EdgeTable.from_edges(ends, np.repeat(batch_owners, 2)),
        batch_owners=batch_owners,
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


def active_segments(
    instance: NgcInstance, assignment: EdgeAssignment
) -> tuple[SegmentReport, ...]:
    """Per segment: activity, the activating position/group, and good groups.

    Segment i is active iff some group at one of its even layers (local layer
    2a, a in [t]) has its outgoing batch owned by player beta and incoming by
    alpha with window(i) containing beta < alpha, where window(i) is the i-th
    run of l/s consecutive players (l the assignment's player count, s and t
    the instance's).  First (a, j) in lexicographic order sets (a*, alpha,
    beta); good groups are the *other* groups with the same (out, in) owner
    pair at that layer.
    """
    if instance.form != "segment":
        raise ValueError("active_segments needs a segment-form instance")
    if assignment.mode != "l_player" or assignment.batch_owners is None:
        raise ValueError("active_segments needs a batched assignment")
    s, t, l = instance.s, instance.t, assignment.players
    if l % s != 0:
        raise ValueError(f"player count l={l} not divisible by segment count s={s}")
    w = instance.width
    window = l // s
    targets = instance.core_targets
    # batch b = (q-1)w + (g-1) holds matching q's pair leaving group g; beta
    # reads the pair leaving each group, alpha the pair entering it
    leaving = np.array(assignment.batch_owners[: len(targets) // 2]).reshape(-1, w)
    entering = np.empty_like(leaving)
    np.put_along_axis(entering, targets[::2].reshape(-1, w) % (2 * w) // 2, leaving, axis=1)
    q_in = ((2 * t + 1) * np.arange(s).reshape(-1, 1) + 2 * np.arange(t)).ravel()
    alpha = entering[q_in].reshape(s, t, w)
    beta = leaving[q_in + 1].reshape(s, t, w)
    lo = window * np.arange(s).reshape(-1, 1, 1) + 1
    hit = (lo <= beta) & (beta < alpha) & (alpha < lo + window)
    reports = []
    for i in range(s):
        first = hit[i].ravel().nonzero()[0]
        if not len(first):
            reports.append(SegmentReport(i + 1, False, None, None, None, None, ()))
            continue
        a, j = divmod(int(first[0]), w)
        pair = (int(beta[i, a, j]), int(alpha[i, a, j]))
        same = (beta[i, a] == pair[0]) & (alpha[i, a] == pair[1])
        same[j] = False
        good = tuple((same.nonzero()[0] + 1).tolist())
        reports.append(SegmentReport(i + 1, True, a + 1, j + 1, pair[1], pair[0], good))
    return tuple(reports)


# the most edges one player may draw under the stochastic model: every draw is
# held as a Python int and an array element at once
MAX_SAMPLE_SIZE = 1 << 20


def sample_size(c: float, edge_count: int) -> int:
    """ceil(c|E|/2): how many edges each player draws under the stochastic model."""
    if not 0 <= c < math.inf:
        raise ValueError(f"need a finite c >= 0, got c={c}")
    if c * edge_count / 2 > MAX_SAMPLE_SIZE:
        raise ValueError(
            f"c={c} on {edge_count} edges asks each player for more than"
            f" {MAX_SAMPLE_SIZE} samples"
        )
    return math.ceil(c * edge_count / 2)


def stochastic_picks(streams: KeyStreams, edge_count: int, c: float) -> np.ndarray:
    """Both players' samples as edge indices per stream: (len(streams), 2, ceil(c|E|/2)).

    One bulk draw of 2 * ceil(c|E|/2) ``randrange(|E|)`` values per
    stream: Alice's sample is the first half, Bob's the second.
    """
    count = sample_size(c, edge_count)
    return randrange_rows(streams, edge_count, 2 * count).reshape(len(streams), 2, count)


def stochastic_assign(
    edges: list[Edge] | np.ndarray, c: float, seed: Seed | int | None = None
) -> EdgeAssignment:
    """Each player an iid sample (with repetition) of ceil(c*|E|/2) edges.

    The draws ``stochastic_picks`` reads, on the seed's own generator.
    """
    ends = as_edge_array(edges)
    count = sample_size(c, len(ends))
    picks = randrange_array(as_seed(seed).rng(), len(ends), 2 * count).reshape(2, count)
    alice, bob = (tuple(zip(ends[half, 0].tolist(), ends[half, 1].tolist())) for half in picks)
    return EdgeAssignment(mode="stochastic", players=2, samples=(alice, bob), c=c)


def core_columns(instance: NgcInstance, ends: np.ndarray) -> np.ndarray:
    """Each edge's core position, or -1 off the core: ends (N, 2) -> (N,).

    The core edge at position p leaves vertex p, so its column is its lower
    end, in either orientation; auxiliary and augmentation edges get -1.
    """
    low, high = ends.min(axis=1), ends.max(axis=1)
    targets = instance.core_targets
    core = (low < len(targets)) & (targets[np.minimum(low, len(targets) - 1)] == high)
    return np.where(core, low, -1)


def seen_counts(columns: np.ndarray, positions: int) -> np.ndarray:
    """How often each row of draws holds each core position: (..., S) -> (..., positions).

    ``columns`` holds each draw's core position, or -1 for a draw off the
    core, which is not counted.  One bincount covers every row: the row
    number is folded into the bin id.
    """
    lead = columns.shape[:-1]
    rows = math.prod(lead)
    ids = columns + positions * np.arange(rows).reshape(*lead, 1)
    counts = np.bincount(ids[columns >= 0], minlength=rows * positions)
    return counts.reshape(*lead, positions)


def sample_counts(instance: NgcInstance, assignment: EdgeAssignment) -> np.ndarray:
    """How often each player's sample holds each core edge: shape (2, 2w(d-1)).

    Column p counts the core edge leaving vertex p, in either orientation;
    sampled auxiliary and augmentation edges are not counted.
    """
    if assignment.mode != "stochastic" or assignment.samples is None or assignment.c is None:
        raise ValueError("expected a stochastic assignment")
    columns = core_columns(instance, assignment._sample_ends)
    alice = len(assignment.samples[0])
    positions = len(instance.core_targets)
    return np.stack([seen_counts(half, positions) for half in (columns[:alice], columns[alice:])])


def stochastic_owners(counts: np.ndarray) -> np.ndarray:
    """Owner of each core edge from sample counts: (..., 2, P) -> (..., P).

    An edge seen by exactly one player "belongs" to that player (ALICE = 0,
    BOB = 1); one seen by both or neither gets -1 and matches no clean slot.
    """
    seen_a, seen_b = counts[..., 0, :] > 0, counts[..., 1, :] > 0
    return np.where(seen_a != seen_b, seen_b, -1)


def clean_indices_stochastic(
    instance: NgcInstance, assignment: EdgeAssignment
) -> CleanReport:
    """Stochastic cleanliness: outer edges unseen by Alice but seen by Bob,

    middle edges unseen by Bob but seen by Alice.  Cap is
    max(1, floor(w / (2 e^{9c}))), lexicographically-first.
    """
    _require_block(instance, "clean_indices_stochastic")
    owners = stochastic_owners(sample_counts(instance, assignment))
    w_c_raw = int(instance.width / (2 * math.exp(9 * assignment.c)))
    return _clean_report(owners, instance.index_table, max(1, w_c_raw), w_c_raw < 1)
