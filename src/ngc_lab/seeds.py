"""Reproducible randomness: a master seed plus a path of string labels.

Every sampler in the package takes a ``Seed``.  Two calls with the same
(master, path) produce identical output; deriving children with distinct
labels produces independent-looking streams.  Both a stdlib ``random.Random``
and a numpy ``Generator`` are available off the same derivation, so scalar
and vectorized code paths can share one seed discipline.

Batched suites keep one ``random.Random`` per trial, on the trial's own path:
``Seed.rngs`` derives a run of them, hashing the shared prefix once, and
``randrange_rows`` reads every trial's ``randrange`` draws in one pass, row r
being trial r's own stream.  ``sample_range`` spells out ``Random.sample``
over a range of integers, word for word.  Three more helpers replay one
generator's words in bulk: ``randrange_many`` (the one-row case) gives many
``randrange`` draws from one ``getrandbits`` call; ``shuffle_order`` gives
the permutation ``Random.shuffle`` would apply to a list of a given length,
read off bulk ``getrandbits`` words, with the generator left where the
shuffle would leave it; and ``replay_bytes`` gives ``Generator.integers(0,
256, count, dtype=np.uint8)`` from one ``random_raw`` call, so a caller can
read small power-of-two draws off the bytes directly.
"""

from __future__ import annotations

import hashlib
import math
import operator
import os
import random
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

ENV_SEED_VAR = "NGC_LAB_SEED"
_DEFAULT_MASTER = 0x5EED


@dataclass(frozen=True)
class Seed:
    """64-bit master seed plus a derivation path of labels."""

    master: int
    path: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        if not 0 <= self.master < 2**64:
            raise ValueError("master seed must fit in 64 bits")

    def child(self, *labels: str | int) -> "Seed":
        return Seed(self.master, self.path + tuple(str(l) for l in labels))

    def _hash(self):
        """sha256 over the master's 8 little-endian bytes, then "/" + label per label."""
        h = hashlib.sha256(self.master.to_bytes(8, "little"))
        for label in self.path:
            h.update(b"/" + label.encode("utf-8"))
        return h

    def _digest(self) -> bytes:
        return self._hash().digest()

    def rng(self) -> random.Random:
        """Stdlib RNG for shuffles, permutations, and scalar draws."""
        return _stdlib_rng(self._digest())

    def rngs(self, indices: Iterable[str | int], *suffix: str | int) -> list[random.Random]:
        """``[self.child(i, *suffix).rng() for i in indices]``, hashing this path once.

        A run of trial generators: the hash of the shared prefix is copied per
        trial and fed the same bytes the child's path would add.
        """
        prefix = self._hash()
        tail = b"".join(b"/" + str(label).encode("utf-8") for label in suffix)
        out = []
        for i in indices:
            h = prefix.copy()
            h.update(b"/" + str(i).encode("utf-8") + tail)
            out.append(_stdlib_rng(h.digest()))
        return out

    def generator(self) -> np.random.Generator:
        """Numpy RNG for vectorized draws (independent of .rng())."""
        return np.random.default_rng(int.from_bytes(self._digest()[16:], "little"))


def _stdlib_rng(digest: bytes) -> random.Random:
    return random.Random(int.from_bytes(digest[:16], "little"))


def master_seed(value: int | None = None) -> Seed:
    """Build a root Seed: explicit value, else $NGC_LAB_SEED, else a fixed default."""
    if value is None:
        env = os.environ.get(ENV_SEED_VAR)
        value = int(env) if env else _DEFAULT_MASTER
    return Seed(value & (2**64 - 1))


def as_seed(seed: "Seed | int | None" = None, *labels: str | int) -> Seed:
    """Coerce an int/None to a Seed (ints taken literally), optionally descending."""
    base = seed if isinstance(seed, Seed) else master_seed(seed)
    return base.child(*labels) if labels else base


# below this many missing values in a round, numpy costs more than it saves
# and the rest are drawn word by word
_ROUND_MIN = 32


def _randbelow(words: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``randbelow(n)``'s attempts on uint32 words: (values, accepted).

    For 0 < n < 2**32 each attempt is the top ``n.bit_length()`` bits of one
    Mersenne Twister word, accepted when below n and retried otherwise.
    """
    values = words >> (32 - n.bit_length())
    return values, values < n


def _check_bound(n: int) -> None:
    if n <= 0:
        random.randrange(n)  # raises randrange's own ValueError, drawing nothing
    if n >= 2**32:
        raise ValueError(f"randrange needs n < 2**32 to draw in bulk, got {n}")


def _words(rng: random.Random, count: int) -> np.ndarray:
    """The next ``count`` 32-bit words of ``rng``, from one ``getrandbits`` call."""
    return np.frombuffer(rng.getrandbits(32 * count).to_bytes(4 * count, "little"), dtype="<u4")


def _draw_singly(rng: random.Random, n: int, count: int, out: list[int]) -> list[int]:
    """``out`` filled up to ``count`` values, drawn word by word.

    ``getrandbits(bits)`` is the top bits of one word, so this is
    ``_randbelow`` one attempt at a time, spelled out: a call per word would
    double the cost of the small draws that end here.
    """
    bits = n.bit_length()
    while len(out) < count:
        value = rng.getrandbits(bits)
        if value < n:
            out.append(value)
    return out


def randrange_many(rng: random.Random, n: int, count: int) -> list[int]:
    """``[rng.randrange(n) for _ in range(count)]``, drawn in bulk from the same stream.

    ``getrandbits(32 * need)`` returns ``need`` words least significant first,
    the words ``need`` calls of ``getrandbits(32)`` would return.  Each numpy
    round draws exactly as many words as values are missing and accepts them
    at once (``_randbelow``), so the generator ends where the loop would; under
    32 missing values a round costs more than it saves, and the rest are
    drawn word by word.
    """
    n = operator.index(n)
    if count <= 0:
        return []
    if not 0 < n < 2**32:
        _check_bound(n)
    out: list[int] = []
    while count - len(out) >= _ROUND_MIN:
        values, accepted = _randbelow(_words(rng, count - len(out)), n)
        out += values[accepted].tolist()
    return _draw_singly(rng, n, count, out)


def sample_range(rng: random.Random, n: int, k: int) -> list[int]:
    """``rng.sample(range(1, n + 1), k)``: the same values, the same words drawn.

    ``Random.sample`` keeps a pool when an n-list is smaller than a k-set,
    and then pick i is ``pool[randbelow(n - i)]``, the vacancy filled from
    the pool's end; ``randbelow(size)`` is ``getrandbits(size.bit_length())``
    retried while >= size.  That is spelled out here, the generator left where
    ``sample`` leaves it.  Where ``sample`` would track a set of picks instead,
    this raises ValueError: k = n always takes the pool, and so does
    k = m - 1 of n = 2m.
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got n={n} k={k}")
    setsize = 21 if k <= 5 else 21 + 4 ** math.ceil(math.log(k * 3, 4))  # as in ``sample``
    if n > setsize:
        raise ValueError(f"sample({n}, {k}) tracks a set of picks, not a pool")
    getrandbits = rng.getrandbits
    pool = list(range(1, n + 1))
    out = []
    for size in range(n, n - k, -1):
        bits = size.bit_length()
        j = getrandbits(bits)
        while j >= size:
            j = getrandbits(bits)
        out.append(pool[j])
        pool[j] = pool[size - 1]
    return out


def randrange_rows(rngs: Sequence[random.Random], n: int, count: int) -> np.ndarray:
    """Row r is ``randrange_many(rngs[r], n, count)``: shape (len(rngs), count), int64.

    Each round draws from every short row exactly as many words as it still
    misses, and accepts the words of all rows at once; a row's accepted values
    keep their order, so each generator ends where its own ``randrange_many``
    would.  Once fewer than 32 values are missing in all, the rest are drawn
    word by word.  One row is ``randrange_many`` itself.
    """
    n = operator.index(n)
    out = np.zeros((len(rngs), max(count, 0)), dtype=np.int64)
    if count <= 0:
        return out
    _check_bound(n)
    if len(rngs) == 1:
        out[0] = randrange_many(rngs[0], n, count)
        return out
    flat = out.reshape(-1)
    filled = np.zeros(len(rngs), dtype=np.int64)
    live = np.arange(len(rngs))  # rows still short, in order
    while live.size:
        missing = count - filled[live]
        if missing.sum() < _ROUND_MIN:
            for r, need in zip(live.tolist(), missing.tolist()):
                out[r, count - need :] = _draw_singly(rngs[r], n, need, [])
            break
        words = b"".join(
            rngs[r].getrandbits(32 * need).to_bytes(4 * need, "little")
            for r, need in zip(live.tolist(), missing.tolist())
        )
        values, accepted = _randbelow(np.frombuffer(words, dtype="<u4"), n)
        got = np.add.reduceat(accepted.astype(np.int64), np.cumsum(missing) - missing)
        # the k-th value accepted this round goes to its row's fill, offset
        # by k less the values accepted in the rows before it
        base = live * count + filled[live] - (np.cumsum(got) - got)
        flat[np.repeat(base, got) + np.arange(int(got.sum()))] = values[accepted]
        filled[live] += got
        live = live[filled[live] < count]
    return out


# below this length (about where the two cost the same, numpy 2.4) the list
# shuffle is cheaper than the bulk replay's per-band set-up
_SHUFFLE_BULK_MIN = 8192


def shuffle_order(rng: random.Random, length: int) -> np.ndarray:
    """The permutation ``rng.shuffle`` applies to a list of ``length`` items.

    ``x = list(range(length)); rng.shuffle(x)`` gives ``x == order.tolist()``
    and leaves ``rng`` in the same state.  The shuffle swaps ``x[i]`` with
    ``x[j]`` for i = length-1 down to 1, j = ``randbelow(i + 1)``; each attempt
    at j is the top ``(i + 1).bit_length()`` bits of one 32-bit word, retried
    while >= i + 1.  Within one bit-length band the bound falls by one per
    accepted word, so which words are accepted is the fixpoint of "accept
    iff below the bound less the words accepted before"; the iteration
    settles a longer prefix each round.  Each round of words is as many as
    there are steps left, so no word past the shuffle's last is drawn.  The
    swaps are then applied at once (``_apply_swaps``).  Short lists are
    shuffled directly.
    """
    length = operator.index(length)
    if length < _SHUFFLE_BULK_MIN:
        order = list(range(length))
        rng.shuffle(order)
        return np.array(order, dtype=np.int64)
    if length >= 2**31:  # sort keys j * length + i must fit in int64
        raise ValueError(f"shuffle_order needs length < 2**31, got {length}")
    j = np.zeros(length, dtype=np.int64)
    bound = length  # step i = bound - 1 draws below bound
    words = np.empty(0, dtype=np.uint32)
    while bound >= 2:
        if not words.size:
            need = bound - 1
            words = _words(rng, need)
        k = bound.bit_length()
        steps = bound - (1 << (k - 1)) + 1  # bounds bound .. 2**(k-1) share k
        # a band accepts at least half its draws, so this window mostly ends
        # it; a band that runs past it takes another pass
        draws = (words[: 2 * steps + 32] >> (32 - k)).astype(np.int64)
        taken = np.flatnonzero(_accepted(draws, bound))[:steps]
        used = int(taken[-1]) + 1 if taken.size == steps else draws.size
        j[bound - taken.size : bound] = draws[taken[::-1]]
        bound -= taken.size
        words = words[used:]
    return _apply_swaps(j)


def _accepted(draws: np.ndarray, bound: int) -> np.ndarray:
    """Which draws ``randbelow`` accepts when the first is tried below ``bound``.

    Draw t is accepted iff it is below ``bound`` less the draws accepted
    before it.  Iterating from "all accepted" fixes at least one more leading
    draw per round; the draws before the first change are final.
    """
    accepted = np.ones(draws.size, dtype=bool)
    start = taken = 0  # draws[:start] are final, `taken` of them accepted
    while True:
        tail = accepted[start:]
        before = np.cumsum(tail)
        before -= tail
        fresh = draws[start:] < bound - taken - before
        changed = np.flatnonzero(fresh != tail)
        if not changed.size:
            return accepted
        first = int(changed[0])
        tail[:] = fresh
        taken += int(before[first]) + int(fresh[first])
        start += first + 1


def _apply_swaps(j: np.ndarray) -> np.ndarray:
    """Where each slot's item comes from after swapping x[i], x[j[i]] for i = L-1 .. 1.

    Swaps run from the largest i down, and slot i is final after its own
    swap, holding what slot j[i] held just before it: the original item,
    unless a swap already run (a larger i' with j[i'] = j[i], the last run
    being the smallest) wrote there, in which case it holds what slot i' held
    just before swap i'.  One sort groups the swaps by target; the "what slot
    s held before swap s" chains are resolved by pointer doubling.  (j[0] = 0
    stands for the no-op swap that fixes slot 0 last; a swap of a slot with
    itself starts a chain no later swap reads.)
    """
    size = j.size
    index = np.arange(size)
    key = np.sort(j * size + index)  # by target, then by swap
    swap, target = key % size, key // size
    same = target[1:] == target[:-1]
    later = np.full(size, -1)  # the next swap writing to the same target
    later[swap[:-1][same]] = swap[1:][same]
    head = np.ones(size, dtype=bool)
    head[1:] = ~same
    first = np.full(size, -1)  # the smallest swap writing to each slot
    first[target[head]] = swap[head]
    source = np.where(first >= 0, first, index)
    while True:
        hop = source[source]
        if np.array_equal(hop, source):
            break
        source = hop
    return np.where(later >= 0, source[later], j)


def replay_bytes(gen: np.random.Generator, count: int) -> np.ndarray:
    """``gen.integers(0, 256, count, dtype=np.uint8)``, read off the raw PCG64 words.

    numpy fills a uint8 draw from 32-bit words, four bytes each, least
    significant first, and a 32-bit word is the low then the high half of a
    64-bit output; a high half left over by an earlier call (``has_uint32``)
    comes first.  So the bytes are that carried half, then the little-endian
    bytes of ``ceil(words / 2)`` raw outputs, and an odd word count leaves the
    last output's high half carried for the next call, as numpy would.  For
    ``0 < b <= 8``, ``integers(0, 2**b, dtype=np.uint8)`` (and for b <= 7 the
    int8 draw) is ``byte >> (8 - b)`` of these bytes: Lemire's method never
    rejects on a power-of-two range.
    """
    words = -(-count // 4)
    if words <= 0:
        return np.empty(0, dtype=np.uint8)
    bit_generator = gen.bit_generator
    entry = bit_generator.state
    if entry["bit_generator"] != "PCG64":
        raise ValueError(f"replay_bytes reads PCG64 words, got {entry['bit_generator']}")
    carried, half = entry["has_uint32"], entry["uinteger"]
    words -= carried
    raw = bit_generator.random_raw(-(-words // 2)).astype("<u8", copy=False)
    state = bit_generator.state  # past the raw outputs
    state["has_uint32"] = words % 2
    if raw.size:  # numpy keeps the last high half even once it is read
        state["uinteger"] = int(raw[-1] >> np.uint64(32))
    bit_generator.state = state
    out = raw.view(np.uint8)
    if carried:
        head = np.array([half], dtype="<u4").view(np.uint8)
        out = np.concatenate([head, out])
    return out[:count]
