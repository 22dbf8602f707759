"""Reproducible randomness: a master seed plus a path of string labels.

Every sampler in the package takes a ``Seed``; an int is taken as the
master of an empty path (``as_seed``).  Two calls with the same (master,
path) produce identical output; deriving children with distinct labels
produces independent-looking streams.  The derivation is one sha256 over the
master's 8 little-endian bytes and "/" + label per label: ``rng()`` is
``random.Random(key())``, the key being the digest's first 16 bytes read
little-endian, and ``generator()`` seeds numpy off the last 16.

Batched suites keep one ``random.Random`` stream per trial, on the trial's
own path: ``Seed.keys`` derives a run of their 128-bit keys, hashing the
shared prefix once, and ``master_keys`` the keys of a run of int seeds.
``replay_words`` runs CPython's MT19937 seeding and output for every key at
once, word for word what ``random.Random(key)`` gives, and ``key_streams``
holds each key's first words (replayed, or read from stdlib generators when
there are too few keys for the replay to pay).  ``randrange_rows`` reads
every stream's ``randrange`` draws at once from a cursor per row, so
successive reads go on along each stream, and a row that runs out of held
words goes on in its own generator.  ``shuffle_rows`` builds every stream's
``Random.shuffle`` from one such read a swap.  A one-row ``KeyStreams``
holding no words reads one generator, so the batched samplers serve one
seed too.  ``sample_range`` spells out ``Random.sample`` over a range of
integers, word for word.
Three more helpers replay one generator's words:
``randrange_array`` gives many ``randrange`` draws as an array from one
``getrandbits`` call a round (``randrange_many`` is its list view);
``shuffle_order`` gives the permutation ``Random.shuffle`` would apply to a
list of a given length, with the generator left where the shuffle would
leave it (a spelled-out loop for short lists, bulk ``getrandbits`` words
for long ones); and ``replay_bytes`` gives
``Generator.integers(0, 256, count, dtype=np.uint8)`` from one
``random_raw`` call, so a caller can read small power-of-two draws off the
bytes directly.  ``skip_bytes`` jumps a generator past the bytes
(``PCG64.advance``), so what follows them can be drawn before they are read.
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
            raise ValueError(f"master seed must fit in 64 bits, got {self.master!r}")

    def child(self, *labels: str | int) -> "Seed":
        return Seed(self.master, self.path + tuple(str(l) for l in labels))

    def _hash(self):
        """sha256 over the master's 8 little-endian bytes, then "/" + label per label."""
        h = hashlib.sha256(self.master.to_bytes(8, "little"))
        for label in self.path:
            h.update(b"/" + label.encode("utf-8"))
        return h

    def key(self) -> int:
        """The 128-bit seed of ``rng()``: the digest's first 16 bytes, little-endian."""
        return _key(self._hash().digest())

    def rng(self) -> random.Random:
        """Stdlib RNG for shuffles, permutations, and scalar draws."""
        return random.Random(self.key())

    def keys(self, indices: Iterable[str | int], *suffix: str | int) -> list[int]:
        """``[self.child(i, *suffix).key() for i in indices]``, hashing this path once.

        A run of trial keys: the hash of the shared prefix is copied per
        trial and fed the same bytes the child's path would add.
        """
        prefix = self._hash()
        tail = b"".join(b"/" + str(label).encode("utf-8") for label in suffix)
        out = []
        for i in indices:
            h = prefix.copy()
            h.update(b"/" + str(i).encode("utf-8") + tail)
            out.append(_key(h.digest()))
        return out

    def generator(self) -> np.random.Generator:
        """Numpy RNG for vectorized draws (independent of .rng())."""
        return np.random.default_rng(int.from_bytes(self._hash().digest()[16:], "little"))


def _key(digest: bytes) -> int:
    return int.from_bytes(digest[:16], "little")


def master_seed(value: int | None = None) -> Seed:
    """Build a root Seed: explicit value, else $NGC_LAB_SEED, else a fixed default."""
    if value is not None:
        return Seed(value)
    env = os.environ.get(ENV_SEED_VAR)
    if not env:
        return Seed(_DEFAULT_MASTER)
    try:
        return Seed(int(env))
    except ValueError:
        raise ValueError(
            f"{ENV_SEED_VAR} must be an integer that fits in 64 bits, got {env!r}"
        ) from None


def master_keys(values: Iterable[int], *labels: str | int) -> list[int]:
    """``[Seed(v).child(*labels).key() for v in values]``, hashed without building the seeds."""
    tail = b"".join(b"/" + str(label).encode("utf-8") for label in labels)
    sha256 = hashlib.sha256
    try:
        return [_key(sha256(v.to_bytes(8, "little") + tail).digest()) for v in values]
    except OverflowError:
        raise ValueError("master seeds must fit in 64 bits") from None


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
    bits, getrandbits = n.bit_length(), rng.getrandbits
    for _ in range(count - len(out)):
        value = getrandbits(bits)
        while value >= n:
            value = getrandbits(bits)
        out.append(value)
    return out


def randrange_array(rng: random.Random, n: int, count: int) -> np.ndarray:
    """``[rng.randrange(n) for _ in range(count)]`` as an int64 array, drawn in bulk.

    ``getrandbits(32 * need)`` returns the words ``need`` calls of
    ``getrandbits(32)`` would, least significant first.  Each round draws as
    many words as values are missing and accepts them at once (``_randbelow``),
    so the generator ends where the loop would; under 32 missing values a
    round costs more than it saves, and the rest are drawn word by word.
    """
    if count < _ROUND_MIN:
        return np.array(randrange_many(rng, n, count), dtype=np.int64)
    n = operator.index(n)
    _check_bound(n)
    out = np.empty(count, dtype=np.int64)
    done = 0
    while count - done >= _ROUND_MIN:
        values, accepted = _randbelow(_words(rng, count - done), n)
        values = values[accepted]
        out[done : done + len(values)] = values
        done += len(values)
    out[done:] = _draw_singly(rng, n, count - done, [])
    return out


def randrange_many(rng: random.Random, n: int, count: int) -> list[int]:
    """``randrange_array`` as a list; under 32 values, drawn word by word with no array."""
    if count >= _ROUND_MIN:
        return randrange_array(rng, n, count).tolist()
    n = operator.index(n)
    if count > 0:
        _check_bound(n)
    return _draw_singly(rng, n, count, [])


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


# --- many generators at once: row r is the stream of random.Random(keys[r]) ---------

_MT_N, _MT_M = 624, 397  # MT19937's state length and twist offset
# keys per replay pass: the (624, keys) uint32 state is then 10 MB at most
_PASS_KEYS = 4096
# below this many keys a replay pass (about 1.7 ms fixed plus 1.4 us a key for
# 72 words, numpy 2.4 on a 2-CPU machine) costs more than reading the words
# from stdlib generators (about 5.4 us a key); the two meet near 450 keys
_REPLAY_MIN = 512


def _genrand(s: int) -> np.ndarray:
    """The state ``init_genrand(s)`` leaves, where every ``init_by_array`` starts."""
    mt = [s]
    for i in range(1, _MT_N):
        mt.append((1812433253 * (mt[-1] ^ (mt[-1] >> 30)) + i) & 0xFFFFFFFF)
    return np.array(mt, dtype=np.uint32)


_GENRAND_19650218 = _genrand(19650218)
_ROW_INDEX = [np.uint32(i) for i in range(_MT_N)]


def _seeded_states(keys: Sequence[int]) -> np.ndarray:
    """Column d is the state ``random.Random(keys[d])`` is seeded to: shape (624, len(keys)).

    CPython seeds an int key by ``init_by_array`` over its little-endian
    32-bit words, as many as it needs (one for 0): 624 steps that mix in
    word j plus j, j cycling over the key, then 623 that subtract the row
    index, each step one row from the row before.  The steps are the same
    for every key, so each runs on a row of all keys at once; with at most
    four words, step s's addend repeats every 12 steps for any key length.
    """
    try:
        data = b"".join(key.to_bytes(16, "little") for key in map(operator.index, keys))
    except OverflowError:
        raise ValueError("replay_words takes keys in [0, 2**128)") from None
    words = np.frombuffer(data, dtype="<u4").reshape(-1, 4)
    nonzero = words != 0
    lengths = np.where(nonzero.any(axis=1), 4 - np.argmax(nonzero[:, ::-1], axis=1), 1)
    j = np.arange(12).reshape(-1, 1) % lengths
    addends = list(np.take_along_axis(words.T, j, axis=0) + j.astype(np.uint32))
    mt = np.empty((_MT_N, len(words)), dtype=np.uint32)
    mt[:] = _GENRAND_19650218.reshape(-1, 1)
    rows = list(mt)  # row views, so that a step is five ufunc calls and nothing else
    t = np.empty(len(words), dtype=np.uint32)
    shr, xor, mul, add, sub = np.right_shift, np.bitwise_xor, np.multiply, np.add, np.subtract
    shift, first, second = np.uint32(30), np.uint32(1664525), np.uint32(1566083941)
    # mt[i] = (mt[i] ^ ((mt[i-1] ^ (mt[i-1] >> 30)) * factor)) +/- operand, as
    # init_by_array writes it; past row 623 it copies mt[623] to mt[0] and goes on at 1
    i = 1
    for step in range(_MT_N):
        prev, row = rows[i - 1], rows[i]
        shr(prev, shift, t)
        xor(t, prev, t)
        mul(t, first, t)
        add(xor(row, t, row), addends[step % 12], row)
        i += 1
        if i == _MT_N:
            rows[0][:] = rows[-1]
            i = 1
    for _ in range(_MT_N - 1):
        prev, row = rows[i - 1], rows[i]
        shr(prev, shift, t)
        xor(t, prev, t)
        mul(t, second, t)
        sub(xor(row, t, row), _ROW_INDEX[i], row)
        i += 1
        if i == _MT_N:
            rows[0][:] = rows[-1]
            i = 1
    mt[0] = 0x80000000
    return mt


def _twist_rows(this: np.ndarray, following: np.ndarray, far: np.ndarray, out: np.ndarray) -> None:
    """MT19937's twist of rows ``this`` into ``out``, which may be ``this``."""
    y = this & 0x80000000
    y |= following & 0x7FFFFFFF
    np.right_shift(y, 1, out)
    out ^= far
    y &= 1
    y *= np.uint32(0x9908B0DF)
    out ^= y


def _twist(mt: np.ndarray, rows: int) -> np.ndarray:
    """One MT19937 twist of ``mt``'s first ``rows`` rows, in place; returns them.

    Row k mixes rows k and k + 1 with row k + 397: before the twist for k <
    227, and from k = 227 on row k - 227, already twisted; row 623 takes the
    twisted row 0.  So the twist runs in blocks of 227 rows, each read whole
    before it is written, and may stop early: the first 227 words need only
    the seeded state.  Stopped early, ``mt`` is no state to twist again.
    """
    band = _MT_N - _MT_M
    for lo in range(0, min(rows, _MT_N - 1), band):
        hi = min(lo + band, rows, _MT_N - 1)
        far = mt[lo + _MT_M : hi + _MT_M] if lo < band else mt[lo - band : hi - band]
        _twist_rows(mt[lo:hi], mt[lo + 1 : hi + 1], far, mt[lo:hi])
    if rows == _MT_N:
        _twist_rows(mt[-1], mt[0], mt[_MT_M - 1], mt[-1])
    return mt[:rows]


def _temper(y: np.ndarray) -> np.ndarray:
    """MT19937's output words from state words, in place."""
    y ^= y >> 11
    y ^= (y << 7) & 0x9D2C5680
    y ^= (y << 15) & 0xEFC60000
    y ^= y >> 18
    return y


def replay_words(keys: Sequence[int], count: int) -> np.ndarray:
    """Row r is the first ``count`` ``getrandbits(32)`` words of ``random.Random(keys[r])``.

    Shape (len(keys), count), uint32, for keys in [0, 2**128).  Every key is
    seeded at once (``_seeded_states``), then each run of 624 words is one
    twist and the tempering, on the whole state; the last run twists only
    the rows it reads.  Keys go in passes of at most _PASS_KEYS.
    """
    count = operator.index(count)
    out = np.empty((len(keys), max(count, 0)), dtype=np.uint32)
    if count <= 0:
        return out
    for first in range(0, len(keys), _PASS_KEYS):
        mt = _seeded_states(keys[first : first + _PASS_KEYS])
        for start in range(0, count, _MT_N):
            words = _twist(mt, min(_MT_N, count - start))
            words = _temper(words.copy() if start + _MT_N < count else words)
            out[first : first + _PASS_KEYS, start : start + len(words)] = words.T
    return out


class KeyStreams:
    """The word streams of ``random.Random(key)`` for a run of keys, read from the start.

    Row r holds the first ``words.shape[1]`` words of its stream, and
    ``cursor[r]`` counts those read so far.  Reads past them go on in the
    row's own generator, seeded from its key and moved past the held words
    (``tail``), so however much is read, each row stays its key's stream.
    """

    def __init__(self, keys: Sequence[int], words: np.ndarray) -> None:
        self.keys = list(keys)
        self.words = words
        self.cursor = np.zeros(len(self.keys), dtype=np.int64)
        self._tails: dict[int, random.Random] = {}

    def __len__(self) -> int:
        return len(self.keys)

    def tail(self, row: int) -> random.Random:
        """Row ``row``'s generator, past the words held for it."""
        rng = self._tails.get(row)
        if rng is None:
            rng = self._tails[row] = random.Random(self.keys[row])
            rng.getrandbits(32 * self.words.shape[1])
        return rng


def key_streams(*groups: tuple[Sequence[int], int]) -> list[KeyStreams]:
    """A ``KeyStreams`` per ``(keys, words)`` group, holding that many words a key.

    Groups that hold _REPLAY_MIN keys or more between them are replayed
    together, in one pass (``replay_words``, to the largest word count);
    fewer keys read their words from stdlib generators.  The streams are the
    same either way.
    """
    runs = [(list(keys), words) for keys, words in groups]
    if sum(len(keys) for keys, _ in runs) < _REPLAY_MIN:
        return [KeyStreams(keys, _stdlib_words(keys, words)) for keys, words in runs]
    replayed = replay_words([key for keys, _ in runs for key in keys], max(w for _, w in runs))
    out, first = [], 0
    for keys, words in runs:
        out.append(KeyStreams(keys, replayed[first : first + len(keys), :words]))
        first += len(keys)
    return out


def _stdlib_words(keys: Sequence[int], count: int) -> np.ndarray:
    if count <= 0:  # nothing to read, so no generator is seeded
        return np.empty((len(keys), 0), dtype="<u4")
    data = b"".join(
        random.Random(key).getrandbits(32 * count).to_bytes(4 * count, "little") for key in keys
    )
    return np.frombuffer(data, dtype="<u4").reshape(len(keys), count)


def word_budget(n: int, count: int) -> int:
    """Words to hold a stream for ``count`` ``randrange(n)`` draws.

    An attempt is accepted with probability p = n / 2**n.bit_length() >=
    1/2, so the draws take count words plus a negative binomial number of
    rejections, of mean count (1 - p) / p and variance count (1 - p) / p**2.
    The budget is the mean plus eight standard deviations and eight words:
    a stream needs more (and reads on in its generator) well under once in
    10**6.
    """
    if n <= 0 or count <= 0:
        return 0  # nothing is drawn, or randrange_rows rejects n
    p = n / (1 << n.bit_length())
    return count + math.ceil(count * (1 - p) / p + 8 * math.sqrt(count * (1 - p)) / p) + 8


def randrange_rows(streams: KeyStreams, n: int, count: int) -> np.ndarray:
    """Row r is the next ``count`` ``randrange(n)`` draws of stream r: (len(streams), count), int64.

    Row r equals ``randrange_array`` on stream r's generator, read as far as
    the cursor.  Every row's held words are tried at once (``_randbelow``)
    from its cursor on; the count-th accepted word moves the cursor past it.
    A row whose held words run out draws the rest from its ``tail``.
    """
    n = operator.index(n)
    out = np.empty((len(streams), max(count, 0)), dtype=np.int64)
    if count <= 0:
        return out
    _check_bound(n)
    cursor, width = streams.cursor, streams.words.shape[1]
    if not width:  # nothing held: each row reads its own generator
        for r in range(len(streams)):
            out[r] = randrange_array(streams.tail(r), n, count)
        return out
    values, accepted = _randbelow(streams.words, n)
    if cursor.any():
        accepted &= np.arange(width) >= cursor[:, None]
    values = values.ravel()
    where = accepted.ravel().nonzero()[0]  # row by row: row r's run starts at first[r]
    have = accepted.sum(axis=1)
    first = have.cumsum() - have
    full = have >= count
    short = not full.all()
    rows = full if short else slice(None)  # a slice costs less than a mask
    picks = where[first[rows, None] + np.arange(count)]
    out[rows] = values[picks]
    cursor[rows] = picks[:, -1] % width + 1
    if short:
        for r in (~full).nonzero()[0].tolist():
            held = int(have[r])
            out[r, :held] = values[where[first[r] : first[r] + held]]
            out[r, held:] = randrange_array(streams.tail(r), n, count - held)
            cursor[r] = width
    return out


# below this length the spelled-out loop is cheaper than the bulk replay's
# per-band set-up: timed alternately in one process (Python 3.11, numpy 2.4,
# a shared 2-CPU machine), the two cost the same at 20,000 items (about
# 2.7 ms), the loop 3% less at 18,000 and the replay 5% less at 22,000
_SHUFFLE_BULK_MIN = 20000


def shuffle_order(rng: random.Random, length: int) -> np.ndarray:
    """The permutation ``rng.shuffle`` applies to a list of ``length`` items.

    ``x = list(range(length)); rng.shuffle(x)`` gives ``x == order.tolist()``
    and leaves ``rng`` in the same state.  The shuffle swaps ``x[i]`` with
    ``x[j]`` for i = length-1 down to 1, j = ``randbelow(i + 1)``; each attempt
    at j is the top ``(i + 1).bit_length()`` bits of one 32-bit word, retried
    while >= i + 1.  Short lists are shuffled by that loop spelled out, as
    ``sample_range`` does.  Longer ones read their words in bulk, a bit-length
    band at a time (``_band_draws``), each round of words as many as there
    are steps left, so no word past the shuffle's last is drawn; the swaps
    are then applied at once (``_apply_swaps``).
    """
    length = operator.index(length)
    if length < _SHUFFLE_BULK_MIN:
        return np.array(_shuffle_singly(rng, length), dtype=np.int64)
    if length >= 2**31:  # sort keys j << 31 | i must fit in int64
        raise ValueError(f"shuffle_order needs length < 2**31, got {length}")
    j = np.zeros(length, dtype=np.int64)
    bound = length  # step i = bound - 1 draws below bound
    words = np.empty(0, dtype=np.uint32)
    while bound >= 2:
        if not words.size:
            words = _words(rng, bound - 1)
        draws, used = _band_draws(words, bound)
        j[bound - draws.size : bound] = draws[::-1]
        bound -= draws.size
        words = words[used:]
    return _apply_swaps(j)


def shuffle_rows(streams: KeyStreams, length: int) -> np.ndarray:
    """Row r is the permutation ``Random.shuffle`` applies on stream r: (len(streams), length).

    Row r equals ``shuffle_order`` on stream r's generator, read as far as the
    cursor.  Step i = length - 1 down to 1 swaps item i with item j, j being
    every row's next ``randrange(i + 1)`` at once (``randrange_rows``), so a
    row whose held words run out goes on in its ``tail``.
    """
    length = operator.index(length)
    _check_bound(max(length, 1))  # the first swap's bound, before anything is held
    order = np.tile(np.arange(length), (len(streams), 1))
    rows = np.arange(len(streams))
    for i in range(length - 1, 0, -1):
        j = randrange_rows(streams, i + 1, 1)[:, 0]
        order[rows, i], order[rows, j] = order[rows, j], order[rows, i]
    return order


def _shuffle_singly(rng: random.Random, length: int) -> list[int]:
    """``rng.shuffle`` of ``list(range(length))``, one bit-length band at a time."""
    order = list(range(length))
    getrandbits = rng.getrandbits
    top = length  # sizes top .. low take attempts of the same bit length
    while top >= 2:
        bits = top.bit_length()
        low = max(1 << (bits - 1), 2)
        for i in range(top - 1, low - 2, -1):
            j = getrandbits(bits)
            while j > i:
                j = getrandbits(bits)
            order[i], order[j] = order[j], order[i]
        top = low - 1
    return order


def _band_draws(words: np.ndarray, bound: int) -> tuple[np.ndarray, int]:
    """``randbelow(bound)``, ``randbelow(bound - 1)``, ... off ``words``, in one bit length.

    Returns the draws and the number of words they take.  Within the band of
    bit length k the bound falls by one per accepted word, so word t is
    accepted iff its top k bits are below the bound less the words accepted
    before it.  A draw below 2**(k-1), the band's last bound, is always
    accepted, and one at or above its first bound never is; only the draws
    between need the fixpoint (``_accepted``), with the sure ones before each
    counted in.  The window is twice the band's steps: a band accepts at
    least half its draws, so the window mostly ends it, and a band that runs
    past it (or past ``words``) is taken up in the next call.
    """
    k = bound.bit_length()
    half = 1 << (k - 1)
    steps = bound - half + 1  # bounds bound .. 2**(k-1) share k
    draws = (words[: 2 * steps + 32] >> (32 - k)).astype(np.int32)
    below = np.flatnonzero(draws < bound)
    candidates = draws[below]
    accepted = np.ones(below.size, dtype=bool)
    ambiguous = np.flatnonzero(candidates >= half)
    if ambiguous.size:
        # ambiguous draw a comes after ambiguous[a] - a sure ones
        sure = ambiguous - np.arange(ambiguous.size)
        accepted[ambiguous] = _accepted(candidates[ambiguous] + sure, bound)
    taken = below[np.flatnonzero(accepted)[:steps]]
    used = int(taken[-1]) + 1 if taken.size == steps else draws.size
    return draws[taken], used


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
        before = np.cumsum(tail, dtype=np.int32)  # (int32 sums run faster than int64)
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
    shift = max(size - 1, 1).bit_length()
    kind = np.uint32 if 2 * shift <= 32 else np.int64  # the smallest sort key that fits
    key = np.sort(j.astype(kind) << shift | np.arange(size, dtype=kind))  # by target, then by swap
    swap = (key & ((1 << shift) - 1)).astype(np.int64)
    target = (key >> shift).astype(np.int64)
    new = np.ones(size, dtype=bool)  # the first (smallest) swap writing to its target
    np.not_equal(target[1:], target[:-1], out=new[1:])
    head, repeat = np.flatnonzero(new), np.flatnonzero(~new)
    source = np.arange(size)
    source[target[head]] = swap[head]
    while True:
        hop = source[source]
        if np.array_equal(hop, source):
            break
        source = hop
    out = j.copy()
    out[swap[repeat - 1]] = source[swap[repeat]]
    return out


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
    raw, carried = _read_words(gen, count, "replay_bytes", skip=False)
    out = raw.view(np.uint8)
    if carried is not None:
        head = np.array([carried], dtype="<u4").view(np.uint8)
        out = np.concatenate([head, out])
    return out[:count]


def skip_bytes(gen: np.random.Generator, count: int) -> None:
    """Leave ``gen`` exactly where ``replay_bytes(gen, count)`` would, without the bytes.

    PCG64 jumps over all but the last raw output (``advance``) and reads the
    last, whose high half numpy keeps in ``uinteger``.
    """
    _read_words(gen, count, "skip_bytes", skip=True)


def _read_words(
    gen: np.random.Generator, count: int, name: str, skip: bool
) -> tuple[np.ndarray, int | None]:
    """(raw outputs, carried half-word or None) of ``count`` uint8 draws, the
    carry left as numpy leaves it; ``skip`` jumps all but the last output."""
    words = -(-count // 4)
    if words <= 0:
        return np.empty(0, dtype="<u8"), None
    bit_generator = gen.bit_generator
    entry = bit_generator.state
    if entry["bit_generator"] != "PCG64":
        raise ValueError(f"{name} reads PCG64 words, got {entry['bit_generator']}")
    words -= entry["has_uint32"]
    outputs = -(-words // 2)
    if skip and outputs > 1:
        bit_generator.advance(outputs - 1)
        outputs = 1
    raw = bit_generator.random_raw(outputs).astype("<u8", copy=False)
    state = bit_generator.state  # past the raw outputs
    state["has_uint32"] = words % 2
    if raw.size:  # numpy keeps the last high half even once it is read
        state["uinteger"] = int(raw[-1] >> np.uint64(32))
    bit_generator.state = state
    return raw, entry["uinteger"] if entry["has_uint32"] else None
