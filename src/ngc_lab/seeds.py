"""Reproducible randomness: a master seed plus a path of string labels.

Every sampler in the package takes a ``Seed``.  Two calls with the same
(master, path) produce identical output; deriving children with distinct
labels produces independent-looking streams.  Both a stdlib ``random.Random``
and a numpy ``Generator`` are available off the same derivation, so scalar
and vectorized code paths can share one seed discipline.  Two helpers replay a
generator's own words in bulk: ``randrange_many`` gives many ``randrange``
draws from one ``getrandbits`` call, and ``replay_bytes`` gives
``Generator.integers(0, 256, count, dtype=np.uint8)`` from one ``random_raw``
call, so a caller can read small power-of-two draws off the bytes directly.
"""

from __future__ import annotations

import hashlib
import operator
import os
import random
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

    def _digest(self) -> bytes:
        h = hashlib.sha256()
        h.update(self.master.to_bytes(8, "little"))
        for label in self.path:
            h.update(b"/")
            h.update(label.encode("utf-8"))
        return h.digest()

    def rng(self) -> random.Random:
        """Stdlib RNG for shuffles, permutations, and scalar draws."""
        return random.Random(int.from_bytes(self._digest()[:16], "little"))

    def generator(self) -> np.random.Generator:
        """Numpy RNG for vectorized draws (independent of .rng())."""
        return np.random.default_rng(int.from_bytes(self._digest()[16:], "little"))


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


def randrange_many(rng: random.Random, n: int, count: int) -> list[int]:
    """``[rng.randrange(n) for _ in range(count)]``, drawn in bulk from the same stream.

    For 0 < n < 2**32 each ``randrange(n)`` attempt is the top n.bit_length()
    bits of one 32-bit Mersenne Twister word, retried while >= n, and
    ``getrandbits(32 * need)`` returns those words least significant first.
    Each numpy round draws exactly as many words as values are missing, so the
    generator ends where the loop would; under 32 missing values a round costs
    more than it saves, and the rest are drawn word by word.
    """
    n = operator.index(n)
    if count <= 0:
        return []
    if n <= 0:
        rng.randrange(n)  # raises randrange's own ValueError
    if n >= 2**32:
        raise ValueError(f"randrange_many needs n < 2**32, got {n}")
    shift = 32 - n.bit_length()
    out: list[int] = []
    while count - len(out) >= 32:
        need = count - len(out)
        words = rng.getrandbits(32 * need).to_bytes(4 * need, "little")
        values = np.frombuffer(words, dtype="<u4") >> shift
        out += values[values < n].tolist()
    while len(out) < count:
        value = rng.getrandbits(32 - shift)
        if value < n:
            out.append(value)
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
