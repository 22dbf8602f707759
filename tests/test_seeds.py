"""Seeds: bulk draws replay the one-at-a-time stream exactly."""

from __future__ import annotations

import math
import random
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ngc_lab import seeds
from ngc_lab.seeds import (
    Seed,
    descending_budget,
    key_streams,
    randbelow_descending_rows,
    randrange_array,
    randrange_many,
    randrange_rows,
    replay_bytes,
    replay_words,
    sample_range,
    shuffle_order,
    skip_bytes,
    word_budget,
)

from oracles import randrange_loop


@pytest.mark.parametrize("n", [1, 2, 3, 5, 64, 65, 112, 57344, 2**32 - 1])
@pytest.mark.parametrize("count", [0, 1, 2, 31, 32, 33, 100, 1000])
def test_randrange_many_matches_randrange_loop(n, count):
    loop, bulk = random.Random(n * 1009 + count), random.Random(n * 1009 + count)
    assert randrange_many(bulk, n, count) == randrange_loop(loop, n, count)
    assert bulk.getstate() == loop.getstate()
    # the stream continues in step afterwards
    assert bulk.getrandbits(64) == loop.getrandbits(64)


@pytest.mark.parametrize("n", [0, -3])
def test_randrange_many_empty_range_raises_like_randrange(n):
    with pytest.raises(ValueError) as loop_error:
        random.Random(1).randrange(n)
    with pytest.raises(ValueError) as bulk_error:
        randrange_many(random.Random(1), n, 5)
    assert str(bulk_error.value) == str(loop_error.value)
    assert randrange_many(random.Random(1), n, 0) == randrange_loop(random.Random(1), n, 0) == []


def test_randrange_many_rejects_ranges_past_32_bits():
    with pytest.raises(ValueError):
        randrange_many(random.Random(1), 2**32, 3)


@pytest.mark.parametrize("n", [1, 2, 3, 2**31 + 1, 2**32 - 1])
@settings(max_examples=20, deadline=None)
@given(extra=st.integers(0, 200), seed=st.integers(0, 2**64))
def test_randrange_array_matches_randrange_loop(n, extra, seed):
    for count in (0, 1, 31, 32, 33, extra):
        loop, bulk = random.Random(seed), random.Random(seed)
        values = randrange_array(bulk, n, count)
        assert values.dtype == np.int64 and values.shape == (count,)
        assert values.tolist() == randrange_loop(loop, n, count)
        assert bulk.getstate() == loop.getstate()


@pytest.mark.parametrize("n", [0, -3, 2**32])
def test_randrange_array_rejects_what_randrange_many_rejects(n):
    with pytest.raises(ValueError) as many_error:
        randrange_many(random.Random(1), n, 40)
    with pytest.raises(ValueError) as array_error:
        randrange_array(random.Random(1), n, 40)
    assert str(array_error.value) == str(many_error.value)
    assert randrange_array(random.Random(1), n, 0).shape == (0,)


# --- sample_range: Random.sample's pool branch, spelled out -----------------------


def _takes_set_branch(n: int, k: int) -> bool:
    """Whether ``Random.sample`` tracks a set of picks for k of n (its own rule)."""
    setsize = 21 if k <= 5 else 21 + 4 ** math.ceil(math.log(k * 3, 4))
    return n > setsize


SAMPLE_SIZES = sorted(
    {(n, k) for n in [*range(1, 10), 16, 64, 4680, 8192] for k in (0, 1, n // 2, n - 1, n)}
)


@pytest.mark.parametrize("n, k", SAMPLE_SIZES)
def test_sample_range_matches_random_sample(n, k):
    ours, stdlib = random.Random(n * 7919 + k), random.Random(n * 7919 + k)
    if _takes_set_branch(n, k):
        with pytest.raises(ValueError, match="set of picks"):
            sample_range(ours, n, k)
        assert ours.getstate() == stdlib.getstate()  # nothing drawn
        return
    assert sample_range(ours, n, k) == stdlib.sample(range(1, n + 1), k)
    assert ours.getstate() == stdlib.getstate()
    assert ours.getrandbits(64) == stdlib.getrandbits(64)


@pytest.mark.parametrize("k", [4, -1])
def test_sample_range_rejects_sizes_outside_zero_to_n(k):
    with pytest.raises(ValueError, match="0 <= k <= n"):
        sample_range(random.Random(1), 3, k)


# --- replay_words: many generators' words at once ------------------------------------

# keys of one to four 32-bit words (the key length sets init_by_array's cycle)
REPLAY_KEYS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**96, 2**128 - 1]
# one word, then either side of each twist block's end (227, 454, 624 rows)
REPLAY_COUNTS = [0, 1, 227, 228, 624, 625, 1249]
KEYS = st.one_of(*(st.integers(0, 2 ** (32 * n) - 1) for n in (1, 2, 3, 4)))


def _assert_replayed(keys, count):
    got = replay_words(keys, count)
    assert got.dtype == np.uint32 and got.shape == (len(keys), count)
    for key, row in zip(keys, got.tolist()):
        rng = random.Random(key)
        assert row == [rng.getrandbits(32) for _ in range(count)]


@pytest.mark.parametrize("count", REPLAY_COUNTS)
def test_replay_words_match_getrandbits(count):
    _assert_replayed(REPLAY_KEYS, count)


@settings(max_examples=40, deadline=None)
@given(st.lists(KEYS, max_size=9), st.sampled_from(REPLAY_COUNTS), st.sampled_from([2, 4096]))
def test_replay_words_match_getrandbits_on_drawn_keys(keys, count, pass_keys):
    with patch.object(seeds, "_PASS_KEYS", pass_keys):  # several passes, or one
        _assert_replayed(keys, count)


@pytest.mark.parametrize("key", [-1, 2**128])
def test_replay_words_reject_keys_outside_128_bits(key):
    with pytest.raises(ValueError, match="2\\*\\*128"):
        replay_words([1, key], 3)


# --- randrange_rows: every stream's randrange draws at once ------------------------

ROW_BOUNDS = [1, 2, 3, 112, 2**31 - 1, 2**32 - 1]


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(ROW_BOUNDS),
    st.integers(0, 80),
    st.integers(0, 40),
    st.lists(KEYS, max_size=12),
    st.sampled_from([0, 1, 7, 300]),  # words held a stream: all, some or no draws read on
    st.sampled_from([1, 10**9]),  # replayed, or read from stdlib generators
)
def test_randrange_rows_matches_randrange_many_per_row(n, count, more, keys, words, replay_min):
    with patch.object(seeds, "_REPLAY_MIN", replay_min):
        (streams,) = key_streams((keys, words))
    got = randrange_rows(streams, n, count)
    then = randrange_rows(streams, 3, more)  # a second read goes on where the first stopped
    assert got.dtype == np.int64 and got.shape == (len(keys), count)
    assert then.shape == (len(keys), more)
    for key, values, rest in zip(keys, got.tolist(), then.tolist()):
        single, loop = random.Random(key), random.Random(key)
        assert values == randrange_many(single, n, count) == randrange_loop(loop, n, count)
        assert rest == randrange_many(single, 3, more) == randrange_loop(loop, 3, more)


@pytest.mark.parametrize("replay_min", [1, 10**9])
def test_key_streams_hold_each_group_its_own_words(replay_min):
    groups = ([3, 2**100], 5), ([2**40], 40), ([], 9)
    with patch.object(seeds, "_REPLAY_MIN", replay_min):
        streams = key_streams(*groups)
    assert [s.keys for s in streams] == [keys for keys, _ in groups]
    assert [s.words.shape for s in streams] == [(2, 5), (1, 40), (0, 9)]
    for s in streams:
        for key, row in zip(s.keys, s.words.tolist()):
            assert row == replay_words([key], len(row))[0].tolist()


@pytest.mark.parametrize("n", [0, -3, 2**32, 2**40])
def test_randrange_rows_rejects_what_randrange_many_rejects(n):
    for count in (1, 40):
        with pytest.raises(ValueError) as many_error:
            randrange_many(random.Random(1), n, count)
        with pytest.raises(ValueError) as rows_error:
            randrange_rows(key_streams(([1, 2], 8))[0], n, count)
        assert str(rows_error.value) == str(many_error.value)
        with pytest.raises(ValueError):
            randrange_rows(key_streams(([], 8))[0], n, count)
    # nothing is drawn, so nothing is checked, as with randrange_many
    assert randrange_rows(key_streams(([1], 8))[0], n, 0).shape == (1, 0)


# --- randbelow_descending_rows: shuffles and pool walks, every stream at once --------


def _swapped(length: int, draws: list[int]) -> list[int]:
    """``list(range(length))`` after ``Random.shuffle``'s swaps at these draws."""
    items = list(range(length))
    for step, j in enumerate(draws):
        i = length - 1 - step
        items[i], items[j] = items[j], items[i]
    return items


def _pool_walk(n: int, draws: list[int]) -> list[int]:
    """``Random.sample``'s picks from ``range(1, n + 1)`` at these pool draws."""
    pool, picks = list(range(1, n + 1)), []
    for step, j in enumerate(draws):
        picks.append(pool[j])
        pool[j] = pool[n - 1 - step]
    return picks


@settings(max_examples=120, deadline=None)
@given(
    st.integers(0, 40),
    st.lists(KEYS, max_size=10),
    st.sampled_from([None, 0, 1, 6]),  # words held a stream: the budget, or too few
    st.sampled_from([1, 10**9]),  # replayed, or read from stdlib generators
    st.integers(0, 3),  # randrange(3) draws read before, so cursors start apart
)
def test_randbelow_descending_rows_read_shuffles_and_samples(top, keys, words, replay_min, lead):
    for steps, walk in ((max(top - 1, 0), "shuffle"), (top, "sample")):
        held = descending_budget(top, steps) + 2 * lead if words is None else words
        with patch.object(seeds, "_REPLAY_MIN", replay_min):
            (streams,) = key_streams((keys, held))
        randrange_rows(streams, 3, lead)
        got = randbelow_descending_rows(streams, top, steps)
        then = randrange_rows(streams, 7, 3)  # a later read goes on where this one stopped
        assert got.dtype == np.int64 and got.shape == (len(keys), steps)
        for key, draws, rest in zip(keys, got.tolist(), then.tolist()):
            rng = random.Random(key)
            randrange_many(rng, 3, lead)
            if walk == "shuffle":
                items = list(range(top))
                rng.shuffle(items)
                assert _swapped(top, draws) == items
            else:
                assert _pool_walk(top, draws) == sample_range(rng, top, top)
            assert rest == randrange_many(rng, 7, 3)


def test_randbelow_descending_rows_validation():
    (streams,) = key_streams(([1, 2], 8))
    for top, steps in ((3, 4), (3, -1), (-1, 0)):
        with pytest.raises(ValueError, match="steps <= top"):
            randbelow_descending_rows(streams, top, steps)
    with pytest.raises(ValueError, match="2\\*\\*32"):
        randbelow_descending_rows(streams, 2**32, 1)
    assert randbelow_descending_rows(streams, 2**40, 0).shape == (2, 0)
    assert randbelow_descending_rows(key_streams(([], 8))[0], 5, 4).shape == (0, 4)
    assert streams.cursor.tolist() == [0, 0]


def test_descending_budget_covers_the_mean_and_more():
    assert descending_budget(0, 0) == descending_budget(40, 0) == 0
    for top in (2, 5, 40, 1000):
        mean = sum((1 << b.bit_length()) / b for b in range(2, top + 1))
        assert descending_budget(top, top - 1) >= mean + 8


def test_word_budget_covers_the_mean_and_more():
    for n in (1, 2, 3, 112, 2**31, 2**32 - 1):
        p = n / 2 ** n.bit_length()
        for count in (1, 12, 1000):
            assert word_budget(n, count) >= count / p + 8
        assert word_budget(n, 0) == 0


# --- Seed.keys: a run of trial keys off one hashed prefix -------------------------

LABELS = st.one_of(st.text(max_size=6), st.integers(-5, 10**6))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 2**64 - 1),
    st.lists(st.text(max_size=6), max_size=3),
    st.lists(LABELS, max_size=5),
    st.lists(LABELS, max_size=2),
)
def test_seed_keys_match_the_chained_children(master, path, indices, suffix):
    root = Seed(master, tuple(path))
    got = root.keys(indices, *suffix)
    assert got == [root.child(i, *suffix).key() for i in indices]
    for i, key in zip(indices, got):
        assert random.Random(key).getstate() == root.child(i, *suffix).rng().getstate()


def test_seed_keys_hash_non_ascii_labels_as_children_do():
    root = Seed(17, ("σ", "Ω/x"))
    (got,) = root.keys(["ü"], "ünïcode", 3)
    assert got == root.child("ü", "ünïcode", 3).key()


# --- shuffle_order: Random.shuffle's permutation read off bulk words -----------------


# the bulk replay at every length, the default split, the spelled-out loop at every length
SHUFFLE_THRESHOLDS = (0, seeds._SHUFFLE_BULK_MIN, 2**62)


def _assert_shuffle_replayed(length: int, seed: int) -> None:
    loop = random.Random(seed)
    items = list(range(length))
    loop.shuffle(items)
    state = loop.getstate()
    after = loop.getrandbits(64)
    for threshold in SHUFFLE_THRESHOLDS:
        bulk = random.Random(seed)
        with patch.object(seeds, "_SHUFFLE_BULK_MIN", threshold):
            order = shuffle_order(bulk, length)
        assert order.dtype == np.int64 and order.tolist() == items, threshold
        assert bulk.getstate() == state
        assert bulk.getrandbits(64) == after


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 5000), st.integers(0, 2**64 - 1))
def test_shuffle_order_matches_shuffle(length, seed):
    _assert_shuffle_replayed(length, seed)


BAND_EDGES = sorted({e + d for b in range(1, 17) for e in [2**b] for d in (-1, 0, 1)})


@pytest.mark.parametrize("length", BAND_EDGES + [57344, 60840])
def test_shuffle_order_matches_shuffle_at_band_edges_and_instance_sizes(length):
    for seed in range(3):
        _assert_shuffle_replayed(length, seed * 7919 + length)


def test_shuffle_order_permutes_any_list_as_shuffle_does():
    loop, bulk = random.Random(11), random.Random(11)
    items = [f"edge{i}" for i in range(1000)]
    shuffled = list(items)
    loop.shuffle(shuffled)
    assert [items[i] for i in shuffle_order(bulk, len(items))] == shuffled


# --- replay_bytes: numpy's uint8 draws read off the raw words ------------------------


def _generators(seed: int, lead: int):
    """Two equal generators; `lead` 32-bit draws first, so an odd lead carries a half-word."""
    pair = np.random.default_rng(seed), np.random.default_rng(seed)
    for gen in pair:
        gen.integers(0, 2**31, size=lead, dtype=np.uint32)
    return pair


@pytest.mark.parametrize("lead", [0, 1, 2, 3])
@pytest.mark.parametrize("count", [0, 1, 2, 3, 4, 5, 7, 8, 9, 12, 13, 31, 1001, 4096])
def test_replay_bytes_matches_integers_and_its_end_state(lead, count):
    for seed in range(4):
        drawn, replayed = _generators(seed, lead)
        assert drawn.bit_generator.state["has_uint32"] == lead % 2
        want = drawn.integers(0, 256, count, dtype=np.uint8)
        got = replay_bytes(replayed, count)
        assert got.dtype == np.uint8 and got.tolist() == want.tolist()
        assert replayed.bit_generator.state == drawn.bit_generator.state
        # the next draw reads the carried half-word, if any, the same way
        assert replayed.integers(0, 1000, 3).tolist() == drawn.integers(0, 1000, 3).tolist()


@pytest.mark.parametrize(
    "bits, dtype", [(b, np.uint8) for b in range(1, 9)] + [(b, np.int8) for b in range(1, 8)]
)
def test_power_of_two_draws_are_the_top_bits_of_the_bytes(bits, dtype):
    # the sigma(1) indicators (b=6) and the walk steps (b=1) are read this way;
    # a numpy that maps bytes to these draws differently fails here first
    drawn, replayed = _generators(bits, 1)
    want = drawn.integers(0, 2**bits, 999, dtype=dtype)
    assert (replay_bytes(replayed, 999) >> (8 - bits)).tolist() == want.tolist()
    assert replayed.bit_generator.state == drawn.bit_generator.state


def test_replay_bytes_rejects_other_bit_generators():
    with pytest.raises(ValueError, match="PCG64"):
        replay_bytes(np.random.Generator(np.random.MT19937(1)), 8)


@settings(max_examples=200, deadline=None)
@given(
    lead=st.integers(0, 8),
    count=st.one_of(st.integers(0, 64), st.integers(0, 100_000)),
    seed=st.integers(0, 2**64 - 1),
)
@example(lead=1, count=0, seed=0)  # no word read: the carried half stays
@example(lead=1, count=4, seed=0)  # the carried half is the only word read
@example(lead=1, count=8, seed=0)  # one word past the carried half: one output, its high half kept
@example(lead=0, count=12, seed=0)  # three words: two outputs, the last high half carried
@example(lead=4, count=9, seed=0)  # the carried half, then two words
def test_skip_bytes_leaves_the_state_replay_bytes_leaves(lead, count, seed):
    # `lead` uint8 draws first: 1-4 bytes read one word and carry a half-word
    skipped, replayed = np.random.default_rng(seed), np.random.default_rng(seed)
    for gen in (skipped, replayed):
        gen.integers(0, 256, lead, dtype=np.uint8)
    skip_bytes(skipped, count)
    replay_bytes(replayed, count)
    assert skipped.bit_generator.state == replayed.bit_generator.state
    assert skipped.integers(0, 1000, 3).tolist() == replayed.integers(0, 1000, 3).tolist()


def test_skip_bytes_rejects_other_bit_generators():
    with pytest.raises(ValueError, match="skip_bytes reads PCG64"):
        skip_bytes(np.random.Generator(np.random.MT19937(1)), 8)
