"""Seeds: bulk draws replay the one-at-a-time stream exactly."""

from __future__ import annotations

import random

import pytest

from ngc_lab.seeds import randrange_many

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
