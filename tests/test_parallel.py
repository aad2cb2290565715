"""Block seeding: one vectorized pass equal to numpy's SeedSequence, word for word.

Every sampled value in the project comes from a PCG64 generator seeded with
the words of ``SeedSequence((seed, stream, *key, j))``; ``seed_words``
computes those words for many keys at once, and the digests pin that it
does so bit for bit.  These tests pin it directly, on seeds and keys far
beyond what the digests reach.
"""

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weplab import parallel
from weplab.limits import build_limit_model, sample_limit_field
from weplab.models import TimeGrid, map_path_blocks, map_replications, parse_model
from weplab.weights import parse_weight

seeds = st.integers(0, 2 ** 70)
components = st.integers(0, 2 ** 32 - 1)


def numpy_rng(seed, key):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, *key))))


@given(seed=seeds, data=st.data())
@settings(max_examples=300)
def test_seed_words_are_numpys(seed, data):
    width = data.draw(st.integers(0, 6))
    keys = data.draw(st.lists(st.tuples(*[components] * width), min_size=1, max_size=5))
    words = parallel.seed_words(seed, keys)
    assert words.shape == (len(keys), 4) and words.dtype == np.uint64
    for row, key in zip(words, keys):
        expected = np.random.SeedSequence((seed, *key)).generate_state(4, np.uint64)
        assert np.array_equal(row, expected)
    ours, theirs = parallel.rng_from_words(words[-1]), numpy_rng(seed, keys[-1])
    assert np.array_equal(ours.standard_normal(7), theirs.standard_normal(7))
    assert np.array_equal(ours.random(5), theirs.random(5))


@pytest.mark.parametrize("seed,keys", [
    (-1, [(0,)]),
    (0, [(-1,)]),
    (0, [(2 ** 32,)]),
    (0, [(0, 2 ** 64)]),
    (0, [(0,), (0, 1)]),
])
def test_out_of_range_seeds_and_keys_are_rejected(seed, keys):
    with pytest.raises(ValueError):
        parallel.seed_words(seed, keys)


def test_samplers_build_no_seed_sequence(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("a sampler built a SeedSequence")

    monkeypatch.setattr(np.random, "SeedSequence", refuse)
    grid = TimeGrid(np.array([1.0, 1.5, 2.0]))
    for kind in ("bm-copula", "atomic:0.5@0.5"):
        model = parse_model(kind)
        assert map_path_blocks(model, grid, 5000, 3, lambda b: b.sum(axis=1)).shape == (3,)
        assert np.concatenate(list(map_replications(
            model, grid, 5000, 3, 3, lambda b: b.sum(axis=(1, 2))))).shape == (3,)
    limit = build_limit_model(parse_model("bm-copula"), [(1.0, 0.3), (2.0, 0.6)],
                              parse_weight("const:1"))
    assert np.concatenate(list(sample_limit_field(limit, 5000, 3))).shape == (5000, 2)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_map_blocks_yields_in_block_order_with_bounded_flight(workers):
    lock, started, consumed, most = threading.Lock(), [0], [0], [0]

    def fn(index, start, stop):
        with lock:
            started[0] += 1
            most[0] = max(most[0], started[0] - consumed[0])
        time.sleep(0.001 * (index % 3))
        return index, start, stop

    got = []
    for result in parallel.map_blocks(fn, 50, workers, block_size=3):
        time.sleep(0.002)
        got.append(result)
        with lock:
            consumed[0] += 1
    assert got == parallel.iter_blocks(50, 3)
    assert most[0] <= max(1, 2 * workers)
