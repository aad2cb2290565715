"""Deterministic block partitioning for Monte Carlo work.

Every sampling run is split into fixed-size blocks of paths (or
replications).  Block ``j`` of a run draws from its own PCG64 generator
seeded as by ``SeedSequence((seed, stream, *key, j))``, with the words of all
of a sampler's blocks derived in one vectorized pass (``seed_words``).  So the
values of a block depend only on the run seed and the block index, never on
which worker ran it or how many did.  The samplers add their consumers'
results, integer counts exact under any path partition, in the block order in
which ``map_blocks`` yields them at every worker count.
"""

from __future__ import annotations

import collections
import functools
import os
from typing import Callable, Iterator

import numpy as np

from .errors import ConfigError

# Paths per seeding block.  Fixed: changing it changes the sampled values.
BLOCK_SIZE = 4096

# Stream tags keep independent purposes on disjoint substreams of one seed.
# Only the proof-lemma tests draw from STREAM_CALIBRATION, for their sup and
# increment means.  Its value stays reserved: no other purpose may take it,
# and renumbering the tags would move the bytes of the streams they tag.
STREAM_PATHS = 0
STREAM_RANDOMIZER = 1
STREAM_LIMIT = 2
STREAM_CALIBRATION = 3
STREAM_REPLICATION = 4

_ENV_WORKERS = "WEPLAB_WORKERS"


def default_workers() -> int:
    """Worker count from the environment, defaulting to 1; it must be a positive integer."""
    raw = os.environ.get(_ENV_WORKERS, "1")
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise ConfigError(f"{_ENV_WORKERS} must be a positive integer, not {raw!r}")
    return int(raw)


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


@functools.cache
def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """Read-only uint32 column of init * mult**i mod 2^32, i < count; built once per process."""
    c = np.array([init * pow(mult, i, 1 << 32) & _MASK32 for i in range(count)],
                 dtype=np.uint32)[:, None]
    c.flags.writeable = False
    return c


def _hashmix(values: np.ndarray, c: np.ndarray) -> np.ndarray:
    """numpy's ``hashmix`` by row: row i xor-ed with constant c[i], times c[i + 1]."""
    out = (values ^ c[:-1]) * c[1:]
    return out ^ (out >> 16)


def seed_words(seed: int, keys) -> np.ndarray:
    """(N x 4) uint64 words, row i ``SeedSequence((seed, *keys[i])).generate_state(4, np.uint64)``.

    numpy's pool mixing and output hash, run on all N keys at once: the seed
    is any non-negative integer, the keys have equal lengths and components
    in [0, 2^32).
    """
    seed, keys = int(seed), np.asarray(keys)
    if seed < 0 or keys.ndim != 2 or (keys.size and (keys.min() < 0 or keys.max() > _MASK32)):
        raise ValueError("need a non-negative seed and equal-length keys in [0, 2^32)")
    head = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    # one entropy column per key; zero rows pad the 4-word pool as numpy's hashmix(0) does
    entropy = np.zeros((max(len(head) + keys.shape[1], 4), len(keys)), dtype=np.uint32)
    entropy[:len(head)] = np.array(head, dtype=np.uint32)[:, None]
    entropy[len(head):len(head) + keys.shape[1]] = keys.T
    c = _hash_constants(0x43B0D7E5, 0x931E8875, 4 * len(entropy) + 1)
    with np.errstate(over="ignore"):
        pool, at = _hashmix(entropy[:4], c[:5]), 4  # 4 hashmix calls per entropy word
        # mix each pool word into the others, then each further entropy word into all
        for src in range(len(entropy)):
            dst = [d for d in range(4) if d != src]
            mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * _hashmix(
                pool[src] if src < 4 else entropy[src], c[at:at + len(dst) + 1])
            pool[dst] = mixed ^ (mixed >> 16)
            at += len(dst)
        # generate_state: 8 uint32 words cycling the pool, read as 4 little-endian uint64
        state = _hashmix(np.concatenate([pool, pool]), _hash_constants(0x8B51F9DD, 0x58F38DED, 9))
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)


class _SeedWords(np.random.bit_generator.ISeedSequence):
    """One row of ``seed_words``, in numpy's interface for seeding PCG64 (4 uint64 words)."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return np.ascontiguousarray(self.words, dtype=np.uint64)


def rng_from_words(words: np.ndarray) -> np.random.Generator:
    """PCG64 generator seeded with one row of ``seed_words``."""
    return np.random.Generator(np.random.PCG64(_SeedWords(words)))


def iter_blocks(n: int, block_size: int = BLOCK_SIZE) -> list[tuple[int, int, int]]:
    """Partition range(n) into (block_index, start, stop) triples."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return [(index, start, min(start + block_size, n))
            for index, start in enumerate(range(0, n, block_size))]


def map_blocks(fn: Callable[[int, int, int], object], n: int, workers: int = 1,
               block_size: int = BLOCK_SIZE) -> Iterator:
    """Yield ``fn(block_index, start, stop)`` for every block of range(n), in block order.

    Results come in block order regardless of scheduling, so any downstream
    merge sees the same sequence for every worker count.  With more than one
    worker, at most 2 x workers blocks are in flight.
    """
    blocks = iter_blocks(n, block_size)
    if workers <= 1 or len(blocks) <= 1:
        yield from (fn(*b) for b in blocks)
        return
    # imported here, so a single-worker run does not pay for it
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = collections.deque()
        for block in blocks:
            pending.append(pool.submit(fn, *block))
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
