"""Deterministic block partitioning for Monte Carlo work.

Every sampling run is split into fixed-size blocks of paths (or
replications).  Block ``j`` of a run draws from its own generator seeded by
``SeedSequence((seed, stream, *key, j))``, so the values produced for a given
block depend only on the run seed and the block index, never on which worker
executed it or how many workers ran.  Partial results are merged in fixed
pairwise-tree order over the block index, which makes every reduction
bit-for-bit reproducible across worker counts.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError

# Paths per seeding block.  Fixed: changing it changes the sampled values.
BLOCK_SIZE = 4096

# Stream tags keep independent purposes on disjoint substreams of one seed.
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


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """Generator for the substream identified by (seed, *key)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((int(seed),) + tuple(int(k) for k in key))))


def iter_blocks(n: int, block_size: int = BLOCK_SIZE) -> list[tuple[int, int, int]]:
    """Partition range(n) into (block_index, start, stop) triples."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return [(index, start, min(start + block_size, n))
            for index, start in enumerate(range(0, n, block_size))]


def map_blocks(fn: Callable[[int, int, int], object], n: int, workers: int = 1,
               block_size: int = BLOCK_SIZE) -> list[object]:
    """Apply ``fn(block_index, start, stop)`` to every block of range(n).

    Results are returned ordered by block index regardless of scheduling, so
    any downstream merge sees the same sequence for every worker count.
    """
    blocks = iter_blocks(n, block_size)
    if workers <= 1 or len(blocks) <= 1:
        return [fn(*b) for b in blocks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, *b) for b in blocks]
        return [f.result() for f in futures]


def tree_reduce(items: Sequence, op: Callable) -> object:
    """Reduce items pairwise in fixed tree order over the index.

    ``op`` must be a binary merge.  The tree shape depends only on
    ``len(items)``; rounding therefore cannot depend on worker scheduling.
    """
    if not items:
        raise ValueError("cannot reduce an empty sequence")
    level = list(items)
    while len(level) > 1:
        nxt = [op(level[i], level[i + 1]) for i in range(0, len(level) - 1, 2)]
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    return level[0]
