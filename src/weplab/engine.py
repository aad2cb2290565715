"""The weighted empirical field on (time x level) grids.

Per cell, the field is w(y) (count(X_i(t) <= y) - n y) / sqrt(n), formed by
``field_values`` alone, for one run and for each CLT replication.  Indicator
counts are integers per block, added by the sampler in stream order, so every
field value is exact in the counts and bit-for-bit reproducible across worker
counts and path partitions.  Indicator ties are resolved by <= exactly as
written; implemented models produce continuous values almost surely.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np

from .errors import DomainError
from .models import ProcessModel, TimeGrid, level_kernel, map_path_blocks, map_replications
from .weights import WeightSpec


def field_values(counts: np.ndarray, levels: np.ndarray, wv: np.ndarray, n: int) -> np.ndarray:
    """w(y) (count - n y) / sqrt(n): the field of n paths from their counts, levels last.

    ``wv`` holds the weights w(y) of the levels.
    """
    return wv * (counts - n * levels) / math.sqrt(n)


def evaluate_field_streaming(model: ProcessModel, grid: TimeGrid, levels: Sequence[float],
                             w: WeightSpec, n: int, seed: int, workers: int = 1) -> np.ndarray:
    """The field values (times x levels) on the (grid x levels) lattice from n streamed paths.

    Per batch, ``level_kernel`` counts X_t <= y for every cell as integers,
    which the sampler adds in batch order.
    """
    levels = np.asarray(levels, dtype=float)
    # a NaN level would count every path or none, by the model and by count's path
    if levels.size == 0 or not np.all((levels > 0.0) & (levels < 1.0)):
        raise DomainError("need at least one level, each strictly inside (0, 1)")

    kernel = level_kernel(model, levels)

    def block_counts(vals):  # defined here, so a trace books the counting to the engine
        return kernel.count(vals)

    counts = map_path_blocks(model, grid, n, seed, block_counts, workers)
    return field_values(counts, levels, w(levels), n)


def replicated_fields(model: ProcessModel, grid: TimeGrid, levels: Sequence[float],
                      w: WeightSpec, n: int, reps: int, seed: int,
                      workers: int = 1) -> Iterator[np.ndarray]:
    """Field values (batch x times x levels) of the replications ``map_replications`` streams.

    The sampler adds each replication's integer counts over its path slices
    and yields them a batch at a time, in replication order; ``field_values``
    is elementwise, so each batch's fields have the bits of fields formed
    all at once.  The weights are evaluated once, and every batch applies them.
    """
    levels = np.asarray(levels, dtype=float)
    wv = w(levels)
    return (field_values(counts, levels, wv, n) for counts in
            map_replications(model, grid, n, reps, seed, level_kernel(model, levels).count,
                             workers))


def accumulate_cell_moments(model: ProcessModel, cells: Sequence[tuple[float, float]],
                            grid: TimeGrid, n: int, seed: int, workers: int = 1,
                            extra_key: tuple[int, ...] = ()) -> np.ndarray:
    """Joint frequencies P(X_s <= x, X_t <= y) over pairs of probe cells, from n paths.

    Per batch the joint indicator counts are integers, which the sampler
    adds in batch order; the total is divided by n once.  Each cell's
    indicators are packed 64 paths to a word, zero-padded, and a pair's count
    is the popcount of the AND of their words.
    """
    idx = [grid.index_of(t) for t, _ in cells]
    kernel = level_kernel(model, [y for _, y in cells])

    def pair_counts(vals):
        paths = vals.shape[-1]
        words = np.zeros((len(idx), -(-paths // 64)), dtype=np.uint64)
        packed = words.view(np.uint8)[:, :-(-paths // 8)]
        for i, it in enumerate(idx):
            packed[i] = np.packbits(kernel.leq(vals[it], i))
        total = np.empty((len(idx), len(idx)), dtype=np.int64)
        for i in range(len(idx)):
            total[i, i:] = total[i:, i] = np.bitwise_count(words[i] & words[i:]).sum(axis=-1)
        return total

    return map_path_blocks(model, grid, n, seed, pair_counts, workers, extra_key=extra_key) / n


def covariance_from_joint(joint: np.ndarray, cells: Sequence[tuple[float, float]],
                          w: WeightSpec) -> np.ndarray:
    """w(x) w(y) [J - xy] on the cells.

    ``joint[i, j]`` is P(X_s <= x, X_t <= y) for cells i = (s, x) and
    j = (t, y).  The empirical estimate and the limit covariance are both
    assembled here; both joints are exactly symmetric, and so is the result.
    It is filled a row at a time: each entry takes the two roundings of
    ``np.outer(wv, wv) * joint - np.outer(wy, wy)``, and beside the joint and
    the result nothing of size k x k is held.
    """
    ys = np.array([y for _, y in cells])
    wv = np.array([float(w(y)) for _, y in cells])
    wy = wv * ys
    cov = np.empty((len(cells), len(cells)))
    for i, row in enumerate(cov):
        np.multiply(wv[i] * wv, joint[i], out=row)
        row -= wy[i] * wy
    return cov


def export_field_csv(values: np.ndarray, grid: TimeGrid, levels: Sequence[float], path: str,
                     model: ProcessModel, w: WeightSpec, n: int, seed: int) -> None:
    """CSV rows t,y,nu of field ``values`` with a header comment recording the run.

    Rows are written one at a time, so the text of the whole file is never held.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# weplab field v1\n"
                 f"# n={n} seed={seed} model={model.describe()} weight={w.describe()}\n"
                 "t,y,nu\n")
        fh.writelines(f"{float(t)!r},{float(y)!r},{float(values[i, j])!r}\n"
                      for i, t in enumerate(grid.points) for j, y in enumerate(levels))
