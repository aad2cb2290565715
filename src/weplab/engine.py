"""The weighted empirical field on (time x level) grids.

Per cell, the field is w(y) (count(X_i(t) <= y) - n y) / sqrt(n).  Indicator
counts are taken as integers per block and added by the sampler in fixed
order, so every field value is exact in the counts and bit-for-bit
reproducible across worker counts and path partitions.  Indicator ties are
resolved by <= exactly as written; implemented models produce continuous
values almost surely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import parallel
from .errors import DomainError
from .models import ProcessModel, TimeGrid, level_kernel, map_path_blocks
from .weights import WeightSpec

DEFAULT_CLIP = 1e-3

# Indicators per F @ F.T in accumulate_cell_moments: 1 MiB, sums exact in float32.
_PAIR_VALUES = 1 << 18


@dataclass(frozen=True)
class EmpiricalField:
    """Field values on the (grid times) x (levels) lattice."""

    grid: TimeGrid
    levels: np.ndarray
    values: np.ndarray       # shape (len(grid), len(levels))
    n: int
    weight: WeightSpec
    provenance: dict

    def __post_init__(self):
        for name in ("levels", "values"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if self.values.shape != (len(self.grid), self.levels.size):
            raise DomainError("field shape must be (grid size, level count)")


def evaluate_field_streaming(model: ProcessModel, grid: TimeGrid, levels: Sequence[float],
                             w: WeightSpec, n: int, seed: int, clip: float = DEFAULT_CLIP,
                             workers: int = 1,
                             extra_key: tuple[int, ...] = (),
                             stream: int = parallel.STREAM_PATHS) -> EmpiricalField:
    """Evaluate the field on the (grid x levels) lattice from n streamed paths.

    Per batch, counts of X_i(t) <= y are taken for every cell as integers,
    which the sampler adds in batch order.  A batch is counted on its native
    scale by sorting each time row in place and searching it for the level
    bands of ``level_kernel``.
    """
    levels = np.asarray(levels, dtype=float)
    if levels.size == 0:
        raise DomainError("need at least one level")
    if not (np.all(np.isfinite(levels)) and math.isfinite(clip)):
        raise DomainError("levels and clip must be finite")
    if np.any(levels < clip) or np.any(levels > 1.0 - clip):
        raise DomainError(f"levels must lie inside the clip range [{clip}, {1 - clip}]")

    kernel = level_kernel(model, levels)

    def block_counts(vals):
        vals.sort(axis=-1)
        return kernel.count_sorted(vals)

    counts = map_path_blocks(model, grid, n, seed, block_counts, workers,
                             stream=stream, extra_key=extra_key)
    wv = np.asarray(w(levels), dtype=float)
    nu = wv[None, :] * (counts - n * levels[None, :]) / math.sqrt(n)
    return EmpiricalField(grid, levels, nu, n, w, {"model": model.describe(), "seed": seed})


def sup_statistic(field: EmpiricalField) -> float:
    """max over grid cells of |field value|."""
    if field.values.size == 0:
        raise DomainError("empty field")
    return float(np.max(np.abs(field.values)))


def accumulate_cell_moments(model: ProcessModel, cells: Sequence[tuple[float, float]],
                            grid: TimeGrid, n: int, seed: int, workers: int = 1,
                            extra_key: tuple[int, ...] = ()) -> np.ndarray:
    """Joint frequencies P(X_s <= x, X_t <= y) over pairs of probe cells, from n paths.

    Per batch the joint indicator counts are integers, which the sampler
    adds in batch order; the total is divided by n once.  Each path chunk
    fills a (cells x paths) float32 indicator matrix F by rows and adds F @ F.T.
    """
    idx = [grid.index_of(t) for t, _ in cells]
    kernel = level_kernel(model, [y for _, y in cells])
    step = max(1, _PAIR_VALUES // max(1, len(idx)))

    def pair_counts(vals):
        total = np.zeros((len(idx), len(idx)), dtype=np.int64)
        f = np.empty((len(idx), min(step, vals.shape[-1])), dtype=np.float32)
        for a in range(0, vals.shape[-1], step):
            chunk = f[:, :vals.shape[-1] - a]
            for i, it in enumerate(idx):
                chunk[i] = kernel.leq(vals[it, a:a + step], i)
            total += np.rint(chunk @ chunk.T).astype(np.int64)
        return total

    return map_path_blocks(model, grid, n, seed, pair_counts, workers, extra_key=extra_key) / n


def covariance_from_joint(joint: np.ndarray, cells: Sequence[tuple[float, float]],
                          w: WeightSpec) -> np.ndarray:
    """Symmetrized w(x) w(y) [J - xy] on the cells.

    ``joint[i, j]`` is P(X_s <= x, X_t <= y) for cells i = (s, x) and
    j = (t, y).  Both the empirical estimate and the limit model assemble
    their covariance here.
    """
    ys = np.array([y for _, y in cells])
    wv = np.array([float(w(y)) for _, y in cells])
    cov = np.outer(wv, wv) * joint - np.outer(wv * ys, wv * ys)
    return 0.5 * (cov + cov.T)


def empirical_covariance(rep_values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cross-moment covariance of replicated field vectors, with stderrs.

    ``rep_values`` has one row per replication.  The estimator is the plain
    cross moment (the field is mean zero by construction, so this is
    unbiased); standard errors are delete-one jackknife.
    """
    v = np.asarray(rep_values, dtype=float)
    if v.ndim != 2 or v.shape[0] < 30:
        raise DomainError("need at least 30 replications")
    r = v.shape[0]
    prods = v[:, :, None] * v[:, None, :]
    total = prods.sum(axis=0)
    cov = total / r
    # delete-one jackknife: leave-out means are (total - prods_i) / (r - 1)
    loo = (total[None, :, :] - prods) / (r - 1)
    se = np.sqrt((r - 1) / r * np.sum((loo - cov[None, :, :]) ** 2, axis=0))
    return cov, se


def export_field_csv(field: EmpiricalField, path: str) -> None:
    """CSV rows t,y,nu with a header comment recording the provenance."""
    prov = field.provenance
    lines = ["# weplab field v1",
             f"# n={field.n} seed={prov.get('seed')} model={prov.get('model')} "
             f"weight={field.weight.describe()}",
             "t,y,nu"]
    for i, t in enumerate(field.grid.points):
        for j, y in enumerate(field.levels):
            lines.append(f"{float(t)!r},{float(y)!r},{float(field.values[i, j])!r}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
