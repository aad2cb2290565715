"""Uniform processes on a time grid.

Implemented kinds: the Brownian-motion copula (X_t = Phi(B_t / sqrt(t))),
the fully dependent process (one uniform draw shared across the grid), the
time-iid process (independent uniform per grid point), and an atomic-copula
(a time-constant draw from a df with one atom pushed through the randomized
distributional transform, exercising the atom bookkeeping).

Brownian paths use exact N(0, dt) increments at the grid times only; every
implemented functional is grid-measurable, so no bridge infill is done.
Suprema over time are therefore maxima over grid points, a declared
approximation quantified by the refinement studies in the verifiers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import special

from . import parallel
from .errors import DomainError, UnsupportedModelError
from .numerics import bvn_cdf, std_normal_quantile
from .transforms import dist_transform, uniform_atom_mixture

BM_COPULA = "bm-copula"
DEPENDENT = "dependent"
IID_TIME = "iid-time"
ATOMIC = "atomic"
MODEL_KINDS = (BM_COPULA, DEPENDENT, IID_TIME, ATOMIC)

# Uniform values are kept strictly inside (0, 1).
_OPEN_LO = 5e-324
_OPEN_HI = float(np.nextafter(1.0, 0.0))


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing times in [a, b] with a > 0."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.size < 1:
            raise DomainError("grid needs at least one time point")
        if not np.all(np.isfinite(pts)):
            raise DomainError("grid times must be finite")
        if pts[0] <= 0.0:
            raise DomainError("grid must start strictly above 0")
        if np.any(np.diff(pts) <= 0.0):
            raise DomainError("grid times must be strictly increasing")
        pts = pts.copy()
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @classmethod
    def uniform(cls, a: float = 1.0, b: float = 2.0, count: int = 129) -> "TimeGrid":
        if count < 2:
            raise DomainError("uniform grid needs at least two points")
        if not (0.0 < a < b):
            raise DomainError("need 0 < a < b")
        return cls(np.linspace(a, b, count))

    @property
    def a(self) -> float:
        return float(self.points[0])

    @property
    def b(self) -> float:
        return float(self.points[-1])

    def __len__(self) -> int:
        return int(self.points.size)

    def refined(self) -> "TimeGrid":
        """Grid with midpoints inserted (doubled density, same endpoints)."""
        pts = self.points
        if pts.size < 2:
            return self
        mids = 0.5 * (pts[:-1] + pts[1:])
        return TimeGrid(np.sort(np.concatenate([pts, mids])))

    def index_of(self, t: float) -> int:
        """Index of a grid time, matched within 1e-9."""
        idx = int(np.argmin(np.abs(self.points - t)))
        if abs(float(self.points[idx]) - t) > 1e-9:
            raise DomainError(f"time {t} is not on the grid")
        return idx

    def ball_indices(self, t: float, radius: float) -> np.ndarray:
        """Grid indices with |s - t| <= radius, with a relative slack guard."""
        r = radius * (1.0 + 1e-9) + 1e-15
        return np.flatnonzero(np.abs(self.points - t) <= r)

    def forward_indices(self, t: float, eps: float) -> np.ndarray:
        """Grid indices with t < s <= t + eps, with a relative slack guard."""
        pts = self.points
        return np.flatnonzero((pts > t) & (pts <= t + eps * (1.0 + 1e-9)))


@dataclass(frozen=True)
class ProcessModel:
    kind: str
    atom_mass: float = 0.5
    atom_loc: float = 0.5

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise DomainError(f"unknown model kind {self.kind!r}")
        if self.kind == ATOMIC and not (0.0 < self.atom_mass < 1.0):
            raise DomainError("atom mass must lie in (0, 1)")

    def describe(self) -> str:
        if self.kind == ATOMIC:
            return f"atomic:{self.atom_mass:g}@{self.atom_loc:g}"
        return self.kind


def parse_model(text: str) -> ProcessModel:
    """Parse the CLI model syntax: bm-copula, dependent, iid-time, atomic:<mass>@<loc>."""
    raw = text.strip().lower()
    if raw in (BM_COPULA, DEPENDENT, IID_TIME):
        return ProcessModel(raw)
    if raw.startswith("atomic:"):
        body = raw[len("atomic:"):]
        try:
            mass_s, loc_s = body.split("@")
            return ProcessModel(ATOMIC, float(mass_s), float(loc_s))
        except ValueError as exc:
            raise DomainError(f"bad atomic model spec {text!r}") from exc
    raise DomainError(f"unrecognized model spec {text!r}")


def _brownian_block(grid: TimeGrid, count: int, rng: np.random.Generator) -> np.ndarray:
    pts = grid.points
    dt = np.diff(np.concatenate([[0.0], pts]))
    z = rng.standard_normal((count, pts.size))
    z *= np.sqrt(dt)
    return np.cumsum(z, axis=1, out=z)


def _sample_block(model: ProcessModel, grid: TimeGrid, count: int, seed: int,
                  stream: int, key: tuple[int, ...]) -> np.ndarray:
    rng = parallel.derive_rng(seed, stream, *key)
    m = len(grid)
    if model.kind == BM_COPULA:
        b = _brownian_block(grid, count, rng)
        b /= np.sqrt(grid.points)
        special.ndtr(b, out=b)
        return np.clip(b, _OPEN_LO, _OPEN_HI, out=b)
    if model.kind == DEPENDENT:
        u = rng.random(count)
        return np.repeat(u[:, None], m, axis=1)
    if model.kind == IID_TIME:
        return rng.random((count, m))
    # atomic: one transformed draw per path, constant in time
    df = uniform_atom_mixture(model.atom_mass, model.atom_loc)
    y = df.sample(count, rng)
    rng_v = parallel.derive_rng(seed, parallel.STREAM_RANDOMIZER, *key)
    v = rng_v.random(count)
    u = np.clip(dist_transform(df, y, v), _OPEN_LO, _OPEN_HI)
    return np.repeat(np.asarray(u)[:, None], m, axis=1)


def map_path_blocks(model: ProcessModel, grid: TimeGrid, n: int, seed: int,
                    fn: Callable[[np.ndarray], object], workers: int = 1,
                    stream: int = parallel.STREAM_PATHS,
                    extra_key: tuple[int, ...] = ()) -> list:
    """Stream blocks of n sampled paths through ``fn``; the only path sampler.

    Paths are never held all at once: each block is sampled, handed to
    ``fn`` and dropped.  A block goes to exactly one ``fn`` call, which may
    modify it in place.  Block j draws from the substream
    (seed, stream, *extra_key, j), so the values, and the per-block results
    returned in block order, are identical for every worker count.
    """
    if n < 1:
        raise DomainError("need n >= 1 paths")

    def job(idx, start, stop):
        vals = _sample_block(model, grid, stop - start, seed, stream, extra_key + (idx,))
        return fn(vals)

    return parallel.map_blocks(job, n, workers)


def map_brownian_blocks(grid: TimeGrid, n: int, seed: int,
                        fn: Callable[[np.ndarray], object], workers: int = 1,
                        stream: int = parallel.STREAM_PATHS,
                        extra_key: tuple[int, ...] = ()) -> list:
    """Stream raw Brownian path blocks (values B_t at grid times).

    Seeded like ``map_path_blocks``, so with equal keys its blocks are the
    Brownian paths behind the bm-copula blocks.  It exists because some
    consumers need B_t itself, and B_t cannot be recovered bit-for-bit from
    the clipped, rounded Phi(B_t / sqrt(t)).
    """
    if n < 1:
        raise DomainError("need n >= 1 paths")

    def job(idx, start, stop):
        rng = parallel.derive_rng(seed, stream, *extra_key, idx)
        return fn(_brownian_block(grid, stop - start, rng))

    return parallel.map_blocks(job, n, workers)


def joint_cdf(model: ProcessModel, s: float, t: float, x: float, y: float) -> float:
    """P(X_s <= x, X_t <= y) in closed form, when the model has one."""
    return float(joint_cdf_matrix(model, ((s, x), (t, y)))[0, 1])


# Upper-triangle pairs per batch in joint_cdf_matrix (a batch holds whole
# rows, so at least one).  It bounds the (pairs x 20 quadrature nodes)
# temporaries of bvn_cdf, 160 KB at 1024 pairs, while spreading numpy's
# per-call overhead over enough pairs.
_PAIR_BATCH = 1024


def _upper_triangle_batches(k: int):
    """Index arrays (i, j), i <= j, of whole upper-triangle rows, about _PAIR_BATCH pairs each."""
    start = 0
    while start < k:
        stop, size = start, 0
        while stop < k and size < _PAIR_BATCH:
            size += k - stop
            stop += 1
        rows = np.arange(start, stop)
        yield np.repeat(rows, k - rows), np.concatenate([np.arange(r, k) for r in rows])
        start = stop


def joint_cdf_matrix(model: ProcessModel, cells: Sequence[tuple[float, float]]) -> np.ndarray:
    """Symmetric matrix of P(X_s <= x, X_t <= y) over cells i = (s, x), j = (t, y).

    Entry (i, j), i <= j, equals ``joint_cdf(model, s, t, x, y)`` bit for
    bit: the bm-copula quantile is taken once per distinct level and the
    correlation once per time pair, and ``bvn_cdf`` runs on batches of pairs.
    """
    ts = np.array([t for t, _ in cells], dtype=float)
    ys = np.array([y for _, y in cells], dtype=float)
    if not np.all((ys > 0.0) & (ys < 1.0)):
        raise DomainError("levels must lie strictly inside (0, 1)")
    if not np.all(ts > 0.0):
        raise DomainError("times must be positive")
    if not has_joint_cdf(model):
        raise UnsupportedModelError(f"no closed-form joint CDF for {model.kind}")
    if model.kind == BM_COPULA:
        levels, level_idx = np.unique(ys, return_inverse=True)
        q = std_normal_quantile(levels)[level_idx]
        times, time_idx = np.unique(ts, return_inverse=True)
        rho = np.sqrt(np.minimum.outer(times, times) / np.maximum.outer(times, times))
    k = ys.size
    out = np.empty((k, k))
    for i, j in _upper_triangle_batches(k):
        vals = np.minimum(ys[i], ys[j])
        apart = ts[i] != ts[j]
        if model.kind == IID_TIME:
            vals = np.where(apart, ys[i] * ys[j], vals)
        elif model.kind == BM_COPULA and apart.any():
            a, b = i[apart], j[apart]
            vals[apart] = bvn_cdf(q[a], q[b], rho[time_idx[a], time_idx[b]])
        out[i, j] = vals
        out[j, i] = vals
    return out


def has_joint_cdf(model: ProcessModel) -> bool:
    return model.kind in (DEPENDENT, IID_TIME, BM_COPULA)


def rho_metric(s, t, theta: float):
    """|s - t|^(1/theta); requires theta > 4."""
    if not theta > 4.0:
        raise DomainError("theta must exceed 4")
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    out = np.abs(s - t) ** (1.0 / theta)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class EnvelopeStatistics:
    """Monte Carlo forward-increment means and the scaled-path sup mean.

    ``m_table`` maps (t, eps) to (estimate, stderr, window_points) where the
    estimate averages, over paths, the grid maximum of (B_s - B_t)/sqrt(s)
    for s in (t, t + eps].  Empty grid windows yield 0 with 0 points.
    ``d_env`` is the mean over paths of max_grid B_t/sqrt(t).
    """

    m_table: dict[tuple[float, float], tuple[float, float, int]]
    d_env: float
    d_env_stderr: float
    n: int
    seed: int

    @property
    def m0_hat(self) -> float:
        """Largest forward-increment mean over the configured table."""
        return max((v[0] for v in self.m_table.values()), default=0.0)


DEFAULT_ENVELOPE_T = (1.0, 1.5, 2.0)
DEFAULT_ENVELOPE_EPS = (1e-3, 0.01, 0.1, 0.25)


def envelope_statistics(grid: TimeGrid, n: int, seed: int,
                        t_values: Sequence[float] = DEFAULT_ENVELOPE_T,
                        eps_values: Sequence[float] = DEFAULT_ENVELOPE_EPS,
                        workers: int = 1,
                        stream: int = parallel.STREAM_PATHS) -> EnvelopeStatistics:
    """Estimate forward-increment suprema means and the scaled-path sup mean."""
    if n < 1000:
        raise DomainError("envelope statistics need n >= 1000")
    sqrt_pts = np.sqrt(grid.points)
    windows = []
    for t in t_values:
        it = grid.index_of(t)
        for eps in eps_values:
            windows.append((float(t), float(eps), it, grid.forward_indices(t, eps)))

    def block_stats(b: np.ndarray):
        scaled = b / sqrt_pts
        sums = np.empty(len(windows) + 1)
        sqs = np.empty(len(windows) + 1)
        for j, (_t, _e, it, sel) in enumerate(windows):
            if sel.size == 0:
                sums[j] = 0.0
                sqs[j] = 0.0
                continue
            d = np.max((b[:, sel] - b[:, it][:, None]) / sqrt_pts[sel], axis=1)
            sums[j] = np.sum(d)
            sqs[j] = np.sum(d * d)
        sup = np.max(scaled, axis=1)
        sums[-1] = np.sum(sup)
        sqs[-1] = np.sum(sup * sup)
        return sums, sqs

    parts = map_brownian_blocks(grid, n, seed, block_stats, workers, stream=stream)
    sums = parallel.tree_reduce([p[0] for p in parts], np.add)
    sqs = parallel.tree_reduce([p[1] for p in parts], np.add)

    def mean_stderr(s, sq):
        mean = s / n
        var = max(0.0, (sq - s * s / n) / (n - 1))
        return float(mean), float(math.sqrt(var / n))

    table = {}
    for j, (t, eps, _it, sel) in enumerate(windows):
        mean, se = mean_stderr(sums[j], sqs[j])
        table[(t, eps)] = (mean, se, int(sel.size))
    d_mean, d_se = mean_stderr(sums[-1], sqs[-1])
    return EnvelopeStatistics(table, d_mean, d_se, n, seed)
