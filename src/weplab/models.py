"""Uniform processes on a time grid.

Implemented kinds: the Brownian-motion copula (X_t = Phi(B_t / sqrt(t))),
the fully dependent process (one uniform draw shared across the grid), the
time-iid process (independent uniform per grid point), and an atomic-copula
(a time-constant draw from a uniform plus one atom, pushed through the
randomized distributional transform of Rüschendorf 2009).

Brownian paths use exact N(0, dt) increments at the grid times only; every
implemented functional is grid-measurable, so no bridge infill is done.
Suprema over time are therefore maxima over grid points, a declared
approximation quantified by the refinement studies in the verifiers.

Paths are streamed time-major, times x paths, so each time's paths form one
contiguous row, and on each kind's native scale: the Brownian copula as
scores B_t / sqrt(t), the other kinds as their uniforms.  ``to_uniform``
applies the Phi transform; ``level_kernel`` decides X_t <= y on native rows
without it.  The two samplers share one block filler and hand back finished
results, folded as they stream, so memory does not grow with n:
``map_path_blocks`` streams the paths of one run and adds its consumer's
per-batch results with ``+`` in stream order; ``map_replications``
streams many replications, adds each one's results over its path slices and
yields them a batch at a time, in replication order.  A consumer that needs
the raw Brownian path reads it as B_t = score * sqrt(t).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from . import parallel
from .errors import DomainError
from .numerics import bvn_cdf, ndtr, ndtri, shortest_repr, std_normal_quantile

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

    # Per-grid constants of the Brownian sampler, as (times x 1) columns: computed
    # on first use, not once per batch
    @functools.cached_property
    def _sqrt_steps(self) -> np.ndarray:
        return np.sqrt(np.diff(self.points, prepend=0.0))[:, None]

    @functools.cached_property
    def _sqrt_points(self) -> np.ndarray:
        return np.sqrt(self.points)[:, None]

    def refined(self) -> "TimeGrid":
        """Grid with midpoints inserted (doubled density, same endpoints)."""
        pts = self.points
        mids = 0.5 * (pts[:-1] + pts[1:])
        return TimeGrid(np.sort(np.concatenate([pts, mids])))

    def index_of(self, t: float) -> int:
        """Index of a grid time, matched within 1e-9; a NaN time matches none."""
        idx = int(np.argmin(np.abs(self.points - t)))
        if not abs(float(self.points[idx]) - t) <= 1e-9:
            raise DomainError(f"time {t} is not on the grid of {len(self)} times from "
                              f"{self.a} to {self.b}")
        return idx

    def ball_indices(self, t: float, radius: float) -> np.ndarray:
        """Grid indices with |s - t| <= radius, with a relative slack guard."""
        r = radius * (1.0 + 1e-9) + 1e-15
        return np.flatnonzero(np.abs(self.points - t) <= r)


@dataclass(frozen=True)
class ProcessModel:
    kind: str
    atom_mass: float = 0.5
    atom_loc: float = 0.5

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise DomainError(f"unknown model kind {self.kind!r}")
        if self.kind == ATOMIC and not (0.0 < self.atom_mass < 1.0
                                        and math.isfinite(self.atom_loc)):
            raise DomainError("atom mass must lie in (0, 1) and its location be finite")

    def describe(self) -> str:
        if self.kind == ATOMIC:
            return f"atomic:{shortest_repr(self.atom_mass)}@{shortest_repr(self.atom_loc)}"
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
            mass, loc = float(mass_s), float(loc_s)
        except ValueError as exc:
            raise DomainError(f"bad atomic model spec {text!r}") from exc
        # built outside the try, so its own DomainError (a ValueError) names the real problem
        return ProcessModel(ATOMIC, mass, loc)
    raise DomainError(f"unrecognized model spec {text!r}")


def _brownian_paths(z: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Brownian paths at the grid times from standard normals z (... x times x paths), in place,
    by adding each time row into the next: the additions of ``np.cumsum`` along time."""
    z *= grid._sqrt_steps
    rows = np.moveaxis(z, -2, 0)
    for prev, row in zip(rows, rows[1:]):
        row += prev
    return z


def _block_seeds(model: ProcessModel, seed: int, stream: int, keys: np.ndarray) -> np.ndarray:
    """Seed words (keys x substreams x 4) of (seed, stream, *key), and for the atomic
    model of its randomizer substream (seed, STREAM_RANDOMIZER, *key), per row of the
    integer array ``keys``."""
    streams = (stream, parallel.STREAM_RANDOMIZER) if model.kind == ATOMIC else (stream,)
    return np.stack([parallel.seed_words(seed, np.column_stack([np.full(len(keys), s), keys]))
                     for s in streams], axis=1)


# Values per fn call, about 1 MiB: a batch of whole seeding blocks or
# replications holds at most 2^17; a block wider than that reaches fn in the
# power-of-two number of path slices that brings each nearest 2^17 on a log
# scale, so at most sqrt(2) * 2^17 (quarters on 129 times, eighths on 257).
# _filler draws through a scratch of at most 2^14.  Pure scheduling, like the
# workers.
_BATCH_VALUES = 1 << 17
_SLICE_VALUES = 1 << 17
_SCRATCH_VALUES = 1 << 14


def _filler(model: ProcessModel, count: int,
            words: np.ndarray) -> Callable[[np.ndarray, int], np.ndarray]:
    """``fill(out, start)`` writes paths start: of the draws seeded by ``words`` into ``out``.

    ``out`` is a time-major (times x paths) slice of a batch.  The draws are
    standard normals for the bm-copula, which ``_to_native`` turns into
    scores, and the uniforms X_t for the other kinds.  Normals and time-iid
    uniforms are drawn path-major into a scratch (numpy draws only into a
    C-contiguous target) and copied over transposed; the per-path uniforms of
    the other kinds are drawn once (the atomic kind draws every path's
    selector before any of its uniforms).  So slices filled in path order
    hold the whole-block values.
    """
    rng = parallel.rng_from_words(words[0])
    if model.kind in (BM_COPULA, IID_TIME):
        draw = rng.standard_normal if model.kind == BM_COPULA else rng.random

        def fill_draws(out, _start):
            step = max(1, _SCRATCH_VALUES // len(out))
            scratch = np.empty((min(step, out.shape[1]), len(out)))
            for a in range(0, out.shape[1], step):
                out[:, a:a + step] = draw(out=scratch[:out.shape[1] - a]).T
            return out
        return fill_draws
    if model.kind == DEPENDENT:
        u = rng.random(count)
    else:
        # atomic: X ~ (1 - mass) U(0, 1) + mass at loc, from the selectors and then the
        # uniforms, through the randomized distributional transform F(X-) + (F(X) - F(X-)) V
        mass, loc = model.atom_mass, model.atom_loc
        sel = rng.random(count)
        x = rng.random(count)
        x[sel < mass] = loc
        c = (1.0 - mass) * np.clip(x, 0.0, 1.0)
        left = c + np.where(x > loc, mass, 0.0)
        right = c + np.where(x >= loc, mass, 0.0)
        v = parallel.rng_from_words(words[1]).random(count)
        u = np.clip(left + (right - left) * v, _OPEN_LO, _OPEN_HI)

    def fill(out, start):
        out[...] = u[start:start + out.shape[1]]
        return out
    return fill


def _to_native(model: ProcessModel, draws: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Draws (... x times x paths) on the native scale, in place: the bm-copula's B_t / sqrt(t)."""
    if model.kind == BM_COPULA:
        _brownian_paths(draws, grid)
        draws /= grid._sqrt_points
    return draws


def to_uniform(model: ProcessModel, block: np.ndarray) -> np.ndarray:
    """The uniform values X_t of a native block, computed in place.

    For the bm-copula this is X_t = clip(Phi(score)) with the clip keeping
    values strictly inside (0, 1); for the other kinds the block already
    holds the uniforms and is returned unchanged.  The only home of the
    Phi transform of sampled paths.
    """
    if model.kind != BM_COPULA:
        return block
    return np.clip(ndtr(block), _OPEN_LO, _OPEN_HI, out=block)


def _stream(model: ProcessModel, grid: TimeGrid, n: int, seed: int, stream: int,
            keys: np.ndarray, fn: Callable, workers: int):
    """fn's results on n paths per key, summed in stream order per key or per batch of keys.

    Block j of the replication of key row ``k`` of the integer array ``keys``
    draws from (seed, stream, *k, j).
    ``fn`` gets native (replications x times x paths) arrays of about 1 MiB or less:
    replications of at most ``_BATCH_VALUES`` values come whole, in batches
    of whole replications; a wider one comes in batches of whole seeding
    blocks, or in block-aligned path slices of a wider block, as many as the
    power of two that brings each nearest ``_SLICE_VALUES``, and so at most
    sqrt(2) times it.  So ``fn``'s results must add up over path slices,
    exactly (integer counts); they are added in stream order, never in place.
    """
    m, size, blocks = len(grid), parallel.BLOCK_SIZE, parallel.iter_blocks(n)
    words = _block_seeds(model, seed, stream,
                         np.column_stack([np.repeat(keys, len(blocks), axis=0),
                                          np.tile(np.arange(len(blocks)), len(keys))]))
    words = words.reshape(len(keys), len(blocks), -1, 4)
    if n * m <= _BATCH_VALUES:
        jobs = [(r0, r1, [0, n]) for _i, r0, r1 in
                parallel.iter_blocks(len(keys), _BATCH_VALUES // (n * m))]
    else:
        batch = size * max(1, _BATCH_VALUES // (size * m))
        pieces = min(size, 1 << max(0, round(math.log2(m * size / _SLICE_VALUES))))
        jobs = [(r, r + 1, [*range(first, stop, batch // pieces), stop])
                for r in range(len(keys)) for _i, first, stop in parallel.iter_blocks(n, batch)]

    def job(idx, _start, _stop):
        r0, r1, cuts = jobs[idx]
        fills = [[(start, end, _filler(model, end - start, words[r, j]))
                  for j, start, end in blocks[cuts[0] // size:-(-cuts[-1] // size)]]
                 for r in range(r0, r1)]

        def paths(a, b):
            out = np.empty((r1 - r0, m, b - a))
            for rows, rep in zip(out, fills):
                for start, end, fill in rep:
                    lo, hi = max(a, start), min(b, end)
                    if lo < hi:
                        fill(rows[:, lo - a:hi - a], lo - start)
            return _to_native(model, out, grid)

        return (r0, r1), [fn(paths(a, b)) for a, b in zip(cuts, cuts[1:])]

    done = parallel.map_blocks(job, len(jobs), workers, block_size=1)
    for _key, group in itertools.groupby(done, key=operator.itemgetter(0)):
        yield functools.reduce(operator.add, (r for _, results in group for r in results))


def map_path_blocks(model: ProcessModel, grid: TimeGrid, n: int, seed: int,
                    fn: Callable[[np.ndarray], object], workers: int = 1,
                    stream: int = parallel.STREAM_PATHS,
                    extra_key: tuple[int, ...] = ()):
    """Stream n sampled paths through ``fn``: the path sampler of one run.

    ``fn`` gets time-major (times x paths) native arrays, which it may modify
    in place: batches of whole seeding blocks, or path slices of a wider
    block (``_stream``).  Block j draws from (seed, stream, *extra_key, j),
    so the values are the same for every worker count.  ``fn``'s results
    must be exact under any path partition (integer counts); they are added
    in stream order, so their sum is the same for every worker count too.
    """
    if n < 1:
        raise DomainError("need n >= 1 paths")
    total, = _stream(model, grid, n, seed, stream, np.array([extra_key], dtype=np.int64),
                     lambda v: fn(v[0]), workers)
    return total


def map_replications(model: ProcessModel, grid: TimeGrid, n: int, reps: int, seed: int,
                     fn: Callable[[np.ndarray], np.ndarray],
                     workers: int = 1) -> Iterator[np.ndarray]:
    """Stream ``reps`` replications of n sampled paths through ``fn``.

    ``fn`` gets native (batch x times x paths) arrays, which it may modify in
    place: batches of whole replications, or one replication's path slices
    (``_stream``).  Its results must add up over slices.  They are yielded
    as they finish, summed per replication: (batch x ...) results in
    replication order, a batch at a time, so the caller holds no more
    replications than it keeps.  Replication r holds exactly what
    ``map_path_blocks`` streams with ``stream=STREAM_REPLICATION,
    extra_key=(r,)``, whatever the batch.
    """
    if n < 1 or reps < 1:
        raise DomainError("need n >= 1 paths and reps >= 1")
    return _stream(model, grid, n, seed, parallel.STREAM_REPLICATION, np.arange(reps)[:, None],
                   fn, workers)


# Half-width of a bm-copula level's score band, relative in u.  The Cephes
# ndtr and ndtri of weplab.numerics are accurate to far better than this
# (within 4e-13 relative above _BAND_FLOOR and 1.4e-16 absolute near 1,
# against mpmath), so a score outside the band cannot compare differently
# after clip(ndtr(score)).  Below _BAND_FLOOR, where subnormal spacing erodes
# relative accuracy, the band reaches -inf.
_BAND_REL = 1e-9
_BAND_FLOOR = 1e-300

# The most levels for which ``LevelKernel.count`` compares each row with every
# band edge and popcounts it, instead of sorting the row and searching it.  On
# rows of 2,000 and 5,000 values a compare and popcount costs about 0.6 ns per
# value and level, a sort and search about 4.2-4.6 ns per value whatever the
# levels: they cost the same near 8 levels, and 6 keeps a margin.
_POPCOUNT_LEVELS = 6


@dataclass(frozen=True)
class LevelKernel:
    """Exact decisions of X_t <= y on a model's native block values.

    Per level y it holds a band [lo, hi] of native values: a value below lo
    has X_t <= y, one above hi has X_t > y, and only a value inside the band
    goes through ``to_uniform`` and is compared with y.  For the bm-copula
    the band is the scores whose u = clip(ndtr(score)) lies within
    ``_BAND_REL`` of y (wider near 0 and 1), so nothing assumes that the
    floating-point ndtr is monotone; for the other kinds lo = hi = y.
    Every decision equals ``to_uniform(model, values) <= y`` bit for bit.
    ``count`` decides whole rows by one of two exact paths: up to
    ``_POPCOUNT_LEVELS`` levels it compares each row with every band edge and
    popcounts the result, above that it sorts the row in place and searches it.
    """

    model: ProcessModel
    levels: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    def leq(self, vals: np.ndarray, i: int) -> np.ndarray:
        """X_t <= levels[i], elementwise."""
        out = vals < self.lo[i]
        band = vals <= self.hi[i]
        band ^= out
        if band.any():
            out[band] = to_uniform(self.model, vals[band]) <= self.levels[i]
        return out

    @functools.cached_property
    def _edges(self) -> np.ndarray:
        # searching nextafter(hi) on the left finds the values <= hi
        return np.concatenate([self.lo, np.nextafter(self.hi, np.inf)])

    def count(self, vals: np.ndarray) -> np.ndarray:
        """(... x times x levels) counts of X_t <= y in time-major rows (... x times x paths).

        Leading axes are a batch, and a row may be reordered.  With at most
        ``_POPCOUNT_LEVELS`` levels each row is compared with every band edge
        (lo, then nextafter(hi)) and counted by popcount; with more it is sorted
        in place and searched for the edges.  Either way only the values inside
        a band [lo, hi] are decided by ``leq``.  The counts own their memory, so
        a kept count does not pin the search array.
        """
        k, width = self.levels.size, vals.shape[-1]
        flat = vals.reshape(-1, width)
        if k <= _POPCOUNT_LEVELS:
            # one zero-padded bool buffer takes each edge's comparison; read as uint64
            # words it holds a 0 or 1 per byte, so a word's popcount counts its values
            buf = np.zeros((len(flat), -(-width // 8) * 8), dtype=bool)
            pos = np.empty((len(flat), 2 * k), dtype=np.int64)
            for e, edge in enumerate(self._edges):
                np.less(flat, edge, out=buf[:, :width])
                np.bitwise_count(buf.view(np.uint64)).sum(axis=-1, dtype=np.int64,
                                                          out=pos[:, e])
        else:
            flat.sort(axis=-1)
            # the method skips np.searchsorted's Python dispatch, half the cost on short rows
            pos = np.array([row.searchsorted(self._edges) for row in flat])
        below, upto = pos[:, :k], pos[:, k:]
        unsure = upto > below
        if unsure.any():
            for j, i in zip(*np.nonzero(unsure)):
                row = flat[j]
                band = row[(row >= self._edges[i]) & (row < self._edges[k + i])]
                below[j, i] += np.count_nonzero(self.leq(band, i))
        return below.reshape(vals.shape[:-1] + (k,)).copy()

    def any_gt_leq(self, balls: Sequence[np.ndarray], low: np.ndarray,
                   high: np.ndarray) -> np.ndarray:
        """(2 x levels x balls x paths): per ball and path (column), whether some row of
        the ball has X_t > y, and whether some row has X_t <= y, for every level y.

        ``balls`` holds each ball's time-major rows, and ``low`` and ``high`` its path
        minima and maxima (balls x paths).  One comparison per extreme decides every
        level on every ball; only a path whose minimum or maximum lies in a level's
        band goes through ``leq``.
        """
        lo, hi = self.lo[:, None, None], self.hi[:, None, None]
        some = np.empty((2, self.levels.size, *low.shape), dtype=bool)
        np.greater(high, hi, out=some[0])
        np.less(low, lo, out=some[1])
        unsure = ((high >= lo) ^ some[0]) | ((low <= hi) ^ some[1])
        if unsure.any():
            for i, r in zip(*np.nonzero(unsure.any(axis=-1))):
                cols = unsure[i, r]
                below = self.leq(balls[r][:, cols], i)
                some[0, i, r, cols] = ~below.all(axis=0)
                some[1, i, r, cols] = below.any(axis=0)
        return some


def level_kernel(model: ProcessModel, levels: Sequence[float]) -> LevelKernel:
    """The ``LevelKernel`` of a model for uniform levels y."""
    ys = np.array(levels, dtype=float).reshape(-1)
    if model.kind != BM_COPULA:
        return LevelKernel(model, ys, ys, ys)
    u_lo = ys * (1.0 - _BAND_REL)
    u_hi = ys * (1.0 + _BAND_REL)
    lo = np.where(u_lo > _BAND_FLOOR, ndtri(np.clip(u_lo, _BAND_FLOOR, _OPEN_HI)),
                  -np.inf)
    hi = np.where(u_hi < 1.0, ndtri(np.clip(u_hi, _BAND_FLOOR, _OPEN_HI)), np.inf)
    return LevelKernel(model, ys, lo, hi)


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

    It is min(x, y) at s = t, and at every pair of times for the dependent
    and atomic kinds, whose paths hold one uniform draw.  An entry does not
    depend on the other cells, bit for bit: the bm-copula quantile is taken
    once per distinct level and the correlation once per time pair, and
    ``bvn_cdf`` runs on batches of pairs.
    """
    ts = np.array([t for t, _ in cells], dtype=float)
    ys = np.array([y for _, y in cells], dtype=float)
    if not np.all((ys > 0.0) & (ys < 1.0)):
        raise DomainError("levels must lie strictly inside (0, 1)")
    if not np.all(ts > 0.0):
        raise DomainError("times must be positive")
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
