"""The Gaussian limit on finite grids.

The limit model assembles the covariance w(x) w(y) [P(X_s <= x, X_t <= y) - xy]
on a finite set of cells, keeps only its factor, and samples mean-zero
Gaussian vectors deterministically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from . import parallel
from .errors import DomainError, IndefiniteCovarianceError
from .engine import covariance_from_joint
from .models import ProcessModel, joint_cdf_matrix
from .weights import WeightSpec

# Diagonal jitter ladder used when a closed-form covariance fails to factor
# by rounding; the value actually applied is recorded on the model.
JITTER_LADDER = (0.0, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8)
_PIVOT_REL_TOL = 1e-10


def _semidefinite_cholesky(cov: np.ndarray) -> Optional[np.ndarray]:
    """Lower-triangular factor of a PSD matrix; zero pivots are skipped.

    Returns None when a pivot is below -_PIVOT_REL_TOL times the largest
    variance (the matrix is then treated as indefinite by the caller).
    """
    k = cov.shape[0]
    scale = max(float(np.max(np.abs(np.diag(cov)))), 1e-300)
    tol = _PIVOT_REL_TOL * scale
    L = np.zeros_like(cov)
    for j in range(k):
        d = cov[j, j] - np.dot(L[j, :j], L[j, :j])
        if d > tol:
            L[j, j] = math.sqrt(d)
            below = cov[j + 1:, j] - L[j + 1:, :j] @ L[j, :j]
            L[j + 1:, j] = below / L[j, j]
        elif d >= -tol:
            L[j, j] = 0.0
        else:
            return None
    return L


@dataclass(frozen=True)
class LimitModel:
    """The factor of the Gaussian limit covariance on (time, level) cells, not the covariance."""

    cells: tuple[tuple[float, float], ...]
    factor: np.ndarray
    jitter: float

    def __post_init__(self):
        factor = np.asarray(self.factor, dtype=float)
        factor.flags.writeable = False
        object.__setattr__(self, "factor", factor)

    @property
    def size(self) -> int:
        return len(self.cells)


def _factor_with_jitter(cov: np.ndarray) -> tuple[np.ndarray, float]:
    # taken before any factor exists, and the residual in place: beside the
    # covariance and its factor, the check holds one k x k temporary
    tol = 1e-8 * (1.0 + float(np.max(np.abs(cov))))
    for jit in JITTER_LADDER:
        attempt = cov if jit == 0.0 else cov + jit * np.eye(cov.shape[0])
        L = _semidefinite_cholesky(attempt)
        if L is None:
            continue
        r = L @ L.T
        r -= attempt
        if float(np.max(np.abs(r, out=r))) <= tol:
            return L, jit
    raise IndefiniteCovarianceError(
        "covariance failed to factor after jitter escalation; "
        "suspect a bug in the joint CDF or the covariance assembly")


def limit_covariance(model: ProcessModel, cells: Sequence[tuple[float, float]],
                     w: WeightSpec) -> np.ndarray:
    """w(x) w(y) [P(X_s <= x, X_t <= y) - xy] on the cells, from the closed-form joint."""
    return covariance_from_joint(joint_cdf_matrix(model, cells), cells, w)


def build_limit_model(model: ProcessModel, cells: Sequence[tuple[float, float]],
                      w: WeightSpec) -> LimitModel:
    """Factor the limit covariance on the cells."""
    cells = tuple((float(t), float(y)) for t, y in cells)
    if not cells:
        raise DomainError("need at least one cell")
    factor, jitter = _factor_with_jitter(limit_covariance(model, cells, w))
    return LimitModel(cells, factor, jitter)


def sample_limit_field(limit: LimitModel, reps: int, seed: int,
                       workers: int = 1) -> Iterator[np.ndarray]:
    """reps mean-zero Gaussian vectors with the model covariance, a block at a time.

    Yields (block x cells) arrays in replication order.  Deterministic per
    (seed, rep index): replication blocks are seeded the same way path
    blocks are.
    """
    if reps < 1:
        raise DomainError("need reps >= 1")
    Lt = limit.factor.T.copy()
    words = parallel.seed_words(
        seed, [(parallel.STREAM_LIMIT, j) for j in range(len(parallel.iter_blocks(reps)))])

    def job(idx, start, stop):
        return parallel.rng_from_words(words[idx]).standard_normal((stop - start, limit.size)) @ Lt

    return parallel.map_blocks(job, reps, workers)
