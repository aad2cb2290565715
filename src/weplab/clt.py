"""CLT harnesses: replicated empirical fields against their Gaussian limit.

``weplab clt marginal`` tests one cell's law, ``clt cov`` the convergence of
the pooled covariance estimate, and ``clt sup`` the law of the sup over a
lattice of cells.  Each harness returns a ``BoundReport`` with its CSV
columns: an ordered mapping from column name to the column's values, one per
replication (per sample size for cov).  Determinism comes from the
block-seeded samplers, so each report and CSV is byte-identical across
reruns and worker counts at a pinned seed.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .engine import accumulate_cell_moments, covariance_from_joint, replicated_fields
from .errors import DomainError
from .limits import build_limit_model, limit_covariance, sample_limit_field
from .models import ProcessModel, TimeGrid
from .numerics import (ks_critical_one_sample, ks_critical_two_sample, ks_statistic_one_sample,
                       ks_statistic_two_sample, std_normal_cdf)
from .reports import BoundReport, ProbeResult
from .weights import WeightSpec


def _distinct(values, what: str) -> list:
    """``values`` sorted; a DomainError names a value that occurs twice."""
    out = sorted(values)
    for a, b in zip(out, out[1:]):
        if a == b:
            raise DomainError(f"repeated {what}: {a!r}")
    return out


def clt_marginal_test(model: ProcessModel, w: WeightSpec, t: float, y: float,
                      n: int, reps: int, seed: int,
                      workers: int = 1) -> tuple[BoundReport, dict]:
    """KS of replicated one-cell field values against the limiting normal.

    The rows check the KS statistic, the variance against sigma^2 and the
    mean against 0, the last two within four standard errors; the columns
    are ``rep,nu``.
    """
    if reps < 500:
        raise DomainError("need at least 500 replications")
    if not 0.0 < y < 1.0:
        raise DomainError("probe level must lie strictly inside (0, 1)")
    sigma = float(w(y)) * math.sqrt(y * (1.0 - y))
    values = np.concatenate([f[:, 0, 0] for f in replicated_fields(
        model, TimeGrid(np.array([float(t)])), [y], w, n, reps, seed, workers)])
    ks = ks_statistic_one_sample(values, lambda v: std_normal_cdf(v / sigma))
    mean = float(np.mean(values))
    mean_se = float(np.std(values, ddof=1) / math.sqrt(reps))
    var = float(np.var(values, ddof=1))
    # delete-one jackknife for the variance stderr
    loo = (np.sum((values - mean) ** 2) - (values - mean) ** 2 * reps / (reps - 1.0)) / (reps - 2.0)
    var_se = float(math.sqrt((reps - 1.0) / reps * np.sum((loo - np.mean(loo)) ** 2)))
    ks_critical, target = ks_critical_one_sample(reps), sigma * sigma
    rows = (ProbeResult({"stat": "ks"}, ks, None, ks_critical, None, ks < ks_critical),
            ProbeResult({"stat": "variance"}, var, var_se, target, None,
                        abs(var - target) <= 4.0 * var_se),
            ProbeResult({"stat": "mean"}, mean, mean_se, 0.0, None,
                        abs(mean) <= 4.0 * mean_se))
    return BoundReport("clt-marginal", rows, n, seed), {"rep": range(reps), "nu": values}


def clt_covariance_convergence(model: ProcessModel, w: WeightSpec,
                               cells: Sequence[tuple[float, float]],
                               n_list: Sequence[int], reps: int, seed: int,
                               threshold: float = 0.01,
                               workers: int = 1) -> tuple[BoundReport, dict]:
    """Frobenius distance of the pooled covariance estimate to its target.

    Per sample size the estimate pools the per-path joint indicator
    frequencies over all replications (reps times n paths), so the distance
    shrinks like (n reps)^(-1/2).  The ``final-distance`` row passes when
    the distance decreases along ``n_list`` and ends below ``threshold``;
    the columns are ``n,frobenius_distance``.
    """
    cells = [(float(t), float(y)) for t, y in cells]
    _distinct(cells, "cell (t, y)")
    n_list = sorted(int(v) for v in n_list)
    if not n_list or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise DomainError("n_list must hold at least one sample size, with no repeats")
    times = sorted({t for t, _ in cells})
    grid = TimeGrid(np.array(times))
    target = limit_covariance(model, cells, w)
    dists = []
    for i, n in enumerate(n_list):
        joint = accumulate_cell_moments(model, cells, grid, n * reps, seed,
                                        workers=workers, extra_key=(i,))
        est = covariance_from_joint(joint, cells, w)
        dists.append(float(np.linalg.norm(est - target)))
    shrinks = all(b < a for a, b in zip(dists, dists[1:]))
    rows = [ProbeResult({"n": n}, d, None, threshold, None, True) for n, d in zip(n_list, dists)]
    rows.append(ProbeResult({"stat": "final-distance"}, dists[-1], None, threshold, None,
                            shrinks and dists[-1] < threshold))
    return (BoundReport("clt-cov", tuple(rows), n_list[-1], seed),
            {"n": n_list, "frobenius_distance": dists})


def _sup_norms(batches) -> np.ndarray:
    """max |value| of each replication in a stream of (batch x ...) arrays, in stream order.

    Each batch folds into its sups as it arrives, and ``map`` keeps no
    reference to it while the next one is drawn, so one batch is held at a
    time, never a (reps x cells) array.
    """
    return np.concatenate(list(map(
        lambda b: np.max(np.abs(b, out=b).reshape(len(b), -1), axis=1), batches)))


def clt_sup_comparison(model: ProcessModel, w: WeightSpec, times: Sequence[float],
                       levels: Sequence[float], n: int, reps: int, seed: int,
                       workers: int = 1) -> tuple[BoundReport, dict]:
    """Two-sample KS between replicated field sups and limit-field sups.

    The columns are ``rep,empirical_sup,limit_sup``.
    """
    if reps < 1 or ks_critical_two_sample(reps, reps) >= 1.0:  # a KS statistic is at most 1
        raise DomainError(f"need at least 4 replications for a KS bound below 1, not {reps}")
    grid = TimeGrid(np.array(_distinct(map(float, times), "time")))
    levels = np.array(_distinct(map(float, levels), "level"))
    cells = [(float(t), float(y)) for t in grid.points for y in levels]
    limit = build_limit_model(model, cells, w)
    emp = _sup_norms(replicated_fields(model, grid, levels, w, n, reps, seed, workers))
    lim = _sup_norms(sample_limit_field(limit, reps, seed, workers=workers))
    ks, ks_critical = ks_statistic_two_sample(emp, lim), ks_critical_two_sample(reps, reps)
    rows = (ProbeResult({"stat": "two-sample-ks"}, ks, None, ks_critical, None, ks < ks_critical),)
    return (BoundReport("clt-sup", rows, n, seed),
            {"rep": range(reps), "empirical_sup": emp, "limit_sup": lim})
