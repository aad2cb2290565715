"""Monte Carlo and closed-form certification of the theorem's conditions on (X, w).

The checks are the hypotheses of the theorem: the crossing condition (``wl``),
the oscillation of the transformed marginals (``l-cond``), the envelope and
the weight's tail integral.  Each reads the process and weight (X, w), or the
weight alone.  ``integral`` and ``envelope`` gate on a bound; the rows of
``wl`` and ``l-cond`` are informational, so those two fail only when they
evaluate no probe.  Facts that hold for every input are tests, not checks: the
normal-law bounds of the proofs are mpmath oracle tests of
``weplab.numerics``; the weight family's slow variation and dyadic sums are
tests in ``tests/test_weights.py``; and the Brownian lemmas and the
inequalities of the proofs (Borell's concentration, also at the radius of the
bm-copula's low tail min_t X_t <= 1e-4, the increment envelope, the crossing
bounds, the chaining bound and the d_G0 bound) are tests in
``tests/test_proof_lemmas.py``.

Existential constants are never hard-coded: each probability verifier
reports the implied constant (estimate divided by the bound shape).
One-sided Monte Carlo tolerance is fixed at three standard errors throughout.

Every checker, ``wl_estimate`` included, returns a ``BoundReport`` named
after its ``weplab verify`` check.  The CLT harnesses live in ``weplab.clt``,
so ``clt`` and ``simulate`` never load this module.  Every Monte Carlo check
streams its paths through ``models.map_path_blocks``, the bm-copula's as
scores B_t / sqrt(t).  Reports carry no clock and determinism comes from the
block seeding, so ``to_json()`` is byte-identical across reruns and worker
counts at a pinned seed; timing is the caller's business.  A probe that is
not evaluated gets a row whose ``skipped`` coordinate names why, and a sweep
that evaluates none of its probes adds a failing ``evaluated_probes`` row.
"""

from __future__ import annotations

import math
import warnings
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError
from .models import (BM_COPULA, ProcessModel, TimeGrid, level_kernel, map_path_blocks,
                     to_uniform)
from .numerics import std_normal_cdf
from .reports import BoundReport, ProbeResult
from .weights import WeightSpec, integral_condition

MC_SIGMA = 3.0  # one-sided Monte Carlo allowance, in standard errors


def _freq_stderr(p: float, n: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)


def _skipped(coords: dict, reason: str) -> ProbeResult:
    """The row of a probe that is not evaluated, naming the reason."""
    where = ", ".join(f"{k}={v}" for k, v in coords.items())
    warnings.warn(f"probe ({where}) skipped: {reason}")
    return ProbeResult({**coords, "skipped": reason}, None, None, None, None, True)


def _time_ball(grid: TimeGrid, t: float, eps: float, theta: float) -> np.ndarray:
    """Grid indices s with rho(s, t) <= eps: |s - t| <= eps^theta, all of them if that overflows."""
    try:
        return grid.ball_indices(t, float(eps) ** theta)
    except OverflowError:
        return grid.ball_indices(t, math.inf)


def _check_probe(grid: TimeGrid, t: float, eps: float, x: Optional[float] = None) -> None:
    """A DomainError unless t is on the grid, eps finite and > 0, and x (if any) inside (0, 1)."""
    grid.index_of(t)
    if x is not None and not 0.0 < x < 1.0:
        raise DomainError(f"probe level x={x} must lie strictly inside (0, 1)")
    if not 0.0 < eps < math.inf:
        raise DomainError(f"probe eps={eps} must be finite and > 0")


def _fail_if_none_evaluated(rows: list, evaluated: int) -> None:
    """A report that evaluates no probe does not pass: add one failing row."""
    if evaluated == 0:
        rows.append(ProbeResult({"stat": "evaluated_probes"}, 0, None, 1, None, False))


# ---------------------------------------------------------------------------
# Crossing-probability (oscillation) condition
# ---------------------------------------------------------------------------

DEFAULT_WL_T = (1.0, 1.5, 2.0)
DEFAULT_WL_X = (0.01, 0.05, 0.1, 0.25)
DEFAULT_WL_EPS = (0.5, 0.6, 0.7)


def _crossing_counts(model: ProcessModel, grid: TimeGrid, probe_cells, n, seed, workers,
                     extra_key=()):
    """Counts of the two crossing events for every prepared probe.

    The events are X_t <= x < max over the ball of X_s, and
    min over the ball of X_s <= x < X_t, decided on the native scale.  A ball
    holds t, so X_t > x implies that its maximum is > x, and X_t <= x that its
    minimum is <= x: each crossing count is the count of some X_s > x (or
    <= x) over the ball less that of X_t > x (or <= x), the count over {t}.
    Per time, one kernel call decides every level on {t} and on every ball.
    """
    levels, level_of = np.unique([x for _it, _ball, x in probe_cells], return_inverse=True)
    kernel = level_kernel(model, levels)
    spans = {}
    for j, (it, ball, _x) in enumerate(probe_cells):
        spans.setdefault(it, {(it, it + 1): []}).setdefault(
            (int(ball[0]), int(ball[-1]) + 1), []).append(j)
    # per time, its probes (js) with their levels and their rows in the time's spans
    plan = []
    for it, balls in spans.items():
        order = sorted(balls, key=lambda span: span[1] - span[0])
        js, rows = np.array([(j, r) for r, span in enumerate(order) for j in balls[span]]).T
        plan.append((it, order, js, level_of[js], rows))

    def block_fn(vals):
        counts = np.empty((len(probe_cells), 2), dtype=np.int64)
        for it, order, js, idx, rows in plan:
            # the spans around one time are nested index ranges, {t} first: each one's
            # path extrema grow from the one before over the rows it adds on either side
            low = np.empty((len(order), vals.shape[1]))
            high = np.empty_like(low)
            low[0] = high[0] = vals[it]
            for r, ((done_a, done_b), (a, b)) in enumerate(zip(order, order[1:]), 1):
                low[r], high[r] = low[r - 1], high[r - 1]
                for added in (vals[a:done_a], vals[done_b:b]):
                    if len(added):
                        np.minimum(low[r], added.min(axis=0), out=low[r])
                        np.maximum(high[r], added.max(axis=0), out=high[r])
            tally = kernel.any_gt_leq([vals[a:b] for a, b in order], low, high).sum(axis=-1)
            counts[js] = (tally[:, idx, rows] - tally[:, idx, 0]).T
        return counts

    return map_path_blocks(model, grid, n, seed, block_fn, workers, extra_key=extra_key)


def _wl_sweep(model, w, theta, probes, grid, n, seed, workers, refined=False):
    """The WL sweep: its rows and its (f_ts, f_st) frequencies.

    The sweep runs on ``grid``, or on its density-doubled refinement.  A
    probe's row estimates max(f_ts, f_st), with implied constant
    max(f_ts, f_st) w(x)^2 / eps^2.  A probe whose time ball is a single grid
    point gets a skipped row and frequencies None.
    """
    if not theta > 4.0:
        raise DomainError("theta must exceed 4")
    if probes is None:
        probes = [(t, x, e) for t in DEFAULT_WL_T for x in DEFAULT_WL_X for e in DEFAULT_WL_EPS]
    grid = grid.refined() if refined else grid
    balls = [(grid.index_of(t), _time_ball(grid, t, eps, theta)) for t, _x, eps in probes]
    cells = [(it, ball, x) for (it, ball), (_t, x, _e) in zip(balls, probes) if ball.size > 1]
    counts = iter(_crossing_counts(model, grid, cells, n, seed, workers, (int(refined),))
                  if cells else ())
    rows, freqs = [], []
    for (t, x, eps), (_it, ball) in zip(probes, balls):
        coords = {"t": t, "x": x, "eps": eps, "grid": "fine" if refined else "coarse",
                  "ball_points": int(ball.size)}
        if ball.size <= 1:
            rows.append(_skipped(coords, "singleton time ball"))
            freqs.append(None)
            continue
        f_ts, f_st = next(counts) / n
        f, wx = max(f_ts, f_st), float(w(x))
        rows.append(ProbeResult(coords, f, _freq_stderr(f, n), None, f * wx * wx / eps ** 2,
                                True))
        freqs.append((f_ts, f_st))
    return rows, freqs


def wl_estimate(model: ProcessModel, w: WeightSpec, theta: float,
                probes: Optional[Sequence[tuple[float, float, float]]] = None,
                n: int = 100_000, seed: int = 0, grid: Optional[TimeGrid] = None,
                workers: int = 1) -> BoundReport:
    """Estimate the crossing-probability constant over a (t, x, eps) sweep.

    The time ball of a probe is {s on the grid : rho(s, t) <= eps} with
    rho = |s - t|^(1/theta); a probe whose ball is a single grid point is
    skipped, not evaluated.  ``l_hat`` reads the sweep on ``grid``; the
    sweep is repeated on the density-doubled grid as a refinement study.
    Its ratio compares the two sweeps' constants over the probes both
    evaluate: 1 when both are 0 and null (infinite) when one is.
    ``l_hat_ts`` and ``l_hat_st`` split ``l_hat`` by crossing event.  A probe
    whose t is off the grid (or NaN), whose x is outside (0, 1) or whose eps
    is not finite and > 0 raises DomainError before any path is drawn.
    """
    grid = grid or TimeGrid.uniform()
    if probes is not None:
        probes = list(probes)
        for t, x, eps in probes:
            _check_probe(grid, t, eps, x)
    rows, freqs = _wl_sweep(model, w, theta, probes, grid, n, seed, workers)
    fine_rows, _ = _wl_sweep(model, w, theta, probes, grid, n, seed, workers, refined=True)
    l_hat, l_fine = (max((r.c_hat for r in sweep if r.c_hat is not None), default=0.0)
                     for sweep in (rows, fine_rows))
    coarse = [(r.coords, f) for r, f in zip(rows, freqs) if f is not None]
    l_ts = max((f[0] * float(w(c["x"])) ** 2 / c["eps"] ** 2 for c, f in coarse), default=0.0)
    l_st = max((f[1] * float(w(c["x"])) ** 2 / c["eps"] ** 2 for c, f in coarse), default=0.0)
    both = [(r.c_hat, f.c_hat) for r, f in zip(rows, fine_rows)
            if r.c_hat is not None and f.c_hat is not None]
    lo, hi = sorted(map(max, zip(*both))) if both else (0.0, 0.0)
    ratio = 1.0 if hi == 0.0 else (math.inf if lo == 0.0 else hi / lo)
    rows += fine_rows
    for name, value in (("l_hat_coarse", l_hat), ("l_hat_fine", l_fine), ("l_hat_ts", l_ts),
                        ("l_hat_st", l_st), ("refinement_ratio", ratio)):
        rows.append(ProbeResult({"stat": name}, value if math.isfinite(value) else None,
                                None, None, None, True))
    _fail_if_none_evaluated(rows, len(coarse))  # l_hat reads only the sweep on ``grid``
    return BoundReport("wl", tuple(rows), n, seed)


# ---------------------------------------------------------------------------
# Oscillation condition on the transformed marginals
# ---------------------------------------------------------------------------

def l_condition_estimate(model: ProcessModel, theta: float,
                         probes: Sequence[tuple[float, float]],
                         n: int = 100_000, seed: int = 0,
                         grid: Optional[TimeGrid] = None, workers: int = 1) -> BoundReport:
    """Frequency of large oscillations of the transformed marginal values.

    The event of a probe (t, eps) is that some grid s with rho(s, t) <= eps
    moves the time-t transformed value by more than eps^2; the implied
    constant is frequency / eps^2.  A probe whose t is off the grid (or NaN)
    or whose eps is not finite and > 0 raises DomainError before any path is
    drawn.
    """
    if not theta > 4.0:
        raise DomainError("theta must exceed 4")
    grid = grid or TimeGrid.uniform()
    probes = list(probes)
    for t, eps in probes:
        _check_probe(grid, t, eps)
    prepared = []
    rows = []
    for t, eps in probes:
        it = grid.index_of(t)
        ball = _time_ball(grid, t, eps, theta)
        if ball.size <= 1:
            rows.append(_skipped({"t": t, "eps": eps, "ball_points": int(ball.size)},
                                 "singleton time ball"))
            continue
        # the bm-copula probe's transformed value Phi(B_s / sqrt(t)) is
        # Phi(score_s * sqrt(s / t)): the column of sqrt(s / t) over the ball,
        # exactly 1 at s = t.  For the other kinds it is the path value
        prepared.append((t, eps, it, ball, np.sqrt(grid.points[ball] / t)[:, None]))

    if prepared:
        brownian = model.kind == BM_COPULA

        def block_fn(vals):
            counts = np.zeros(len(prepared), dtype=np.int64)
            for j, (_t, eps, it, ball, scale) in enumerate(prepared):
                u, ut = vals[ball], vals[it]
                if brownian:
                    u, ut = std_normal_cdf(u * scale), std_normal_cdf(ut)
                osc = np.max(np.abs(u - ut), axis=0)
                counts[j] = np.count_nonzero(osc > eps ** 2)
            return counts

        counts = map_path_blocks(model, grid, n, seed, block_fn, workers)
        for (t, eps, _it, ball, _scale), c in zip(prepared, counts):
            p = c / n
            rows.append(ProbeResult({"t": t, "eps": eps, "ball_points": int(ball.size)},
                                    p, _freq_stderr(p, n), None, p / eps ** 2, True))
    _fail_if_none_evaluated(rows, len(prepared))
    return BoundReport("l-cond", tuple(rows), n, seed)


# ---------------------------------------------------------------------------
# Envelope condition
# ---------------------------------------------------------------------------

DEFAULT_ENVELOPE_LAMBDAS = (5.0, 10.0, 20.0)


def envelope_check(model: ProcessModel, w: WeightSpec,
                   lambdas: Sequence[float] = DEFAULT_ENVELOPE_LAMBDAS,
                   n: int = 200_000, seed: int = 0, grid: Optional[TimeGrid] = None,
                   workers: int = 1) -> BoundReport:
    """Check that lambda^2 P(sup_t w(X_t) > lambda) trends down in lambda.

    The trend is required over the top three lambda values with a
    3-standard-error slack.  It is a finite-lambda proxy for the envelope's
    tail condition, and can reject a weight that meets it at large n.
    """
    grid = grid or TimeGrid.uniform()
    lams = sorted(float(v) for v in lambdas)
    if len(lams) < 3:
        raise DomainError("need at least three lambda values")
    if not all(0.0 < lam < math.inf for lam in lams) or len(set(lams)) < len(lams):
        raise DomainError("lambda values must be distinct, positive and finite")

    def block_fn(vals):
        sup = w(to_uniform(model, vals)).max(axis=0)
        return np.array([np.count_nonzero(sup > lam) for lam in lams], dtype=np.int64)

    counts = map_path_blocks(model, grid, n, seed, block_fn, workers)
    rows, values = [], []
    for lam, c in zip(lams, counts):
        p = c / n
        se = _freq_stderr(p, n)
        values.append((lam, lam * lam * p, lam * lam * se))
        rows.append(ProbeResult({"lambda": lam}, p, se, None, lam * lam * p, True))
    top = values[-3:]
    for (l1, v1, s1), (l2, v2, s2) in zip(top, top[1:]):
        ok = v2 <= v1 + MC_SIGMA * (s1 + s2)
        rows.append(ProbeResult({"trend": f"{l1:g}->{l2:g}"}, v2 - v1,
                                s1 + s2, 0.0, None, ok))
    return BoundReport("envelope", tuple(rows), n, seed)


# ---------------------------------------------------------------------------
# Weight condition
# ---------------------------------------------------------------------------

def integral_check(w: WeightSpec, c_values: Sequence[float], seed: int = 0) -> BoundReport:
    """The tail integral of the weight, one row per constant c: it must be finite."""
    rows = [ProbeResult({"c": e.c}, e.value, e.error, None, None, e.finite)
            for e in integral_condition(w, c_values)]
    return BoundReport("integral", tuple(rows), 0, seed)
