"""Monte Carlo and closed-form certification of the theorem's conditions on (X, w).

Every check reads the process and weight (X, w), or the weight alone, so some
input can make it fail.  Facts that read neither are tests, not checks: the
normal-law bounds of the proofs are mpmath oracle tests of ``weplab.numerics``,
and the Brownian lemmas of the proofs (Borell's concentration, the increment
envelope, the one- and two-sided crossing bounds) are Monte Carlo tests of the
Brownian sampler in ``tests/test_proof_lemmas.py``.

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
One WL sweep gives ``wl``, ``chaining-ab`` and ``dg0-upper`` their crossing
constant ``l_hat``; the ``l_hat`` row of the latter two counts the sweep's
evaluated probes.
"""

from __future__ import annotations

import math
import warnings
from typing import Optional, Sequence

import numpy as np

from . import parallel
from .errors import DomainError
from .limits import dg0_upper_bound_check
from .models import (BM_COPULA, ProcessModel, TimeGrid, envelope_statistics, level_kernel,
                     map_path_blocks, to_uniform)
from .numerics import std_normal_cdf, std_normal_pdf, std_normal_quantile
from .reports import BoundReport, ProbeResult
from .weights import WeightSpec, dyadic_sum, integral_condition, slowly_varying_eval

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
    min over the ball of X_s <= x < X_t, decided on the native scale.
    X_t <= x is decided once per (time, level) and shared by its balls.
    """
    xs = [x for _it, _ball, x in probe_cells]
    kernel = level_kernel(model, xs)
    # balls around one time are nested index ranges: their path extrema grow outward
    around = {}
    for j, (it, ball, _x) in enumerate(probe_cells):
        around.setdefault(it, []).append((ball.size, int(ball[0]), int(ball[-1]) + 1, j))

    def block_fn(vals):
        counts = np.zeros((len(probe_cells), 2), dtype=np.int64)
        for it, balls in around.items():
            low, high, at = vals[it].copy(), vals[it].copy(), {}
            done_a, done_b = it, it + 1
            for _size, a, b, j in sorted(balls):
                for rows in (vals[a:done_a], vals[done_b:b]):
                    if len(rows):
                        np.minimum(low, rows.min(axis=0), out=low)
                        np.maximum(high, rows.max(axis=0), out=high)
                done_a, done_b = a, b
                if xs[j] not in at:
                    at[xs[j]] = kernel.leq(vals[it], j)
                counts[j, 0] = np.count_nonzero(at[xs[j]] & kernel.any_gt(vals[a:b], high, j))
                counts[j, 1] = np.count_nonzero(kernel.any_leq(vals[a:b], low, j) & ~at[xs[j]])
        return counts

    return map_path_blocks(model, grid, n, seed, block_fn, workers, extra_key=extra_key)


def _wl_sweep(model, w, theta, probes, grid, n, seed, workers, refined=False):
    """The WL sweep: its rows, its (f_ts, f_st) frequencies, ``l_hat`` and the evaluated count.

    The sweep runs on ``grid``, or on its density-doubled refinement.  A
    probe's row estimates max(f_ts, f_st), with implied constant
    max(f_ts, f_st) w(x)^2 / eps^2; ``l_hat`` is the sup of those constants.
    A probe whose time ball is a single grid point gets a skipped row and
    frequencies None.
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
    return (rows, freqs, max((r.c_hat for r in rows if r.c_hat is not None), default=0.0),
            len(cells))


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
    ``l_hat_ts`` and ``l_hat_st`` split ``l_hat`` by crossing event.
    """
    grid = grid or TimeGrid.uniform()
    probes = None if probes is None else list(probes)
    rows, freqs, l_hat, evaluated = _wl_sweep(model, w, theta, probes, grid, n, seed, workers)
    fine_rows, _, l_fine, _ = _wl_sweep(model, w, theta, probes, grid, n, seed, workers,
                                        refined=True)
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
    _fail_if_none_evaluated(rows, evaluated)  # l_hat reads only the sweep on ``grid``
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
    constant is frequency / eps^2.
    """
    if not theta > 4.0:
        raise DomainError("theta must exceed 4")
    grid = grid or TimeGrid.uniform()
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
ENVELOPE_CROSS_CHECK_X0 = 1e-4


def envelope_check(model: ProcessModel, w: WeightSpec,
                   lambdas: Sequence[float] = DEFAULT_ENVELOPE_LAMBDAS,
                   n: int = 200_000, seed: int = 0, grid: Optional[TimeGrid] = None,
                   workers: int = 1) -> BoundReport:
    """Check that lambda^2 P(sup_t w(X_t) > lambda) trends down in lambda.

    The trend is required over the top three lambda values with a
    3-standard-error slack.  For the Brownian copula an analytic cross-check
    bounds the low-tail part by the concentration envelope at
    x0 = ``ENVELOPE_CROSS_CHECK_X0``.
    """
    x0 = ENVELOPE_CROSS_CHECK_X0
    grid = grid or TimeGrid.uniform()
    lams = sorted(float(v) for v in lambdas)
    if len(lams) < 3:
        raise DomainError("need at least three lambda values")
    want_cross = model.kind == BM_COPULA and w.alpha > 0.0

    def block_fn(vals):
        vals = to_uniform(model, vals)
        wvals = w(vals)
        sup = wvals.max(axis=0)
        counts = np.array([np.count_nonzero(sup > lam) for lam in lams], dtype=np.int64)
        lo = np.count_nonzero(vals.min(axis=0) <= x0) if want_cross else 0
        return np.concatenate([counts, [lo]])

    counts = map_path_blocks(model, grid, n, seed, block_fn, workers)
    rows, values = [], []
    for lam, c in zip(lams, counts[:-1]):
        p = c / n
        se = _freq_stderr(p, n)
        values.append((lam, lam * lam * p, lam * lam * se))
        rows.append(ProbeResult({"lambda": lam}, p, se, None, lam * lam * p, True))
    top = values[-3:]
    for (l1, v1, s1), (l2, v2, s2) in zip(top, top[1:]):
        ok = v2 <= v1 + MC_SIGMA * (s1 + s2)
        rows.append(ProbeResult({"trend": f"{l1:g}->{l2:g}"}, v2 - v1,
                                s1 + s2, 0.0, None, ok))
    if want_cross:
        d_env = envelope_statistics(grid, min(n, 20_000), seed, workers=workers,
                                    stream=parallel.STREAM_CALIBRATION)
        p_lo = counts[-1] / n
        lam0 = float(w(x0))
        arg = -std_normal_quantile(x0) - d_env
        bound = lam0 * lam0 * math.sqrt(2.0 * math.pi) * std_normal_pdf(arg)
        est = lam0 * lam0 * p_lo
        se = lam0 * lam0 * _freq_stderr(p_lo, n)
        rows.append(ProbeResult({"cross_check_x0": x0, "lambda": lam0,
                                 "d_env": d_env},
                                est, se, bound, est / bound if bound > 0 else None,
                                est <= bound + MC_SIGMA * se))
    return BoundReport("envelope", tuple(rows), n, seed)


# ---------------------------------------------------------------------------
# Weight conditions
# ---------------------------------------------------------------------------

def integral_check(w: WeightSpec, c_values: Sequence[float], seed: int = 0) -> BoundReport:
    """The tail integral of the weight, one row per constant c: it must be finite."""
    rows = [ProbeResult({"c": e.c}, e.value, e.error, None, None, e.finite)
            for e in integral_condition(w, c_values)]
    return BoundReport("integral", tuple(rows), 0, seed)


def dyadic_check(w: WeightSpec, seed: int = 0) -> BoundReport:
    """Dyadic sums of 1/w^2 must settle; a pure power must match its geometric series."""
    pure_power, r = w.sv_kind == "const" and w.sv_param == 1.0, 4.0 ** (-w.alpha)
    if pure_power and w.alpha > 0.0 and r == 1.0:  # dyadic_sum rejects alpha = 0 itself
        raise DomainError(f"exponent {w.alpha!r} is too small for the dyadic check: "
                          "the ratio 4^-alpha of its geometric series rounds to 1")
    rows = []
    for theta in (1e-4, 1e-2, 0.2 * w.gamma):
        short = dyadic_sum(w, theta, 60)
        full = dyadic_sum(w, theta, 200)
        settled = full - short <= 0.01 * full
        rows.append(ProbeResult({"theta": theta, "terms": 200}, full, None,
                                None, None, settled and full >= short))
        if pure_power:  # geometric series in closed form, partial and limit
            partial = (1.0 - r ** 60) / (1.0 - r)
            limit = 1.0 / (1.0 - r)
            rows.append(ProbeResult({"theta": theta, "terms": 60, "part": "closed-form"},
                                    short, None, partial, None,
                                    abs(short - partial) <= 1e-10))
            rows.append(ProbeResult({"theta": theta, "terms": 200, "part": "limit"},
                                    full, None, limit, None,
                                    abs(full - limit) <= 1e-10))
    return BoundReport("dyadic", tuple(rows), 0, seed)


SLOWLY_VARYING_LAMBDAS = (0.5, 2.0, 10.0)
SLOWLY_VARYING_X = (1e-8, 1e-16, 1e-30)  # marching toward 0
# |ratio - 1| caps at the final probe: the exp-sqrt-log family approaches 1
# at rate c|ln lambda| / (2 sqrt(ln(1/x))), so wide lambdas get a wider cap.
SLOWLY_VARYING_TIGHT_TOL = 0.05
SLOWLY_VARYING_WIDE_TOL = 0.15
SLOWLY_VARYING_TAIL_EXPONENT = 0.2
SLOWLY_VARYING_TAIL_TOL = 1e-2


def slowly_varying_check(w: WeightSpec) -> BoundReport:
    """Finite-sample check that the slowly varying factor is slowly varying.

    Ratios L(lambda x)/L(x) must approach 1 monotonically along the probe
    sequence and land within a per-lambda cap; x^gamma L(x) must decrease to
    below the tail cap.  Caps are configuration, documented above.
    """
    xs, gamma_exp = SLOWLY_VARYING_X, SLOWLY_VARYING_TAIL_EXPONENT
    rows = []
    for lam in SLOWLY_VARYING_LAMBDAS:
        devs = []
        for x in xs:
            ratio = float(slowly_varying_eval(w, lam * x) / slowly_varying_eval(w, x))
            devs.append(abs(ratio - 1.0))
            rows.append(ProbeResult({"lambda": lam, "x": x, "part": "ratio"},
                                    ratio, None, None, None, True))
        tol = SLOWLY_VARYING_TIGHT_TOL if 0.5 <= lam <= 2.0 else SLOWLY_VARYING_WIDE_TOL
        monotone = all(b <= a + 1e-12 for a, b in zip(devs, devs[1:]))
        rows.append(ProbeResult({"lambda": lam, "part": "ratio-limit"},
                                devs[-1], None, tol, None, monotone and devs[-1] <= tol))
    tail = [float(x ** gamma_exp * slowly_varying_eval(w, x)) for x in xs]
    for x, v in zip(xs, tail):
        rows.append(ProbeResult({"x": x, "gamma": gamma_exp, "part": "tail"},
                                v, None, None, None, True))
    monotone = all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))
    rows.append(ProbeResult({"gamma": gamma_exp, "part": "tail-limit"}, tail[-1], None,
                            SLOWLY_VARYING_TAIL_TOL, None,
                            monotone and tail[-1] <= SLOWLY_VARYING_TAIL_TOL))
    return BoundReport("slowly-varying", tuple(rows), 0, 0)


# ---------------------------------------------------------------------------
# Chaining cross-check
# ---------------------------------------------------------------------------

DEFAULT_CHAINING_PROBES = ((1.5, 0.6, 0.02, 0.2), (1.5, 0.7, 0.05, 0.24))
CHAINING_LEVEL_COUNT = 64


def chaining_ab_check(model: ProcessModel, w: WeightSpec, theta: float,
                      probes: Sequence[tuple[float, float, float, float]] = DEFAULT_CHAINING_PROBES,
                      n: int = 100_000, seed: int = 0, grid: Optional[TimeGrid] = None,
                      l_hat: Optional[float] = None, workers: int = 1) -> BoundReport:
    """Level-interval crossing frequency against the dyadic chaining bound.

    Probes are (t, eps, a, b) with b inside the weight's monotone window.
    The bound is (measured dyadic ratio) l_hat eps^2 / w(b)^2 + (b - a),
    with the crossing constant measured by the WL sweep when not supplied;
    the ``l_hat`` row then names how many of the sweep's probes it read
    (``wl_evaluated`` of ``wl_probes``).  A probe whose time ball is a single
    grid point is skipped; the report fails when no probe, or no probe of
    that WL sweep, is evaluated.
    """
    grid = grid or TimeGrid.uniform()
    if w.alpha <= 0.0:
        raise DomainError("the chaining bound needs a nonzero blow-up exponent")
    for _t, _e, a, b in probes:
        if not (0.0 < a < b < w.gamma):
            raise DomainError("need 0 < a < b < gamma for every probe")
    balls = [(grid.index_of(t), _time_ball(grid, t, eps, theta)) for t, eps, _a, _b in probes]
    prepared = [(it, ball, np.linspace(a, b, CHAINING_LEVEL_COUNT + 1)[1:])  # levels in (a, b]
                for (it, ball), (_t, _e, a, b) in zip(balls, probes) if ball.size > 1]
    evaluated, l_hat_coords = len(prepared), {"stat": "l_hat"}
    if l_hat is None:
        sweep, _freqs, l_hat, wl_evaluated = _wl_sweep(model, w, theta, None, grid, n, seed,
                                                       workers)
        evaluated = min(evaluated, wl_evaluated)
        l_hat_coords.update(wl_evaluated=wl_evaluated, wl_probes=len(sweep))

    # the Phi transform runs on the rows the probes read alone: their times and balls
    read = np.unique([i for it, ball, _levels in prepared for i in (it, *ball)]).astype(int)

    def block_fn(vals):
        vals[read] = to_uniform(model, vals[read])
        counts = np.zeros(len(prepared), dtype=np.int64)
        for j, (it, ball, levels) in enumerate(prepared):
            # largest probe level strictly below X_t, if any
            pos = np.searchsorted(levels, vals[it], side="left") - 1
            below = levels[np.maximum(pos, 0)]
            counts[j] = np.count_nonzero((pos >= 0) & (vals[ball].min(axis=0) <= below))
        return counts

    counts = iter(map_path_blocks(model, grid, n, seed, block_fn, workers) if prepared else ())
    rows = [ProbeResult(l_hat_coords, l_hat, None, None, None, True)]
    for (t, eps, a, b), (_it, ball) in zip(probes, balls):
        if ball.size <= 1:
            rows.append(_skipped({"t": t, "eps": eps, "a": a, "b": b,
                                  "ball_points": int(ball.size)}, "singleton time ball"))
            continue
        ratio = dyadic_sum(w, b, 200)
        p = next(counts) / n
        se = _freq_stderr(p, n)
        wb = float(w(b))
        bound = ratio * l_hat * eps ** 2 / (wb * wb) + (b - a)
        rows.append(ProbeResult({"t": t, "eps": eps, "a": a, "b": b, "dyadic_ratio": ratio},
                                p, se, bound, None, p <= bound + MC_SIGMA * se))
    _fail_if_none_evaluated(rows, evaluated)
    return BoundReport("chaining-ab", tuple(rows), n, seed)


def dg0_upper_check(model: ProcessModel, w: WeightSpec, theta: float, n: int = 100_000,
                    seed: int = 0, grid: Optional[TimeGrid] = None,
                    workers: int = 1) -> BoundReport:
    """d_G0^2 <= 2 d^2(x, y) + 4 l_hat rho^2 at five times spanning the grid, three levels.

    ``l_hat`` is the crossing constant of the WL sweep on ``grid``, and its
    row names how many of the sweep's probes it read (``wl_evaluated`` of
    ``wl_probes``); the report fails when that sweep evaluates no probe.
    """
    grid = grid or TimeGrid.uniform()
    sweep, _freqs, l_hat, evaluated = _wl_sweep(model, w, theta, None, grid, n, seed, workers)
    ts = np.linspace(grid.a, grid.b, 5)
    xs = (0.2, 0.5, 0.8)
    probes = [(s, x, t, y) for s in ts for t in ts for x in xs for y in xs]
    violation = dg0_upper_bound_check(model, w, l_hat, probes, theta=theta)
    rows = [ProbeResult({"stat": "l_hat", "wl_evaluated": evaluated, "wl_probes": len(sweep)},
                        l_hat, None, None, None, True),
            ProbeResult({"probes": len(probes), "violation": violation},
                        None, None, None, None, violation is None)]
    _fail_if_none_evaluated(rows, evaluated)
    return BoundReport("dg0-upper", tuple(rows), n, seed)

