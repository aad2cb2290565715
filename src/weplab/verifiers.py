"""Monte Carlo and closed-form certification of the testable bounds.

Every check reads the process and weight (X, w), the weight alone, or the
Brownian field the proofs use.  Facts of the normal law alone, such as its
tail sandwich and the quantile bounds of the proofs, read no option: they are
mpmath oracle tests of ``weplab.numerics``, not checks.

Existential constants are never hard-coded: each probability verifier
reports the implied constant (estimate divided by the bound shape); the
d1/d2 verifier also checks its stability across eps.  One-sided Monte Carlo
tolerance is fixed at three standard errors throughout.

Every checker, ``wl_estimate`` included, returns a ``BoundReport`` named
after its ``weplab verify`` check; each CLT harness returns its report with
its CSV columns.  Reports carry no clock and determinism comes from the
block-seeded samplers, so ``to_json()`` is byte-identical across reruns and
worker counts at a pinned seed; timing is the caller's business.  A probe
that is not evaluated gets a row whose ``skipped`` coordinate names why, and
a sweep that evaluates none of its probes adds a failing ``evaluated_probes``
row.  One WL sweep gives ``wl``, ``chaining-ab`` and ``dg0-upper`` their
crossing constant ``l_hat``; the ``l_hat`` row of the latter two counts the
sweep's evaluated probes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import parallel
from .engine import accumulate_cell_moments, covariance_from_joint, replicated_fields
from .errors import DomainError
from .limits import (build_limit_model, check_distance_monotone, dg0_upper_bound_check,
                     sample_limit_field, weight_drift_check)
from .models import (BM_COPULA, DEFAULT_ENVELOPE_EPS, DEFAULT_ENVELOPE_T, ProcessModel,
                     TimeGrid, envelope_statistics, joint_cdf_matrix, level_kernel,
                     map_brownian_blocks, map_path_blocks, to_uniform)
from .numerics import (ks_critical_one_sample, ks_critical_two_sample,
                       ks_statistic_one_sample, ks_statistic_two_sample,
                       std_normal_cdf, std_normal_pdf, std_normal_quantile)
from .weights import WeightSpec, dyadic_sum, integral_condition, slowly_varying_eval

MC_SIGMA = 3.0  # one-sided Monte Carlo allowance, in standard errors


def _jsonable(value):
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        v = float(value)
        return v if math.isfinite(v) else None
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return str(value)


@dataclass(frozen=True)
class ProbeResult:
    coords: dict
    estimate: Optional[float]
    stderr: Optional[float]
    bound: Optional[float]
    c_hat: Optional[float]
    passed: bool

    def to_json(self) -> dict:
        return {"coords": _jsonable(self.coords), "estimate": _jsonable(self.estimate),
                "stderr": _jsonable(self.stderr), "bound": _jsonable(self.bound),
                "c_hat": _jsonable(self.c_hat), "pass": bool(self.passed)}


@dataclass(frozen=True)
class BoundReport:
    check: str
    probes: tuple[ProbeResult, ...]
    n: int
    seed: int

    @property
    def passed(self) -> bool:
        return all(p.passed for p in self.probes)

    def to_json(self) -> dict:
        return {"check": self.check, "probes": [p.to_json() for p in self.probes],
                "n": self.n, "seed": self.seed}


def _freq_stderr(p: float, n: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)


def _implied_constant(p: float, shape: float) -> float:
    """Frequency over bound shape; a zero shape implies 0 for p = 0, else inf."""
    return p / shape if shape > 0.0 else (0.0 if p == 0.0 else math.inf)


def _skipped(coords: dict, reason: str) -> ProbeResult:
    """The row of a probe that is not evaluated, naming the reason."""
    where = ", ".join(f"{k}={v}" for k, v in coords.items())
    warnings.warn(f"probe ({where}) skipped: {reason}")
    return ProbeResult({**coords, "skipped": reason}, None, None, None, None, True)


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
    balls = [(grid.index_of(t), grid.ball_indices(t, eps ** theta)) for t, _x, eps in probes]
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
        ball = grid.ball_indices(t, eps ** theta)
        if ball.size <= 1:
            rows.append(_skipped({"t": t, "eps": eps, "ball_points": int(ball.size)},
                                 "singleton time ball"))
            continue
        prepared.append((t, eps, it, ball))

    if prepared:
        # the bm-copula probe transforms B_s with the probe time's scale,
        # Phi(B_s / sqrt(t)), which cannot be recovered bit-for-bit from the
        # path values Phi(B_s / sqrt(s)); so raw Brownian blocks are streamed.
        # For the other kinds the transformed value is the path value.
        brownian = model.kind == BM_COPULA

        def block_fn(vals):
            counts = np.zeros(len(prepared), dtype=np.int64)
            for j, (t, eps, it, ball) in enumerate(prepared):
                u, ut = vals[ball], vals[it]
                if brownian:
                    u, ut = std_normal_cdf(u / math.sqrt(t)), std_normal_cdf(ut / math.sqrt(t))
                osc = np.max(np.abs(u - ut), axis=0)
                counts[j] = np.count_nonzero(osc > eps ** 2)
            return counts

        counts = (map_brownian_blocks(grid, n, seed, block_fn, workers) if brownian
                  else map_path_blocks(model, grid, n, seed, block_fn, workers))
        for (t, eps, it, ball), c in zip(prepared, counts):
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
        stats = envelope_statistics(grid, min(n, 20_000), seed, workers=workers,
                                    stream=parallel.STREAM_CALIBRATION)
        p_lo = counts[-1] / n
        lam0 = float(w(x0))
        arg = -std_normal_quantile(x0) - stats.d_env
        bound = lam0 * lam0 * math.sqrt(2.0 * math.pi) * std_normal_pdf(arg)
        est = lam0 * lam0 * p_lo
        se = lam0 * lam0 * _freq_stderr(p_lo, n)
        rows.append(ProbeResult({"cross_check_x0": x0, "lambda": lam0,
                                 "d_env": stats.d_env},
                                est, se, bound, est / bound if bound > 0 else None,
                                est <= bound + MC_SIGMA * se))
    return BoundReport("envelope", tuple(rows), n, seed)


# ---------------------------------------------------------------------------
# Weight and metric conditions
# ---------------------------------------------------------------------------

def integral_check(w: WeightSpec, c_values: Sequence[float], seed: int = 0) -> BoundReport:
    """The tail integral of the weight, one row per constant c: it must be finite."""
    rows = [ProbeResult({"c": e.c}, e.value, e.error, None, None, e.finite)
            for e in integral_condition(w, c_values)]
    return BoundReport("integral", tuple(rows), 0, seed)


def dyadic_check(w: WeightSpec, seed: int = 0) -> BoundReport:
    """Dyadic sums of 1/w^2 must settle; a pure power must match its geometric series."""
    rows = []
    for theta in (1e-4, 1e-2, 0.2 * w.gamma):
        short = dyadic_sum(w, theta, 60)
        full = dyadic_sum(w, theta, 200)
        settled = full - short <= 0.01 * full
        rows.append(ProbeResult({"theta": theta, "terms": 200}, full, None,
                                None, None, settled and full >= short))
        if w.sv_kind == "const" and w.sv_param == 1.0:
            # pure power: geometric series in closed form, partial and limit
            r = 4.0 ** (-w.alpha)
            partial = (1.0 - r ** 60) / (1.0 - r)
            limit = 1.0 / (1.0 - r)
            rows.append(ProbeResult({"theta": theta, "terms": 60, "part": "closed-form"},
                                    short, None, partial, None,
                                    abs(short - partial) <= 1e-10))
            rows.append(ProbeResult({"theta": theta, "terms": 200, "part": "limit"},
                                    full, None, limit, None,
                                    abs(full - limit) <= 1e-10))
    return BoundReport("dyadic", tuple(rows), 0, seed)


def _sampled_violation(name: str, w: WeightSpec, seed: int, check, label: str,
                       stream: int, width: int, ordered: bool) -> BoundReport:
    """One row: ``check`` on 1000 draws of ``width`` points in the weight's window."""
    rng = parallel.rng_from_words(parallel.seed_words(seed, [(stream,)])[0])
    draws = rng.uniform(1e-6, w.gamma, size=(1000, width))
    if ordered:
        draws = np.sort(draws, axis=1)
    violation = check(w, [tuple(d) for d in draws])
    row = ProbeResult({label: 1000, "violation": violation}, None, None, None, None,
                      violation is None)
    return BoundReport(name, (row,), 0, seed)


def monotone_d_check(w: WeightSpec, seed: int = 0) -> BoundReport:
    """d(x, y) <= d(x, z) on 1000 sampled ordered triples in the weight's window."""
    return _sampled_violation("monotone-d", w, seed, check_distance_monotone, "triples",
                              parallel.STREAM_MONOTONE_D, 3, ordered=True)


def weight_drift_sampled_check(w: WeightSpec, seed: int = 0) -> BoundReport:
    """|x w(x) - y w(y)| <= sqrt(2) d(x, y) on 1000 sampled pairs in the weight's window."""
    return _sampled_violation("weight-drift", w, seed, weight_drift_check, "pairs",
                              parallel.STREAM_WEIGHT_DRIFT, 2, ordered=False)


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
# Gaussian concentration on the scaled Brownian field
# ---------------------------------------------------------------------------

DEFAULT_BORELL_R = (1.0, 2.0, 3.0)


def borell_check(r_values: Sequence[float] = DEFAULT_BORELL_R, n: int = 100_000,
                 seed: int = 0, grid: Optional[TimeGrid] = None,
                 workers: int = 1) -> BoundReport:
    """Concentration of the grid sup of -B_t/sqrt(t) about its mean.

    The mean is estimated from an independent calibration stream; the sup
    variance constant is 1 on any grid inside [1, 2].
    """
    grid = grid or TimeGrid.uniform()
    sqrt_pts = np.sqrt(grid.points)[:, None]

    def sup_sums(b):
        sup = np.max(-b / sqrt_pts, axis=0)
        return np.array([np.sum(sup), float(len(sup))])

    cal = map_brownian_blocks(grid, n, seed, sup_sums, workers,
                              stream=parallel.STREAM_CALIBRATION)
    m_hat = float(cal[0] / cal[1])

    rs = [float(r) for r in r_values]
    if any(r <= 0.0 for r in rs):
        raise DomainError("r values must be positive")

    def exceed_counts(scores):
        sup = np.max(-scores, axis=0)
        return np.array([np.count_nonzero(sup >= m_hat + r) for r in rs], dtype=np.int64)

    counts = map_path_blocks(ProcessModel(BM_COPULA), grid, n, seed, exceed_counts, workers)
    rows = [ProbeResult({"stat": "sup_mean"}, m_hat, None, None, None, True)]
    for r, c in zip(rs, counts):
        p = c / n
        se = _freq_stderr(p, n)
        bound = math.exp(-r * r / 2.0)
        rows.append(ProbeResult({"r": r}, p, se, bound, p / bound,
                                p <= bound + MC_SIGMA * se))
    return BoundReport("borell", tuple(rows), n, seed)


def lemma_m_check(n: int = 20_000, seed: int = 0, grid: Optional[TimeGrid] = None,
                  t_values: Sequence[float] = DEFAULT_ENVELOPE_T,
                  eps_values: Sequence[float] = DEFAULT_ENVELOPE_EPS,
                  workers: int = 1) -> BoundReport:
    """Forward-increment sup means against 2 sqrt(2/pi) sqrt(eps).

    A window that holds no grid time is skipped, not evaluated.
    """
    grid = grid or TimeGrid.uniform()
    stats = envelope_statistics(grid, n, seed, t_values, eps_values, workers)
    rows = []
    evaluated = 0
    for (t, eps), (m_hat, se, pts) in sorted(stats.m_table.items()):
        coords = {"t": t, "eps": eps, "window_points": pts}
        if pts == 0:
            rows.append(_skipped(coords, "empty forward window"))
            continue
        evaluated += 1
        bound = 2.0 * math.sqrt(2.0 / math.pi) * math.sqrt(eps)
        rows.append(ProbeResult(coords, m_hat, se, bound,
                                m_hat / bound if bound > 0 else None,
                                m_hat <= bound + MC_SIGMA * se))
    rows.append(ProbeResult({"stat": "m0_hat"}, stats.m0_hat, None, None, None, True))
    rows.append(ProbeResult({"stat": "d_env"}, stats.d_env, stats.d_env_stderr, None, None,
                            stats.d_env > MC_SIGMA * stats.d_env_stderr))
    _fail_if_none_evaluated(rows, evaluated)
    return BoundReport("lemma-m", tuple(rows), n, seed)


# ---------------------------------------------------------------------------
# Crossing bounds for the Brownian copula
# ---------------------------------------------------------------------------

DEFAULT_D1D2_T = (1.5,)
DEFAULT_D1D2_EPS = (0.025, 0.1, 0.4)
DEFAULT_D1D2_X = (0.01, 0.05, 0.2)
D1D2_STABILITY_THRESHOLD = 10.0


def _m0_default(grid, seed, workers) -> float:
    return envelope_statistics(grid, 20_000, seed, workers=workers,
                               stream=parallel.STREAM_CALIBRATION).m0_hat


def prop_d1_d2_check(probes: Optional[Sequence[tuple[float, float, float]]] = None,
                     n: int = 100_000, seed: int = 0, grid: Optional[TimeGrid] = None,
                     m0_hat: Optional[float] = None, workers: int = 1,
                     stability_threshold: float = D1D2_STABILITY_THRESHOLD,
                     events: tuple[str, ...] = ("d1", "d2")) -> BoundReport:
    """Two-sided level-crossing frequencies against their bound shapes.

    Probes are (t, eps, x) with eps the time radius of the ball.  Each event
    frequency is divided by the shape sqrt(eps) (x ln(1/x)) +
    sqrt(eps) phi(-quantile(x) - m0)^(t/(t+eps)); the implied constants must
    stay within the stability threshold across eps at fixed x.  The report
    keeps the rows of ``events`` and is named after them ("d1", "d2", "d1-d2").
    A probe whose time ball is a single grid point is skipped, not evaluated,
    and the stability rows compare the evaluated eps alone.
    """
    if not events or any(e not in ("d1", "d2") for e in events):
        raise DomainError(f"events must be d1 and/or d2, not {events!r}")
    grid = grid or TimeGrid.uniform()
    if probes is None:
        probes = [(t, e, x) for t in DEFAULT_D1D2_T for e in DEFAULT_D1D2_EPS
                  for x in DEFAULT_D1D2_X]
    for t, eps, x in probes:
        if not (0.0 < x < 0.25):
            raise DomainError("x must lie in (0, 1/4)")
        if not (0.0 <= eps <= 0.5):
            raise DomainError("eps must lie in [0, 1/2]")
    if m0_hat is None:
        m0_hat = _m0_default(grid, seed, workers)

    balls = [(grid.index_of(t), grid.ball_indices(t, eps)) for t, eps, _x in probes]
    cells = [(it, ball, x) for (it, ball), (_t, _e, x) in zip(balls, probes) if ball.size > 1]
    counts = iter(_crossing_counts(ProcessModel(BM_COPULA), grid, cells, n, seed, workers)
                  if cells else ())

    rows = []
    c_hats: dict[tuple[str, float], dict[float, float]] = {}
    for (t, eps, x), (_it, ball) in zip(probes, balls):
        if ball.size <= 1:
            rows += [_skipped({"event": name, "t": t, "eps": eps, "x": x}, "singleton time ball")
                     for name in events]
            continue
        shape = (math.sqrt(eps) * (x * math.log(1.0 / x))
                 + math.sqrt(eps) * std_normal_pdf(-std_normal_quantile(x) - m0_hat)
                 ** (t / (t + eps)))
        for name, c in zip(("d1", "d2"), next(counts)):
            if name not in events:
                continue
            p = c / n
            c_hat = _implied_constant(p, shape)
            rows.append(ProbeResult({"event": name, "t": t, "eps": eps, "x": x},
                                    p, _freq_stderr(p, n), shape, c_hat, math.isfinite(c_hat)))
            c_hats.setdefault((name, x), {})[eps] = c_hat
    for (name, x), per_eps in sorted(c_hats.items()):
        vals = [v for v in per_eps.values() if v > 0.0]
        if len(per_eps) < 2:
            continue
        ratio = max(vals) / min(vals) if len(vals) == len(per_eps) else math.inf
        rows.append(ProbeResult({"event": name, "x": x, "stat": "eps-stability"},
                                ratio if math.isfinite(ratio) else None, None,
                                stability_threshold, None, ratio < stability_threshold))
    rows.append(ProbeResult({"stat": "m0_hat"}, m0_hat, None, None, None, True))
    _fail_if_none_evaluated(rows, len(cells))
    return BoundReport("-".join(events), tuple(rows), n, seed)


DEFAULT_LEMMA_L_PROBES = ((1.0, 0.25, 1.5), (1.5, 0.25, 1.5), (1.0, 0.1, 1.2),
                          (1.5, 0.001, 1.5), (1.0, 0.25, 6.0))


def lemma_l_check(probes: Sequence[tuple[float, float, float]] = DEFAULT_LEMMA_L_PROBES,
                  n: int = 100_000, seed: int = 0, grid: Optional[TimeGrid] = None,
                  m0_hat: Optional[float] = None, workers: int = 1) -> BoundReport:
    """One-sided scaled-path crossing frequency against its bound shape.

    Probes are (t, eps, l) with l above the measured increment mean; the
    shape is sqrt(eps) phi(l - m0)^((t+eps)/(t+2 eps)).  A probe whose
    forward window (t, t + eps] holds no grid time is skipped, not evaluated.
    """
    grid = grid or TimeGrid.uniform()
    if m0_hat is None:
        m0_hat = _m0_default(grid, seed, workers)
    for _t, _e, l in probes:
        if l <= m0_hat:
            raise DomainError(f"level {l} must exceed the measured mean {m0_hat:.4f}")
    prepared = [(grid.index_of(t), grid.forward_indices(t, eps), l) for t, eps, l in probes]

    def block_fn(scaled):
        counts = np.zeros(len(prepared), dtype=np.int64)
        for j, (it, window, l) in enumerate(prepared):
            if window.size == 0:
                continue
            counts[j] = np.count_nonzero((scaled[it] < l)
                                         & (np.max(scaled[window], axis=0) >= l))
        return counts

    counts = map_path_blocks(ProcessModel(BM_COPULA), grid, n, seed, block_fn, workers)
    rows = [ProbeResult({"stat": "m0_hat"}, m0_hat, None, None, None, True)]
    evaluated = 0
    for (t, eps, l), (_it, window, _l), c in zip(probes, prepared, counts):
        if window.size == 0:
            rows.append(_skipped({"t": t, "eps": eps, "l": l}, "empty forward window"))
            continue
        evaluated += 1
        p = c / n
        shape = math.sqrt(eps) * std_normal_pdf(l - m0_hat) ** ((t + eps) / (t + 2.0 * eps))
        c_hat = _implied_constant(p, shape)
        rows.append(ProbeResult({"t": t, "eps": eps, "l": l}, p, _freq_stderr(p, n),
                                shape, c_hat, math.isfinite(c_hat)))
    _fail_if_none_evaluated(rows, evaluated)
    return BoundReport("lemma-l", tuple(rows), n, seed)


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
    balls = [(grid.index_of(t), grid.ball_indices(t, eps ** theta)) for t, eps, _a, _b in probes]
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


# ---------------------------------------------------------------------------
# CLT harnesses
# ---------------------------------------------------------------------------
# Each returns its report and its CSV columns: an ordered mapping from column
# name to the column's values, one per replication (per sample size for cov).

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
    target = _covariance_target(model, cells, w)
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


def _covariance_target(model: ProcessModel, cells, w: WeightSpec) -> np.ndarray:
    """wx * wy * (J - x * y) on the cells, with scalar weights.

    It rounds differently from ``covariance_from_joint``, which symmetrizes
    and subtracts products of weighted levels.
    """
    ys = np.array([y for _, y in cells])
    wv = np.array([float(w(y)) for _, y in cells])
    return np.outer(wv, wv) * (joint_cdf_matrix(model, cells) - np.outer(ys, ys))


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
