"""Shared numerics.

Standard normal density/CDF/quantile, an array-valued bivariate normal CDF
built on the Drezner-Wesolowsky single-integral reduction with
Gauss-Legendre nodes, an adaptive quadrature for integrands with an endpoint
singularity at zero, and Kolmogorov-Smirnov statistics.

All functions are pure and reentrant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import special

from .errors import DomainError

_TWO_PI = 2.0 * math.pi
_INV_SQRT_2PI = 1.0 / math.sqrt(_TWO_PI)


def std_normal_pdf(y):
    """phi(y) = (2*pi)^(-1/2) exp(-y^2/2)."""
    y = np.asarray(y, dtype=float)
    out = _INV_SQRT_2PI * np.exp(-0.5 * y * y)
    return float(out) if out.ndim == 0 else out


def std_normal_cdf(y):
    """Phi(y), accurate to a few ulps over the full double range."""
    y = np.asarray(y, dtype=float)
    out = special.ndtr(y)
    return float(out) if out.ndim == 0 else out


def std_normal_quantile(p):
    """Inverse of Phi.

    ``scipy.special.ndtri`` polished by two Newton steps on the CDF, which
    keeps |Phi(result) - p| at the 1e-12-relative level without tail
    cancellation.
    """
    arr = np.asarray(p, dtype=float)
    if np.any(~np.isfinite(arr)) or np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise DomainError("quantile argument must lie strictly inside (0, 1)")
    y = special.ndtri(arr)
    for _ in range(2):
        pdf = _INV_SQRT_2PI * np.exp(-0.5 * y * y)
        safe = pdf > 0.0
        step = np.where(safe, (special.ndtr(y) - arr) / np.where(safe, pdf, 1.0), 0.0)
        y = y - np.clip(step, -1.0, 1.0)
    return float(y) if y.ndim == 0 else y


# Gauss-Legendre nodes on [-1, 1]; order chosen by |rho| as in the classic
# Drezner-Wesolowsky/Genz scheme.
_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _leggauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    if order not in _GL_CACHE:
        _GL_CACHE[order] = np.polynomial.legendre.leggauss(order)
    return _GL_CACHE[order]


def _libm(fn, values: np.ndarray) -> np.ndarray:
    """``fn`` applied to each element as a Python float.

    ``math.exp``, ``math.asin`` and ``float ** 2`` call the C library, and
    numpy's vector exp, arcsin and square differ from it in the last bit on
    some arguments; going through Python floats keeps those bits.
    """
    return np.array(list(map(fn, values.tolist())), dtype=float)


def _square(v: float) -> float:
    return v ** 2


def _exp_where(live: np.ndarray, arg: np.ndarray) -> np.ndarray:
    """``math.exp`` of ``arg`` where ``live``, 0 elsewhere (the skipped terms)."""
    out = np.zeros(arg.shape)
    out[live] = _libm(math.exp, arg[live])
    return out


def bvn_cdf(h, k, rho):
    """P(X <= h, Y <= k) for standard bivariate normal with correlation rho.

    Array-valued: h, k and rho broadcast against each other, and each
    element goes through the same floating-point operations as a scalar
    call, so a value does not depend on what it is batched with.  Scalar
    arguments give a float.  Absolute error below 5e-8.  The degenerate
    cases rho = +-1 are returned exactly as Phi(min(h, k)) and
    max(0, Phi(h) + Phi(k) - 1).
    """
    h, k, rho = np.broadcast_arrays(np.asarray(h, dtype=float), np.asarray(k, dtype=float),
                                    np.asarray(rho, dtype=float))
    shape = h.shape
    h, k, rho = h.ravel(), k.ravel(), rho.ravel()
    if not (np.all(np.isfinite(h)) and np.all(np.isfinite(k))):
        raise DomainError("bvn_cdf requires finite h and k")
    if not np.all(np.abs(rho) <= 1.0):
        raise DomainError("correlation must lie in [-1, 1]")
    out = np.empty(h.shape)
    one = rho == 1.0
    out[one] = special.ndtr(np.minimum(h[one], k[one]))
    minus = rho == -1.0
    p = special.ndtr(h[minus]) + special.ndtr(k[minus]) - 1.0
    out[minus] = np.where(p > 0.0, p, 0.0)
    rest = ~(one | minus)
    p = _bvn_upper(-h[rest], -k[rest], rho[rest])
    p = np.where(p > 0.0, p, 0.0)
    out[rest] = np.where(p < 1.0, p, 1.0)
    return float(out[0]) if shape == () else out.reshape(shape)


def _bvn_upper(h: np.ndarray, k: np.ndarray, r: np.ndarray) -> np.ndarray:
    """P(X > h, Y > k) elementwise; Drezner-Wesolowsky reduction, Genz's refinement."""
    out = np.empty(h.shape)
    ar = np.abs(r)
    zero = r == 0.0
    out[zero] = special.ndtr(-h[zero]) * special.ndtr(-k[zero])
    for lo, hi, order in ((0.0, 0.3, 6), (0.3, 0.75, 12), (0.75, 0.925, 20)):
        sel = ~zero & (ar >= lo) & (ar < hi)
        if sel.any():
            out[sel] = _bvn_upper_moderate(h[sel], k[sel], r[sel], order)
    sel = ar >= 0.925
    if sel.any():
        out[sel] = _bvn_upper_near_diagonal(h[sel], k[sel], r[sel])
    return out


def _bvn_upper_moderate(h, k, r, order: int) -> np.ndarray:
    """0 < |r| < 0.925: Gauss-Legendre on the arcsine-substituted integral."""
    x, w = _leggauss(order)
    hk = h * k
    hs = (h * h + k * k) / 2.0
    asr = _libm(math.asin, r)
    sn = np.sin(asr[:, None] * (1.0 + x) / 2.0)
    # a row sum adds each element's nodes in the same order as a 1-d np.sum
    bvn = np.sum(w * np.exp((sn * hk[:, None] - hs[:, None]) / (1.0 - sn * sn)), axis=1)
    return bvn * asr / (2.0 * _TWO_PI) + special.ndtr(-h) * special.ndtr(-k)


def _bvn_upper_near_diagonal(h, k, r) -> np.ndarray:
    """|r| >= 0.925: integrate the complementary variable near the diagonal.

    A term the scalar scheme skips is masked with ``np.where``; its
    exponential is never evaluated, so it cannot overflow.
    """
    hk = h * k
    neg = r < 0.0
    k = np.where(neg, -k, k)
    hk = np.where(neg, -hk, hk)
    a_sq = (1.0 - r) * (1.0 + r)
    a = np.sqrt(a_sq)
    bs = _libm(_square, h - k)
    c = (4.0 - hk) / 8.0
    d = (12.0 - hk) / 16.0
    asr = -(bs / a_sq + hk) / 2.0
    live = asr > -100.0
    bvn = np.where(live, a * _exp_where(live, asr)
                   * (1.0 - c * (bs - a_sq) * (1.0 - d * bs / 5.0) / 3.0
                      + c * d * a_sq * a_sq / 5.0), 0.0)
    live = -hk < 100.0
    b = np.sqrt(bs)
    sp = math.sqrt(_TWO_PI) * special.ndtr(-b / a)
    bvn = np.where(live, bvn - _exp_where(live, -hk / 2.0) * sp * b
                   * (1.0 - c * bs * (1.0 - d * bs / 5.0) / 3.0), bvn)
    a = a / 2.0
    # a node's xs and rs depend on r alone: square once per distinct r
    _, first, same_r = np.unique(r, return_index=True, return_inverse=True)
    x, w = _leggauss(20)
    for xi, wi in zip(x, w):
        xs = _libm(_square, a[first] * (xi + 1.0))[same_r]
        rs = np.sqrt(1.0 - xs)
        asr = -(bs / xs + hk) / 2.0
        live = asr > -100.0
        sp = 1.0 + c * xs * (1.0 + d * xs)
        ep = _exp_where(live, -hk * (1.0 - rs) / (2.0 * (1.0 + rs))) / rs
        bvn = np.where(live, bvn + a * wi * _exp_where(live, asr) * (ep - sp), bvn)
    bvn = -bvn / _TWO_PI
    below = np.where(k > h, -bvn + (special.ndtr(k) - special.ndtr(h)), -bvn)
    return np.where(r > 0.0, bvn + special.ndtr(-np.maximum(h, k)), below)


@dataclass(frozen=True)
class QuadratureResult:
    """Outcome of ``singular_quadrature``.

    ``converged`` False is a classification result, not a failure: ``value``
    then carries the partial sum accumulated before the inner-panel
    contributions stopped decaying.
    """

    value: float
    error: float
    converged: bool
    panels: int


# Divergence heuristic: the last DIVERGENCE_WINDOW inner dyadic panels each
# contribute at least (1 - DIVERGENCE_SLACK) of the one before, AND probe
# panels far deeper still carry at least half the current contribution.
# Documented as a heuristic; exact logarithmic divergence triggers it
# immediately, while integrands that merely decay slowly (weights with heavy
# slowly varying factors) fail the deep probes and keep integrating.
DIVERGENCE_WINDOW = 5
DIVERGENCE_SLACK = 1e-3
MAX_PANELS = 2000
_PROBE_DEPTHS = (64, 256, 1024)

_PANEL_ORDER = 20


def _gl_panel(f, lo: float, hi: float) -> float:
    x, w = _leggauss(_PANEL_ORDER)
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    vals = np.asarray(f(mid + half * x), dtype=float)
    return float(half * np.sum(w * vals))


def _deep_probes_stay_flat(f, b: float, j: int, current: float) -> bool:
    """True when far-inside probe panels still match the current contribution."""
    # keep probe panels comfortably above the subnormal range
    max_depth = int(math.floor(math.log2(b / 1e-290))) if b > 1e-290 else j
    confirmed = False
    for extra in _PROBE_DEPTHS:
        depth = min(j + extra, max_depth)
        if depth <= j:
            continue
        hi = b * 2.0 ** (-depth)
        probe = abs(_gl_panel(f, hi / 2.0, hi))
        if probe < 0.5 * current:
            return False
        confirmed = True
    return confirmed


def _adaptive_panel(f, lo: float, hi: float, tol: float, depth: int = 0) -> tuple[float, float]:
    whole = _gl_panel(f, lo, hi)
    mid = 0.5 * (lo + hi)
    left = _gl_panel(f, lo, mid)
    right = _gl_panel(f, mid, hi)
    err = abs(whole - (left + right))
    if err <= tol or depth >= 24 or not math.isfinite(err):  # NaN never meets tol
        return left + right, err
    lv, le = _adaptive_panel(f, lo, mid, tol / 2.0, depth + 1)
    rv, re = _adaptive_panel(f, mid, hi, tol / 2.0, depth + 1)
    return lv + rv, le + re


def singular_quadrature(f: Callable[[np.ndarray], np.ndarray], b: float,
                        tol: float) -> QuadratureResult:
    """Integrate ``f`` over (0, b] with geometric refinement toward 0.

    The domain is cut into at most ``MAX_PANELS`` dyadic panels (b/2, b],
    (b/4, b/2], ... which are each integrated adaptively; the remaining tail
    is bounded geometrically once contributions decay.  ``f`` must accept
    numpy arrays.  When the innermost contributions fail to decay the result
    is flagged non-convergent and carries the partial sum.
    """
    if not (b > 0.0) or not (tol > 0.0):
        raise DomainError("singular_quadrature requires b > 0 and tol > 0")
    total = 0.0
    err = 0.0
    contribs: list[float] = []
    hi = float(b)
    for j in range(MAX_PANELS):
        lo = hi / 2.0
        panel_val, panel_err = _adaptive_panel(f, lo, hi, tol / (8.0 * (j + 1) * (j + 2)))
        total += panel_val
        err += panel_err
        contribs.append(abs(panel_val))
        hi = lo
        if len(contribs) > DIVERGENCE_WINDOW:
            window = contribs[-DIVERGENCE_WINDOW:]
            prior = contribs[-DIVERGENCE_WINDOW - 1:-1]
            if all(p > 0.0 and c >= (1.0 - DIVERGENCE_SLACK) * p for c, p in zip(window, prior)) \
                    and _deep_probes_stay_flat(f, b, j, contribs[-1]):
                return QuadratureResult(total, err + DIVERGENCE_WINDOW * max(window), False, j + 1)
        if len(contribs) >= 2:
            c_prev, c_last = contribs[-2], contribs[-1]
            if c_last == 0.0 and c_prev == 0.0:
                return QuadratureResult(total, err, True, j + 1)
            if c_prev > 0.0 and c_last < c_prev:
                q = min(c_last / c_prev, 0.9)
                tail = c_last * q / (1.0 - q)
                if tail < tol / 2.0:
                    return QuadratureResult(total, err + tail, True, j + 1)
        if hi < 1e-300:
            break
    return QuadratureResult(total, err + (contribs[-1] if contribs else 0.0), False, len(contribs))


def ks_statistic_one_sample(sample: Sequence[float], cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    """sup_x |F_n(x) - cdf(x)| evaluated at the jump points, both sides."""
    x = np.sort(np.asarray(sample, dtype=float))
    m = x.size
    if m == 0:
        raise DomainError("KS statistic of an empty sample")
    f = np.asarray(cdf(x), dtype=float)
    i = np.arange(1, m + 1, dtype=float)
    d_plus = np.max(i / m - f)
    d_minus = np.max(f - (i - 1.0) / m)
    return float(max(d_plus, d_minus, 0.0))


def ks_statistic_two_sample(a: Sequence[float], b: Sequence[float]) -> float:
    """sup_x |F_m(x) - G_n(x)| for two empirical distribution functions."""
    x = np.sort(np.asarray(a, dtype=float))
    y = np.sort(np.asarray(b, dtype=float))
    if x.size == 0 or y.size == 0:
        raise DomainError("KS statistic of an empty sample")
    grid = np.concatenate([x, y])
    fx = np.searchsorted(x, grid, side="right") / x.size
    fy = np.searchsorted(y, grid, side="right") / y.size
    return float(np.max(np.abs(fx - fy)))


def ks_critical_one_sample(n: int, alpha: float = 0.05) -> float:
    """Asymptotic one-sample KS critical value at level alpha."""
    return math.sqrt(-0.5 * math.log(alpha / 2.0)) / math.sqrt(n)


def ks_critical_two_sample(m: int, n: int, alpha: float = 0.05) -> float:
    """Asymptotic two-sample KS critical value at level alpha."""
    return math.sqrt(-0.5 * math.log(alpha / 2.0)) * math.sqrt((m + n) / (m * n))
