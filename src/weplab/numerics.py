"""Shared numerics.

Phi and its inverse as the Cephes library computes them, the standard
normal density/CDF/quantile, an array-valued bivariate normal CDF
built on the Drezner-Wesolowsky single-integral reduction with
Gauss-Legendre nodes, an adaptive quadrature for integrands with an endpoint
singularity at zero, Kolmogorov-Smirnov statistics, and the round-trip
text of a float that specs describe themselves with.

All functions are pure and reentrant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError

_TWO_PI = 2.0 * math.pi
_INV_SQRT_2PI = 1.0 / math.sqrt(_TWO_PI)


def _libm(fn, values: np.ndarray) -> np.ndarray:
    """``fn`` applied to each element as a Python float.

    ``math.exp``, ``math.asin`` and ``float ** 2`` call the C library, and
    numpy's vector exp, arcsin and square differ from it in the last bit on
    some arguments; going through Python floats keeps those bits.
    """
    return np.array(list(map(fn, values.tolist())), dtype=float)


# Coefficients of the Cephes (Moshier 1989) rational approximations behind
# ndtr and ndtri, highest degree first.  erf(x) is x T(x^2)/U(x^2) for
# |x| <= 1; erfc(z) is exp(-z^2) P(z)/Q(z) for 1 <= z < 8 and exp(-z^2)
# R(z)/S(z) beyond.
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
# ndtri: P0/Q0 for |p - 1/2| <= 1/2 - exp(-2); in the tails, with
# x = sqrt(-2 log p), P1/Q1 for x < 8 and P2/Q2 beyond
_NDTRI_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
             1.39312609387279679503e1, -1.23916583867381258016e0)
_NDTRI_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
             -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
             1.59056225126211695515e1, -1.18331621121330003142e0)
_NDTRI_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
             4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_NDTRI_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
             1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
             -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_NDTRI_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
             1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
             3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_NDTRI_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
             2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
             2.89247864745380683936e-6, 6.79019408009981274425e-9)
_SQRT1_2 = 0.70710678118654752440
_MAXLOG = 7.09782712893383996843e2
_EXP_M2 = 0.13533528323661269189
_SQRT_2PI = 2.50662827463100050242


def _polevl(x, coefs):
    """Horner's rule; one rounding per multiply and per add, as in C without FMA."""
    out = coefs[0]
    for c in coefs[1:]:
        out = out * x + c
    return out


def _erf(x):
    """Cephes erf for |x| <= 1."""
    return x * _polevl(x * x, _ERF_T) / _polevl(x * x, _ERF_U)


def ndtr(a) -> np.ndarray:
    """Phi(a) elementwise, bit for bit the Cephes ``ndtr`` that scipy.special uses.

    With x = a / sqrt(2) and z = |x|: 1/2 + erf(x)/2 for z < 1/sqrt(2), else
    erfc(z)/2 reflected for x > 0.  NaN stays NaN; -inf and inf give 0 and 1.
    """
    a = np.asarray(a, dtype=float)
    x = a.ravel() * _SQRT1_2
    z = np.abs(x)
    out = np.where(np.isnan(x), x, 0.0)
    central = z < _SQRT1_2
    out[central] = 0.5 + 0.5 * _erf(x[central])
    near = ~central & (z < 1.0)
    out[near] = 0.5 * (1.0 - _erf(z[near]))
    # erfc stays 0 where -z^2 < -MAXLOG, which holds from z = 27 on
    far = (z >= 1.0) & (z < 27.0)
    zf = z[far]
    arg = -zf * zf
    live = arg >= -_MAXLOG
    far[far] = live
    zf = zf[live]
    top = np.where(zf < 8.0, _polevl(zf, _ERFC_P), _polevl(zf, _ERFC_R))
    bottom = np.where(zf < 8.0, _polevl(zf, _ERFC_Q), _polevl(zf, _ERFC_S))
    out[far] = 0.5 * (_libm(math.exp, arg[live]) * top / bottom)
    upper = ~central & (x > 0.0)
    out[upper] = 1.0 - out[upper]
    return out.reshape(a.shape)


def _ndtri(y: float) -> float:
    """Cephes ndtri of one float, each step as its C code rounds it."""
    if y == 0.0:
        return -math.inf
    if y == 1.0:
        return math.inf
    if not 0.0 < y < 1.0:
        return math.nan
    upper = y > 1.0 - _EXP_M2
    if upper:
        y = 1.0 - y
    if y > _EXP_M2:
        y -= 0.5
        y2 = y * y
        return (y + y * (y2 * _polevl(y2, _NDTRI_P0) / _polevl(y2, _NDTRI_Q0))) * _SQRT_2PI
    x = math.sqrt(-2.0 * math.log(y))
    z = 1.0 / x
    p, q = (_NDTRI_P1, _NDTRI_Q1) if x < 8.0 else (_NDTRI_P2, _NDTRI_Q2)
    x = x - math.log(x) / x - z * _polevl(z, p) / _polevl(z, q)
    return x if upper else -x


def ndtri(p) -> np.ndarray:
    """Phi^-1(p) elementwise, bit for bit the Cephes ``ndtri`` that scipy.special uses.

    0 and 1 give -inf and inf, anything outside [0, 1] NaN.  Evaluated per
    element in Python floats: only level-sized vectors reach it.
    """
    p = np.asarray(p, dtype=float)
    return _libm(_ndtri, p.ravel()).reshape(p.shape)


def std_normal_pdf(y):
    """phi(y) = (2*pi)^(-1/2) exp(-y^2/2)."""
    y = np.asarray(y, dtype=float)
    out = _INV_SQRT_2PI * np.exp(-0.5 * y * y)
    return float(out) if out.ndim == 0 else out


def std_normal_cdf(y):
    """Phi(y), accurate to a few ulps over the full double range."""
    y = np.asarray(y, dtype=float)
    out = ndtr(y)
    return float(out) if out.ndim == 0 else out


def std_normal_quantile(p):
    """Inverse of Phi.

    ``ndtri`` polished by two Newton steps on the CDF, which
    keeps |Phi(result) - p| at the 1e-12-relative level without tail
    cancellation.
    """
    arr = np.asarray(p, dtype=float)
    if np.any(~np.isfinite(arr)) or np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise DomainError("quantile argument must lie strictly inside (0, 1)")
    y = ndtri(arr)
    for _ in range(2):
        pdf = _INV_SQRT_2PI * np.exp(-0.5 * y * y)
        safe = pdf > 0.0
        step = np.where(safe, (ndtr(y) - arr) / np.where(safe, pdf, 1.0), 0.0)
        y = y - np.clip(step, -1.0, 1.0)
    return float(y) if y.ndim == 0 else y


# Gauss-Legendre nodes on [-1, 1] and their weights, per order; the order is
# chosen by |rho| as in the classic Drezner-Wesolowsky/Genz scheme.  Each
# table holds the positive nodes, ascending, with their weights: the bits
# numpy 2.4.6's ``leggauss`` returns, which makes both halves exact mirror
# images.  A table spares every run numpy.polynomial's eigensolve and its RSS.
_LEGGAUSS_HALF = {
    6: ((0.2386191860831969, 0.6612093864662645, 0.9324695142031519),
        (0.46791393457269104, 0.3607615730481387, 0.17132449237917027)),
    12: ((0.1252334085114689, 0.3678314989981802, 0.5873179542866175, 0.7699026741943047,
          0.9041172563704748, 0.9815606342467192),
         (0.2491470458134027, 0.2334925365383546, 0.20316742672306573, 0.16007832854334642,
          0.10693932599531907, 0.04717533638651141)),
    20: ((0.07652652113349734, 0.22778585114164507, 0.37370608871541955, 0.5108670019508271,
          0.636053680726515, 0.7463319064601508, 0.8391169718222188, 0.912234428251326,
          0.9639719272779138, 0.993128599185095),
         (0.15275338713072628, 0.14917298647260424, 0.1420961093183824, 0.1316886384491769,
          0.1181945319615186, 0.1019301198172407, 0.08327674157670471, 0.06267204833410879,
          0.040601429800386446, 0.017614007139150893)),
}


def _mirrored(nodes, weights) -> tuple[np.ndarray, np.ndarray]:
    """The whole rule, ascending, from its positive half; read-only, as every call shares it."""
    x, w = np.array(nodes), np.array(weights)
    x, w = np.concatenate([-x[::-1], x]), np.concatenate([w[::-1], w])
    x.flags.writeable = w.flags.writeable = False
    return x, w


_LEGGAUSS = {order: _mirrored(*half) for order, half in _LEGGAUSS_HALF.items()}


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
    out[one] = ndtr(np.minimum(h[one], k[one]))
    minus = rho == -1.0
    p = ndtr(h[minus]) + ndtr(k[minus]) - 1.0
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
    out[zero] = ndtr(-h[zero]) * ndtr(-k[zero])
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
    x, w = _LEGGAUSS[order]
    hk = h * k
    hs = (h * h + k * k) / 2.0
    asr = _libm(math.asin, r)
    sn = np.sin(asr[:, None] * (1.0 + x) / 2.0)
    # a row sum adds each element's nodes in the same order as a 1-d np.sum
    bvn = np.sum(w * np.exp((sn * hk[:, None] - hs[:, None]) / (1.0 - sn * sn)), axis=1)
    return bvn * asr / (2.0 * _TWO_PI) + ndtr(-h) * ndtr(-k)


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
    sp = math.sqrt(_TWO_PI) * ndtr(-b / a)
    bvn = np.where(live, bvn - _exp_where(live, -hk / 2.0) * sp * b
                   * (1.0 - c * bs * (1.0 - d * bs / 5.0) / 3.0), bvn)
    a = a / 2.0
    # a node's xs and rs depend on r alone: square once per distinct r
    _, first, same_r = np.unique(r, return_index=True, return_inverse=True)
    x, w = _LEGGAUSS[20]
    for xi, wi in zip(x, w):
        xs = _libm(_square, a[first] * (xi + 1.0))[same_r]
        rs = np.sqrt(1.0 - xs)
        asr = -(bs / xs + hk) / 2.0
        live = asr > -100.0
        sp = 1.0 + c * xs * (1.0 + d * xs)
        ep = _exp_where(live, -hk * (1.0 - rs) / (2.0 * (1.0 + rs))) / rs
        bvn = np.where(live, bvn + a * wi * _exp_where(live, asr) * (ep - sp), bvn)
    bvn = -bvn / _TWO_PI
    below = np.where(k > h, -bvn + (ndtr(k) - ndtr(h)), -bvn)
    return np.where(r > 0.0, bvn + ndtr(-np.maximum(h, k)), below)


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
    x, w = _LEGGAUSS[_PANEL_ORDER]
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
                return QuadratureResult(total, err + DIVERGENCE_WINDOW * max(window), False)
        if len(contribs) >= 2:
            c_prev, c_last = contribs[-2], contribs[-1]
            if c_last == 0.0 and c_prev == 0.0:
                return QuadratureResult(total, err, True)
            if c_prev > 0.0 and c_last < c_prev:
                q = min(c_last / c_prev, 0.9)
                tail = c_last * q / (1.0 - q)
                if tail < tol / 2.0:
                    return QuadratureResult(total, err + tail, True)
        if hi < 1e-300:
            break
    return QuadratureResult(total, err + (contribs[-1] if contribs else 0.0), False)


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


def shortest_repr(x: float) -> str:
    """The shortest text that parses back to x, without a trailing ``.0``: 1, 0.25, 1e-05."""
    return repr(float(x)).removesuffix(".0")
