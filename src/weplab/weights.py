"""Weight functions on (0, 1), symmetric about 1/2.

A weight is ``w(x) = x^(-alpha) * L(x)`` on (0, 1/2] (reflected above 1/2)
with exponent ``alpha`` in [0, 1/2) and a slowly varying factor ``L`` from a
closed family: a positive constant, the log-power ``(1 + ln(1/x))^beta``, or
``exp(c * sqrt(ln(1/x)))``.  Closed enumeration keeps the monotonicity
window and the exponent analyzable; an unchecked escape hatch exists for
negative tests and is clearly flagged.  Checked or not, a constant factor
must be positive, so w > 0.

Construction validates, on a geometric grid inside the window (0, gamma),
that ``w`` is non-increasing and ``x w(x)^2`` is non-decreasing; an unchecked
weight gets the first violation as a warning instead of an error.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError
from .numerics import adaptive_panel, gl_panel, shortest_repr

SV_CONST = "const"
SV_LOGPOW = "logpow"
SV_EXPSQRT = "expsqrt"
SV_KINDS = (SV_CONST, SV_LOGPOW, SV_EXPSQRT)

# Validation grid: geometric on (gamma * VALIDATION_SPAN, gamma), cheap,
# catches every violation the closed family can produce.
VALIDATION_POINTS = 512
VALIDATION_SPAN = 1e-8


def _auto_gamma(alpha: float, sv_kind: str, sv_param: float) -> float:
    """Largest default window on which both monotonicity conditions hold.

    Derived per family from the sign of d/dx log(x w(x)^2); shrunk by a
    safety factor so the numeric validation passes away from the boundary.
    """
    if sv_kind == SV_CONST or (sv_kind == SV_LOGPOW and sv_param == 0.0):
        # both conditions hold on all of (0, 1/2); a constant weight keeps
        # the full half-interval so tail integrals run over (0, 1/2]
        return 0.5 if alpha == 0.0 else 0.25
    if sv_kind == SV_LOGPOW:
        # x w(x)^2 non-decreasing needs 1 + ln(1/x) >= 2 beta / (1 - 2 alpha)
        log_bound = 1.0 - 2.0 * sv_param / (1.0 - 2.0 * alpha)
    else:
        # x w(x)^2 non-decreasing needs sqrt(ln(1/x)) >= c / (1 - 2 alpha)
        try:
            log_bound = -((sv_param / (1.0 - 2.0 * alpha)) ** 2)
        except OverflowError:
            raise DomainError(f"exp-sqrt-log coefficient {sv_param!r} is too large: "
                              "its square overflows") from None
    gamma = min(0.25, 0.75 * math.exp(log_bound))
    if gamma == 0.0:
        raise DomainError(f"the weight's monotonicity window underflows: x w(x)^2 is "
                          f"non-decreasing only below x = exp({log_bound:.6g})")
    return gamma


@dataclass(frozen=True)
class WeightSpec:
    """Immutable weight function specification.

    ``alpha`` is the blow-up exponent at 0 (0 means a bounded weight),
    ``sv_kind``/``sv_param`` select the slowly varying factor, ``gamma`` is
    the monotonicity window bound.  ``unchecked=True`` skips construction
    validation and admits out-of-range exponents for negative tests.
    """

    alpha: float = 0.0
    sv_kind: str = SV_CONST
    sv_param: float = 1.0
    gamma: Optional[float] = None
    unchecked: bool = False

    def __post_init__(self):
        if self.sv_kind not in SV_KINDS:
            raise DomainError(f"unknown slowly varying kind {self.sv_kind!r}")
        if not (math.isfinite(self.alpha) and math.isfinite(self.sv_param)):
            raise DomainError("weight parameters must be finite")
        if self.sv_kind == SV_CONST and self.sv_param <= 0.0:  # w > 0, checked or not
            raise DomainError("constant factor must be positive")
        if not self.unchecked:
            if not (0.0 <= self.alpha < 0.5):
                raise DomainError("exponent must lie in [0, 1/2)")
            if self.sv_kind == SV_LOGPOW and self.sv_param < 0.0:
                raise DomainError("log-power exponent must be non-negative")
            if self.sv_kind == SV_EXPSQRT and self.sv_param <= 0.0:
                raise DomainError("exp-sqrt-log coefficient must be positive")
        if self.gamma is None:
            object.__setattr__(self, "gamma", 0.25 if self.unchecked else
                               _auto_gamma(self.alpha, self.sv_kind, self.sv_param))
        if not (0.0 < self.gamma <= 0.5):
            raise DomainError("gamma must lie in (0, 1/2]")
        # an unchecked weight only warns, and not at all where the grid would underflow
        if self.gamma * VALIDATION_SPAN < np.finfo(float).tiny:
            if not self.unchecked:
                raise DomainError(f"gamma {self.gamma!r} is too small for the validation grid")
        elif (violation := validate_monotonicity(self)) is not None:
            message = f"weight violates the monotonicity window at {violation}"
            if not self.unchecked:
                raise DomainError(message)
            warnings.warn(f"unchecked {message}")

    # -- evaluation ------------------------------------------------------

    def _slowly_varying(self, u: np.ndarray) -> np.ndarray:
        """The slowly varying factor at u, without folding about 1/2."""
        if self.sv_kind == SV_CONST:
            return np.full(u.shape, float(self.sv_param))
        if self.sv_kind == SV_LOGPOW:
            return (1.0 + np.log(1.0 / u)) ** self.sv_param
        return np.exp(self.sv_param * np.sqrt(np.log(1.0 / u)))

    def _base(self, u: np.ndarray) -> np.ndarray:
        """w on arguments already folded into (0, 1/2]."""
        u = np.asarray(u, dtype=float)
        sv = self._slowly_varying(u)
        if self.alpha == 0.0:
            return sv
        return u ** (-self.alpha) * sv

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x <= 0.0) or np.any(x >= 1.0):
            raise DomainError("weight argument must lie strictly inside (0, 1)")
        u = np.minimum(x, 1.0 - x)
        out = self._base(u)
        return float(out) if out.ndim == 0 else out

    def log_sw2(self, v):
        """l(v) = ln(s w(s)^2) at s = e^-v, from logarithms alone: s underflows past v = 745."""
        v = np.asarray(v, dtype=float)
        if self.sv_kind == SV_CONST:
            log_sv = math.log(self.sv_param)
        elif self.sv_kind == SV_LOGPOW:
            log_sv = self.sv_param * np.log1p(v)
        else:
            log_sv = self.sv_param * np.sqrt(v)
        return 2.0 * log_sv - (1.0 - 2.0 * self.alpha) * v

    def describe(self) -> str:
        alpha, param = shortest_repr(self.alpha), shortest_repr(self.sv_param)
        if self.sv_kind == SV_CONST and self.alpha == 0.0:
            return f"const:{param}"
        if self.sv_kind == SV_CONST and self.sv_param == 1.0:
            return f"pow:{alpha}"
        return f"pow:{alpha}:{self.sv_kind}:{param}"


def validate_monotonicity(w: WeightSpec) -> Optional[tuple[float, float, str]]:
    """Check w non-increasing and x w(x)^2 non-decreasing on (0, gamma).

    Uses a geometric grid of ``VALIDATION_POINTS`` on (gamma * VALIDATION_SPAN, gamma);
    returns the first violation (x_left, x_right, condition) instead of raising,
    or None.  A weight whose x w(x)^2 overflows double precision on the grid
    fails there.
    """
    xs = np.geomspace(w.gamma * VALIDATION_SPAN, w.gamma, VALIDATION_POINTS)
    # fold manually: the grid lies below 1/2 already
    with np.errstate(over="ignore", invalid="ignore"):
        wv = w._base(xs)
        xw2 = xs * wv * wv
    if not np.all(np.isfinite(xw2)):
        i = min(int(np.argmin(np.isfinite(xw2))), len(xs) - 2)
        return float(xs[i]), float(xs[i + 1]), "x*w^2 finite"
    slack = 1e-12
    for i in range(len(xs) - 1):
        if wv[i + 1] > wv[i] * (1.0 + slack):
            return float(xs[i]), float(xs[i + 1]), "w non-increasing"
        if xw2[i + 1] < xw2[i] * (1.0 - slack):
            return float(xs[i]), float(xs[i + 1]), "x*w^2 non-decreasing"
    return None


@dataclass(frozen=True)
class IntegralEntry:
    c: float
    finite: bool
    value: float      # inf when the integral diverges or exceeds the doubles
    error: float


def integral_condition(w: WeightSpec, c_values: Sequence[float],
                       tol: float = 1e-9) -> tuple[IntegralEntry, ...]:
    """Decide int_0^gamma s^-1 exp(-c / (s w(s)^2)) ds < inf per tested c > 0, one entry each.

    With v = ln(1/s) the integrand is exp(-c e^-l(v)), l = ``w.log_sw2`` =
    2 ln L - (1 - 2 alpha) v, so for every c the integral is finite exactly
    when l tends to -inf: when alpha < 1/2, or alpha = 1/2 and L tends to 0
    (a negative log-power or exp-sqrt-log parameter).  A divergent entry's
    value is inf.
    """
    if not tol > 0.0:
        raise DomainError("tolerance must be positive")
    if len(c_values) == 0:
        raise DomainError("need at least one c value")
    finite = w.alpha < 0.5 or (w.alpha == 0.5 and w.sv_kind != SV_CONST and w.sv_param < 0.0)
    entries = []
    for c in c_values:
        c = float(c)
        if not (0.0 < c < math.inf):
            raise DomainError("c values must be positive and finite")
        value, error = _tail_integral(w, c, tol) if finite else (math.inf, math.inf)
        entries.append(IntegralEntry(c, finite, value, error))
    return tuple(entries)


def _tail_integral(w: WeightSpec, c: float, tol: float) -> tuple[float, float]:
    """The finite integral as int f over v > ln(1/gamma), f = exp(-u), u = c e^-l; its error.

    Panels [a, b] of length 1, 2, 4, ... are each integrated to ``tol``
    relative to the sum so far plus the panel's own 20-point sum.  The sum
    stops at the first b where f(b) underflows, so K = u(b) > 745, and
    K (l(a) - l(b)) >= 1.  As u - K >= K (l(b) - l(v)) (e^x - 1 >= x), the rest
    is below e^-K D, D = int_b^inf exp(-K (l(b) - l(v))) dv.  For L constant,
    (1 + v)^beta or exp(kappa sqrt(v)):
    - with beta, kappa >= 0, l is concave: l(b) - l(v) >= (v - b)(l(a) - l(b)) /
      (b - a), so D <= (b - a) / (K (l(a) - l(b))) <= b - a;
    - with beta, kappa < 0, ln L falls: l(b) - l(v) >= (1 - 2 alpha)(v - b), so
      D <= 1 / (K (1 - 2 alpha)) for alpha < 1/2.  At alpha = 1/2, D is
      (1 + b) / (2 |beta| K - 1), where 2 |beta| K > K (l(a) - l(b)) / ln 2 > 1,
      or 2 sqrt(b) / q + 2 / q^2, q = 2 |kappa| K.
    So the rest is below e^-745 D.  A panel end past the doubles gives inf.
    """
    def f(v):
        return np.exp(-c * np.exp(-w.log_sw2(v)))

    lo, width, total, error = math.log(1.0 / w.gamma), 1.0, 0.0, 0.0
    with np.errstate(over="ignore"):  # u overflows where f is 0
        while math.isfinite(hi := lo + width):
            scale = max(total + gl_panel(f, lo, hi), np.finfo(float).tiny)
            value, err = adaptive_panel(f, lo, hi, tol * scale)
            total, error = total + value, error + err
            k = c * np.exp(-w.log_sw2(hi))
            if np.exp(-k) == 0.0 and (w.log_sw2(lo) - w.log_sw2(hi)) * k >= 1.0:
                return total, error
            lo, width = hi, 2.0 * width
    return math.inf, math.inf


def parse_weight(text: str, gamma: Optional[float] = None, unchecked: bool = False) -> WeightSpec:
    """Parse the CLI weight syntax, case-insensitively.

    Accepted forms: ``const:<v>``, ``pow:<alpha>``,
    ``pow:<alpha>:const:<c>``, ``pow:<alpha>:logpow:<beta>``,
    ``pow:<alpha>:expsqrt:<c>``.
    """
    parts = [p.strip() for p in text.strip().lower().split(":")]
    args = None
    try:
        if parts[0] == "const" and len(parts) == 2:
            args = (0.0, SV_CONST, float(parts[1]))
        elif parts[0] == "pow" and len(parts) == 2:
            args = (float(parts[1]), SV_CONST, 1.0)
        elif parts[0] == "pow" and len(parts) == 4 and parts[2] in SV_KINDS:
            args = (float(parts[1]), parts[2], float(parts[3]))
    except ValueError as exc:
        raise DomainError(f"bad numeric field in weight spec {text!r}: {exc}") from exc
    if args is None:
        raise DomainError(f"unrecognized weight spec {text!r}")
    # built outside the try, so its own DomainError (a ValueError) names the real problem
    return WeightSpec(*args, gamma, unchecked)
