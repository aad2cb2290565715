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
from .numerics import shortest_repr, singular_quadrature

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
    if sv_kind == SV_CONST:
        # both conditions hold on all of (0, 1/2); a constant weight keeps
        # the full half-interval so tail integrals run over (0, 1/2]
        return 0.5 if alpha == 0.0 else 0.25
    if sv_kind == SV_LOGPOW:
        if sv_param == 0.0:
            return 0.5 if alpha == 0.0 else 0.25
        # x w(x)^2 non-decreasing needs 1 + ln(1/x) >= 2 beta / (1 - 2 alpha)
        bound = math.exp(1.0 - 2.0 * sv_param / (1.0 - 2.0 * alpha))
        return min(0.25, 0.75 * bound)
    if sv_kind == SV_EXPSQRT:
        # x w(x)^2 non-decreasing needs sqrt(ln(1/x)) >= c / (1 - 2 alpha)
        try:
            bound = math.exp(-((sv_param / (1.0 - 2.0 * alpha)) ** 2))
        except OverflowError:
            raise DomainError(f"exp-sqrt-log coefficient {sv_param!r} is too large: "
                              "its square overflows") from None
        return min(0.25, 0.75 * bound)
    raise DomainError(f"unknown slowly varying kind {sv_kind!r}")


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
    value: float      # the integral when finite, else the partial sum
    error: float


def integral_condition(w: WeightSpec, c_values: Sequence[float],
                       tol: float = 1e-9) -> tuple[IntegralEntry, ...]:
    """Classify int_0^gamma s^-1 exp(-c / (s w(s)^2)) ds per tested c > 0, one entry each.

    A non-convergent quadrature gives an entry that is not finite; it never
    raises.
    """
    if len(c_values) == 0:
        raise DomainError("need at least one c value")
    entries = []
    for c in c_values:
        c = float(c)
        if not (0.0 < c < math.inf):
            raise DomainError("c values must be positive and finite")

        def integrand(s, _c=c):
            s = np.asarray(s, dtype=float)
            wv = w._base(s)
            # near a subnormal s the integrand is inf, the right value when alpha > 1/2
            with np.errstate(over="ignore"):
                return np.exp(-_c / (s * wv * wv)) / s

        res = singular_quadrature(integrand, w.gamma, tol)
        finite = bool(res.converged and res.error < tol)
        entries.append(IntegralEntry(c, finite, res.value, res.error))
    return tuple(entries)


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
