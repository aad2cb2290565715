"""The reference functions of the proof-lemma and weight-family tests.

The paper's proofs use a weighted Wiener pseudometric d(x, y), the time
pseudometric rho(s, t) = |s - t|^(1/theta), the dyadic sums of the weight and
the inequality d_G0^2 <= 2 d^2 + 4 L rho^2 on the limit's intrinsic metric.
These are facts about every (X, w), not conditions one could fail, so
``weplab verify`` runs none of them and the package holds none of this code:
``tests/test_proof_lemmas.py`` checks the chaining and d_G0 bounds on the
bm-copula, ``tests/test_weights.py`` the dyadic sums of the weight family,
``tests/test_limits.py`` the facts about d and ``tests/test_models.py`` rho.
Not a test module itself: the tests import it from their own directory.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from weplab.errors import DomainError
from weplab.models import ProcessModel, joint_cdf_matrix
from weplab.weights import WeightSpec


def rho_metric(s, t, theta: float):
    """|s - t|^(1/theta); requires theta > 4."""
    if not theta > 4.0:
        raise DomainError("theta must exceed 4")
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    out = np.abs(s - t) ** (1.0 / theta)
    return float(out) if out.ndim == 0 else out


def weighted_wiener_distance(w: WeightSpec, x, y):
    """d(x, y) = sqrt(w(max)^2 |y - x| + min * (w(x) - w(y))^2)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    wx = np.asarray(w(x), dtype=float)
    wy = np.asarray(w(y), dtype=float)
    hi = np.where(x >= y, wx, wy)
    lo = np.minimum(x, y)
    d2 = hi * hi * np.abs(y - x) + lo * (wx - wy) ** 2
    out = np.sqrt(d2)
    return float(out) if out.ndim == 0 else out


def dyadic_sum(w: WeightSpec, theta: float, terms: int) -> float:
    """The partial sum of 1/w(2^-k theta)^2, k < terms, as a ratio to 1/w(theta)^2.

    Requires a nonzero exponent: for alpha = 0 the series diverges and the
    dyadic bound does not apply.
    """
    if w.alpha <= 0.0:
        raise DomainError("dyadic sum requires a nonzero blow-up exponent")
    if not (0.0 < theta < w.gamma):
        raise DomainError("theta must lie in (0, gamma)")
    if terms < 1:
        raise DomainError("need at least one term")
    if terms > 1024:
        raise DomainError("terms capped at 1024 (arguments underflow beyond)")
    k = np.arange(terms, dtype=float)
    args = theta * np.exp2(-k)
    if args[-1] <= 0.0:
        raise DomainError("theta * 2^-k underflowed; reduce terms")
    # a term whose w^2 overflows (for alpha near 1/2, w(2^-k theta)^2 passes the
    # largest double before 1,024 terms) is below 1 / DBL_MAX: it counts as 0
    wv = w._base(args)
    inv_sq = np.zeros(terms)
    fits = wv < np.sqrt(np.finfo(float).max)
    inv_sq[fits] = 1.0 / (wv[fits] * wv[fits])
    partial = float(np.sum(inv_sq))
    w_theta = float(w._base(np.asarray(theta)))
    return partial * w_theta * w_theta


def dg0_upper_bound_check(model: ProcessModel, w: WeightSpec, l_hat: float,
                          probes: Sequence[tuple[float, float, float, float]],
                          theta: float = 5.0, tol: float = 1e-6) -> Optional[tuple]:
    """(s, x) of the first probe (s, x, t, y) with d_{G0}^2 > 2 d^2(x, y) + 4 L rho^2, or None.

    d_{G0}^2 is computed from the closed-form joint CDF; the inequality is
    conditional on the supplied measured constant.
    """
    if l_hat < 0.0:
        raise DomainError("the measured constant must be non-negative")
    cells = sorted({cell for s, x, t, y in probes for cell in ((s, x), (t, y))})
    at = {cell: i for i, cell in enumerate(cells)}
    joint = joint_cdf_matrix(model, cells)
    for s, x, t, y in probes:
        wx, wy = float(w(x)), float(w(y))
        joint_st = joint[at[s, x], at[t, y]]
        dg0_sq = wx * wx * x + wy * wy * y - 2.0 * wx * wy * joint_st
        d = weighted_wiener_distance(w, x, y)
        rho = rho_metric(s, t, theta)
        if dg0_sq > 2.0 * d * d + 4.0 * l_hat * rho * rho + tol:
            return (float(s), float(x))
    return None
