"""Reference distribution functions with left limits and the randomized transform.

The randomized distributional transform ``F(x-) + (F(x) - F(x-)) v``
(Rüschendorf 2009) maps a draw from any distribution function to a uniform
variable once ``v`` is an independent U[0,1] randomizer.  Left limits are
computed analytically from atom bookkeeping, never by numeric limits, so the
indicator identities below hold exactly.

The package samples one law through it, the atomic model's uniform plus one
atom, inline in ``weplab.models``; the tests check that sampler against
``uniform_atom_mixture`` here bit for bit, and check the transform's order,
uniformity and indicator facts on the general ``DistFn``.  Not a test module
itself: the tests import it from their own directory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from weplab import parallel
from weplab.errors import DomainError
from weplab.numerics import ks_statistic_one_sample, std_normal_cdf


class NoSamplerError(Exception):
    """A df without a sampler for its continuous part was asked for draws."""


# Pass threshold coefficient for uniformity KS tests (roughly the 1% level).
UNIFORMITY_KS_COEFF = 1.63


@dataclass(frozen=True)
class DistFn:
    """``1 - sum(atom_masses)`` times the continuous df ``cdf_fn``, plus atoms.

    A df without atoms is continuous, F(x-) = F(x); the continuous part is
    absent (``cdf_fn`` is None) exactly when the atom masses sum to 1.
    ``sampler`` draws from the continuous part.
    """

    cdf_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    sampler: Optional[Callable[[int, np.random.Generator], np.ndarray]] = None
    atom_locations: tuple[float, ...] = ()
    atom_masses: tuple[float, ...] = ()
    name: str = "df"

    def __post_init__(self):
        locs = np.asarray(self.atom_locations, dtype=float)
        mass = np.asarray(self.atom_masses, dtype=float)
        if locs.size != mass.size:
            raise DomainError("need matching atom locations and masses")
        if np.any(np.diff(locs) <= 0):
            raise DomainError("atom locations must be strictly increasing")
        total = float(np.sum(mass))
        if np.any(mass <= 0) or total > 1.0 + 1e-12:
            raise DomainError("atom masses must be positive with sum at most 1")
        if (self.cdf_fn is None) != (abs(total - 1.0) <= 1e-12):
            raise DomainError("need a continuous part exactly when atom masses sum below 1")

    @property
    def strictly_increasing(self) -> bool:
        return not self.atom_masses

    @property
    def continuous_weight(self) -> float:
        return 1.0 - float(np.sum(self.atom_masses))

    def _cuts(self) -> np.ndarray:
        return np.concatenate([[0.0], np.cumsum(np.asarray(self.atom_masses, dtype=float))])

    def _value(self, x, side: str):
        x = np.asarray(x, dtype=float)
        if not self.atom_masses:
            return np.asarray(self.cdf_fn(x), dtype=float)
        step = self._cuts()[np.searchsorted(self.atom_locations, x, side=side)]
        if self.cdf_fn is None:
            return step
        return self.continuous_weight * np.asarray(self.cdf_fn(x), dtype=float) + step

    def cdf(self, x):
        return self._value(x, "right")

    def cdf_left(self, x):
        return self._value(x, "left")

    def sample(self, n, rng):
        """Draws; with atoms one selector draw comes first, then the continuous values."""
        sel = rng.random(n) if self.atom_masses else None
        if self.cdf_fn is None:
            out = np.empty(n)
        elif self.sampler is None:
            raise NoSamplerError(f"df {self.name!r} has no sampler")
        else:
            out = np.array(self.sampler(n, rng), dtype=float)
        if sel is None:
            return out
        cuts = self._cuts()
        if self.cdf_fn is None:
            cuts[-1] = 1.0  # a pure-atom df puts every selector on an atom
        for j, loc in enumerate(self.atom_locations):
            out[(sel >= cuts[j]) & (sel < cuts[j + 1])] = loc
        return out


def uniform_df() -> DistFn:
    """U(0, 1) distribution function."""
    return DistFn(lambda x: np.clip(x, 0.0, 1.0), lambda n, rng: rng.random(n), name="uniform")


def normal_df() -> DistFn:
    """N(0, 1) distribution function Phi."""
    return DistFn(lambda x: std_normal_cdf(np.asarray(x, dtype=float)),
                  lambda n, rng: rng.standard_normal(n), name="normal(1)")


def point_mass(loc: float) -> DistFn:
    return DistFn(atom_locations=(float(loc),), atom_masses=(1.0,), name="point")


def uniform_atom_mixture(mass: float, loc: float) -> DistFn:
    """(1 - mass) U(0,1) plus an atom of the given mass at loc."""
    if not (0.0 < mass < 1.0):
        raise DomainError("atom mass must lie in (0, 1)")
    return replace(uniform_df(), atom_locations=(float(loc),), atom_masses=(float(mass),),
                   name=f"uniform+atom({mass:g}@{loc:g})")


def dist_transform(F: DistFn, x, v):
    """F(x-) + (F(x) - F(x-)) v, exactly; equals F(x) for continuous F."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if np.any(v < 0.0) or np.any(v > 1.0):
        raise DomainError("randomizer values must lie in [0, 1]")
    left = F.cdf_left(x)
    right = F.cdf(x)
    out = left + (right - left) * v
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class OrderCheckReport:
    passed: bool
    # (clause, x, y, v) for each violated probe
    failures: tuple[tuple[str, float, float, float], ...]


def check_order_properties(F: DistFn, probe_pairs: Sequence[tuple[float, float, float]]) -> OrderCheckReport:
    """Verify the order properties of the transform on probe triples (x, y, v).

    Checked clauses: the transform never exceeds F; F(x) <= transform(y) for
    x < y, strictly so for strictly increasing F; and monotonicity of the
    transform in its argument at fixed v.
    """
    failures = []
    tol = 1e-12
    for x, y, v in probe_pairs:
        tx = float(dist_transform(F, x, v))
        ty = float(dist_transform(F, y, v))
        fx = float(np.asarray(F.cdf(x)))
        if tx > fx + tol:
            failures.append(("transform<=F", x, y, v))
        if x < y and fx > ty + tol:
            failures.append(("F(x)<=transform(y)", x, y, v))
        if x <= y and tx > ty + tol:
            failures.append(("transform monotone", x, y, v))
        if x < y and F.strictly_increasing and not (fx < ty):
            failures.append(("strict F(x)<transform(y)", x, y, v))
    return OrderCheckReport(not failures, tuple(failures))


@dataclass(frozen=True)
class UniformityResult:
    ks: float
    threshold: float
    passed: bool
    n: int
    seed: int


def uniformity_test(F: DistFn, n: int, seed: int, v_constant: Optional[float] = None) -> UniformityResult:
    """KS test of transform(X, V) against U(0, 1).

    X and V come from independent substreams of the same seed.  Passing
    ``v_constant`` freezes the randomizer (a deliberately broken transform,
    for negative controls).
    """
    if n < 100:
        raise DomainError("uniformity test needs n >= 100")
    rng_x = parallel.derive_rng(seed, parallel.STREAM_PATHS)
    rng_v = parallel.derive_rng(seed, parallel.STREAM_RANDOMIZER)
    x = F.sample(n, rng_x)
    if v_constant is None:
        v = rng_v.random(n)
    else:
        if not (0.0 <= v_constant <= 1.0):
            raise DomainError("v_constant must lie in [0, 1]")
        v = np.full(n, float(v_constant))
    u = dist_transform(F, x, v)
    ks = ks_statistic_one_sample(u, lambda t: np.clip(t, 0.0, 1.0))
    threshold = UNIFORMITY_KS_COEFF / math.sqrt(n)
    return UniformityResult(ks, threshold, ks < threshold, n, seed)


def copula_indicator_identity(F: DistFn, samples: Sequence[tuple[float, float]],
                              y_probes: Sequence[float]) -> int:
    """Count probes where 1{x <= y} differs from 1{transform(x,v) <= F(y)}.

    Requires a strictly increasing df; with atoms the identity only holds
    almost surely and the check is rejected.
    """
    if not F.strictly_increasing:
        raise DomainError("identity check requires a strictly increasing df")
    pairs = np.asarray(samples, dtype=float)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise DomainError("samples must be (x, v) pairs")
    xs = pairs[:, 0]
    vs = pairs[:, 1]
    ys = np.asarray(y_probes, dtype=float)
    u = dist_transform(F, xs, vs)
    fy = np.asarray(F.cdf(ys), dtype=float)
    left = xs[:, None] <= ys[None, :]
    right = u[:, None] <= fy[None, :]
    return int(np.sum(left != right))
