"""Level metric and the Gaussian limit model."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weplab.errors import DomainError, IndefiniteCovarianceError
from weplab.limits import (LimitModel, _factor_with_jitter, build_limit_model, limit_covariance,
                           sample_limit_field)
from weplab.models import parse_model
from weplab.weights import parse_weight

from lemma_reference import dg0_upper_bound_check, weighted_wiener_distance

PINNED_SEED = 20260810

w_const = parse_weight("const:1")
w_quarter = parse_weight("pow:0.25")


class TestDistance:
    def test_constant_weight(self):
        assert weighted_wiener_distance(w_const, 0.2, 0.3) == pytest.approx(
            math.sqrt(0.1), rel=1e-12)

    def test_identity(self):
        assert weighted_wiener_distance(w_quarter, 0.37, 0.37) == 0.0

    def test_hand_computed_power_weight(self):
        # w(0.16)^2 * 0.12 + 0.04 * (w(0.04) - w(0.16))^2 with w = x^(-1/4)
        d = weighted_wiener_distance(w_quarter, 0.04, 0.16)
        target = math.sqrt(2.5 * 0.12 + 0.04 * (0.04 ** -0.25 - 0.16 ** -0.25) ** 2)
        assert d == pytest.approx(target, rel=1e-12)
        assert d == pytest.approx(0.56317, abs=5e-6)

    def test_symmetry(self):
        assert weighted_wiener_distance(w_quarter, 0.1, 0.2) == weighted_wiener_distance(
            w_quarter, 0.2, 0.1)

    @given(st.floats(min_value=0.001, max_value=0.999),
           st.floats(min_value=0.001, max_value=0.999),
           st.floats(min_value=0.001, max_value=0.999))
    @settings(max_examples=200)
    def test_triangle_inequality(self, x, y, z):
        d = lambda a, b: weighted_wiener_distance(w_quarter, a, b)
        assert d(x, z) <= d(x, y) + d(y, z) + 1e-9


# the weight families: a constant, pure powers, and both slowly varying factors
FAMILIES = ["const:1", "const:3", "pow:0.1", "pow:0.25", "pow:0.45", "pow:0:logpow:2",
            "pow:0.3:logpow:1", "pow:0.25:expsqrt:1", "pow:0.2:expsqrt:0.5"]


class TestDistanceFacts:
    """Two facts about d for which a sampled check could never fail.

    For x <= y, x w(x) - y w(y) = x (w(x) - w(y)) - (y - x) w(y), so by
    (p + q)^2 <= 2 p^2 + 2 q^2 its square is at most 2 d(x, y)^2 for every
    positive w.  For x <= y <= z, d(x, z)^2 - d(x, y)^2 = [z w(z)^2 - y w(y)^2]
    + 2 x w(x) [w(y) - w(z)], so d(x, .) is non-decreasing exactly where
    x w(x)^2 is non-decreasing and w non-increasing: the two conditions that
    construction validates.
    """

    unit = st.floats(min_value=1e-9, max_value=1.0 - 1e-9)

    @given(unit, unit, st.floats(min_value=1e-6, max_value=1e6),
           st.floats(min_value=1e-6, max_value=1e6))
    @settings(max_examples=200)
    def test_drift_bound_for_any_positive_weight(self, x, y, wx, wy):
        wy = wx if x == y else wy
        w = lambda v: wx if float(v) == x else wy
        drift = abs(x * wx - y * wy)
        assert drift <= math.sqrt(2.0) * weighted_wiener_distance(w, x, y) * (1.0 + 1e-12)

    @given(st.sampled_from(FAMILIES), st.lists(st.floats(min_value=1e-12, max_value=1.0),
                                               min_size=3, max_size=3))
    @settings(max_examples=200)
    def test_monotone_d_identity(self, spec, fractions):
        w = parse_weight(spec)
        x, y, z = sorted(f * w.gamma for f in fractions)
        wx, wy, wz = (float(w(v)) for v in (x, y, z))
        d = lambda a, b: weighted_wiener_distance(w, a, b)
        terms = (z * wz * wz, -y * wy * wy, 2.0 * x * wx * wy, -2.0 * x * wx * wz)
        assert abs(d(x, z) ** 2 - d(x, y) ** 2 - sum(terms)) <= 1e-12 * sum(map(abs, terms))

    @pytest.mark.parametrize("spec", FAMILIES)
    def test_checked_weight_is_monotone_on_dense_triples(self, spec):
        w = parse_weight(spec)
        xs = np.geomspace(1e-9 * w.gamma, w.gamma, 60)
        x, y, z = np.meshgrid(xs, xs, xs, indexing="ij")
        ordered = (x <= y) & (y <= z)
        x, y, z = x[ordered], y[ordered], z[ordered]
        assert np.all(weighted_wiener_distance(w, x, y)
                      <= weighted_wiener_distance(w, x, z) * (1.0 + 1e-12))


class TestLimitModel:
    def test_single_cell_variance(self):
        cov = limit_covariance(parse_model("bm-copula"), [(1.5, 0.3)], w_const)
        assert cov[0, 0] == pytest.approx(0.21, abs=1e-12)

    def test_comonotone_two_levels(self):
        cov = limit_covariance(parse_model("dependent"), [(1.5, 0.2), (1.5, 0.4)], w_const)
        assert cov[0, 1] == pytest.approx(0.12, abs=1e-12)

    def test_cross_time_sheppard_value(self):
        cov = limit_covariance(parse_model("bm-copula"), [(1.0, 0.5), (2.0, 0.5)], w_const)
        assert cov[0, 1] == pytest.approx(0.125, abs=1e-8)

    @pytest.mark.parametrize("spec", ["bm-copula", "dependent", "iid-time", "atomic:0.5@0.5"])
    def test_exactly_symmetric(self, spec):
        # the joint is written from one value per pair and every product commutes
        cells = [(t, y) for t in (1.0, 1.5, 2.0) for y in (0.1, 0.3, 0.5, 0.8)]
        cov = limit_covariance(parse_model(spec), cells, w_quarter)
        assert np.array_equal(cov, cov.T)

    def test_factor_residual(self):
        cells = [(t, y) for t in (1.0, 1.5, 2.0) for y in (0.2, 0.5, 0.8)]
        lm = build_limit_model(parse_model("bm-copula"), cells, w_quarter)
        cov = limit_covariance(parse_model("bm-copula"), cells, w_quarter)
        resid = np.max(np.abs(lm.factor @ lm.factor.T - (cov + lm.jitter * np.eye(lm.size))))
        assert resid <= 1e-8 * (1.0 + np.max(np.abs(cov)))

    def test_sampling_covariance(self):
        lm = build_limit_model(parse_model("bm-copula"), [(1.5, 0.3)], w_const)
        draws = np.concatenate(list(sample_limit_field(lm, 100_000, PINNED_SEED)))
        var = float(np.var(draws, ddof=1))
        se = math.sqrt(2.0 / (draws.shape[0] - 1)) * 0.21
        assert abs(var - 0.21) <= 4 * se

    def test_perfectly_correlated_cells(self):
        lm = build_limit_model(parse_model("dependent"), [(1.0, 0.3), (2.0, 0.3)], w_const)
        draws = np.concatenate(list(sample_limit_field(lm, 50, 1)))
        assert np.max(np.abs(draws[:, 0] - draws[:, 1])) <= 1e-12

    def test_domain(self):
        # joint_cdf_matrix checks the levels and times of every cell
        for cells in ([], [(1.0, 0.3), (1.5, 1.0)], [(1.0, float("nan"))], [(0.0, 0.3)]):
            with pytest.raises(DomainError):
                build_limit_model(parse_model("atomic:0.5@0.5"), cells, w_const)

    def test_zero_matrix_gives_zero_samples(self):
        factor, jitter = _factor_with_jitter(np.zeros((2, 2)))
        assert jitter == 0.0
        assert np.array_equal(factor, np.zeros((2, 2)))

    def test_indefinite_covariance_raises(self):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
        with pytest.raises(IndefiniteCovarianceError):
            _factor_with_jitter(bad)

    def test_stored_factor_is_frozen_float64(self):
        lm = LimitModel(((1.0, 0.3), (1.5, 0.3)), np.eye(2, dtype=np.float32), 0.0)
        assert lm.factor.dtype == np.float64
        with pytest.raises(ValueError):
            lm.factor[0, 0] = 2.0

    def test_worker_invariance(self):
        lm = build_limit_model(parse_model("bm-copula"),
                               [(1.0, 0.2), (1.5, 0.5), (2.0, 0.8)], w_const)
        a = np.concatenate(list(sample_limit_field(lm, 10_000, 3, workers=1)))
        b = np.concatenate(list(sample_limit_field(lm, 10_000, 3, workers=8)))
        assert np.array_equal(a, b)


class TestDg0Upper:
    def test_coincident_points(self):
        assert dg0_upper_bound_check(parse_model("bm-copula"), w_const, 0.0,
                                     [(1.5, 0.3, 1.5, 0.3)]) is None

    def test_equal_times_factor_two_slack(self):
        # at s = t the squared distance equals d^2 exactly, below 2 d^2
        probes = [(1.5, x, 1.5, y) for x in (0.1, 0.4) for y in (0.2, 0.7)]
        assert dg0_upper_bound_check(parse_model("bm-copula"), w_const, 0.0, probes) is None

    def test_bm_probe_grid(self):
        ts = np.linspace(1, 2, 5)
        probes = [(s, x, t, y) for s in ts for t in ts
                  for x in (0.2, 0.5, 0.8) for y in (0.2, 0.5, 0.8)]
        # measured constant from the acceptance-scale sweep is ~0.46
        assert dg0_upper_bound_check(parse_model("bm-copula"), w_const, 0.5, probes) is None

    def test_returns_first_violating_probe(self):
        # with no crossing constant the bound fails at the first pair of distinct times
        ts = np.linspace(1, 2, 5)
        probes = [(s, x, t, y) for s in ts for t in ts
                  for x in (0.2, 0.5, 0.8) for y in (0.2, 0.5, 0.8)]
        assert dg0_upper_bound_check(parse_model("bm-copula"), w_quarter, 0.0,
                                     probes) == (1.0, 0.2)
