"""Level metric and the Gaussian limit model."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weplab import limits, models, parallel
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


# the benchmark's clt sup lattice (17 x 9 cells, full rank), and a dependent one of rank 3
FULL_RANK = ("bm-copula", [1.0 + i / 16.0 for i in range(17)], [i / 10 for i in range(1, 10)])
RANK_THREE = ("dependent", [1.0, 1.25, 1.5, 1.75, 2.0], [0.2, 0.5, 0.8])


class TestLimitBits:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("lattice", [FULL_RANK, RANK_THREE], ids=["bm-copula", "dependent"])
    def test_samples_are_the_draws_times_a_contiguous_copy(self, lattice, workers):
        # the product with the view factor.T has the bits of the one with its copy,
        # over replications that span two seeding blocks
        spec, times, levels = lattice
        lm = build_limit_model(parse_model(spec), [(t, y) for t in times for y in levels],
                               w_quarter)
        assert np.linalg.matrix_rank(lm.factor) == (lm.size if spec == "bm-copula"
                                                    else len(levels))
        reps = parallel.BLOCK_SIZE + 5
        blocks = parallel.iter_blocks(reps)
        words = parallel.seed_words(PINNED_SEED, [(parallel.STREAM_LIMIT, j) for j, _, _ in blocks])
        Lt = lm.factor.T.copy()
        expected = np.concatenate([
            parallel.rng_from_words(words[j]).standard_normal((stop - start, lm.size)) @ Lt
            for j, start, stop in blocks])
        got = np.concatenate(list(sample_limit_field(lm, reps, PINNED_SEED, workers)))
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))

    def test_factor_turns_column_major_in_place(self):
        # sampling multiplies by factor.T, which is then C-contiguous like the copy above
        a = np.random.default_rng(PINNED_SEED).standard_normal((7, 7))
        b = a.copy()
        f = limits._column_major(b)
        assert f.flags.f_contiguous and np.shares_memory(f, b)
        assert np.array_equal(f.view(np.uint64), a.view(np.uint64))
        lm = build_limit_model(parse_model("bm-copula"), [(1.0, 0.2), (2.0, 0.5)], w_const)
        assert lm.factor.T.flags.c_contiguous


class TestLimitMemory:
    """The limit path's working set, by tracemalloc, on 50 x 10 = 500 dependent cells."""

    cells = [(t, y) for t in np.linspace(1, 2, 50) for y in np.linspace(0.05, 0.95, 10)]

    def test_build_holds_two_k_by_k_arrays(self):
        # the joint and the covariance, then the covariance and its factor with the
        # residual check's block of 256 rows and O(k) vectors: three k x k arrays at
        # once read about 3.1 k^2 x 8
        k = len(self.cells)
        tracemalloc.start()
        try:
            build_limit_model(parse_model("dependent"), self.cells, w_quarter)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * k * k * 8 + (256 + 64) * k * 8

    def test_sampling_holds_no_k_by_k_array(self):
        # 50 replications hold the draws and their product, 2 x 50 x k x 8 bytes;
        # a copy of factor.T would add k x k x 8
        lm = build_limit_model(parse_model("dependent"), self.cells, w_quarter)
        k = lm.size
        tracemalloc.start()
        try:
            for _block in sample_limit_field(lm, 50, PINNED_SEED):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < k * k * 8 // 2

    def test_oversized_lattice_is_refused_before_allocation(self):
        # the bound is one k x k float64 matrix of 2 GiB, and admits the full 129 x 33 lattice
        k = models.MAX_CELLS
        assert 8 * k * k == 2 << 30 and 129 * 33 <= k
        cells = [(1.0 + i, 0.5) for i in range(k + 1)]
        with pytest.raises(DomainError, match="16,385 cells need a 2.00 GiB joint matrix"):
            limit_covariance(parse_model("bm-copula"), cells, w_const)


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
