"""Process models: marginals, joint CDFs, determinism, envelope statistics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weplab.errors import DomainError, UnsupportedModelError
from weplab.models import (TimeGrid, envelope_statistics, joint_cdf, joint_cdf_matrix,
                           map_brownian_blocks, map_path_blocks, parse_model, rho_metric,
                           to_uniform)
from weplab.numerics import (bvn_cdf, ks_statistic_one_sample, std_normal_cdf,
                             std_normal_quantile)

PINNED_SEED = 20260810

uniform_cdf = lambda u: np.clip(u, 0.0, 1.0)


def sample(spec, grid, n, seed, workers=1):
    """All n uniform paths as an (n x grid) matrix, stacked from the streamed blocks."""
    model = parse_model(spec)
    return np.vstack(map_path_blocks(model, grid, n, seed, lambda v: to_uniform(model, v),
                                     workers))


class TestTimeGrid:
    def test_uniform_default(self):
        g = TimeGrid.uniform()
        assert g.a == 1.0 and g.b == 2.0 and len(g) == 129

    def test_requires_positive_start(self):
        with pytest.raises(DomainError):
            TimeGrid(np.array([0.0, 1.0]))
        with pytest.raises(DomainError):
            TimeGrid(np.array([1.0, 1.0]))

    def test_refined_doubles_density(self):
        g = TimeGrid.uniform(1, 2, 9)
        r = g.refined()
        assert len(r) == 17
        assert r.a == g.a and r.b == g.b
        assert set(np.round(g.points, 12)).issubset(set(np.round(r.points, 12)))

    def test_index_and_ball(self):
        g = TimeGrid.uniform(1, 2, 129)
        assert g.index_of(1.5) == 64
        ball = g.ball_indices(1.5, 2.5 / 128)
        assert list(ball) == [62, 63, 64, 65, 66]
        with pytest.raises(DomainError):
            g.index_of(1.5001)


class TestModelParsing:
    def test_kinds(self):
        assert parse_model("bm-copula").kind == "bm-copula"
        assert parse_model("DEPENDENT").kind == "dependent"
        m = parse_model("atomic:0.3@0.6")
        assert m.atom_mass == 0.3 and m.atom_loc == 0.6

    def test_rejects_garbage(self):
        for bad in ("", "bm", "atomic:", "atomic:2@0.5"):
            with pytest.raises(DomainError):
                parse_model(bad)


class TestSampling:
    @pytest.mark.parametrize("spec", ["bm-copula", "dependent", "iid-time",
                                      "atomic:0.5@0.5"])
    def test_marginal_uniformity(self, spec):
        grid = TimeGrid.uniform(1, 2, 17)
        values = sample(spec, grid, 100_000, PINNED_SEED)
        for col in (0, 8, 16):
            d = ks_statistic_one_sample(values[:, col], uniform_cdf)
            assert d < 1.63 / math.sqrt(values.shape[0]), (spec, col, d)

    def test_values_strictly_inside_unit_interval(self):
        grid = TimeGrid.uniform(1, 2, 9)
        values = sample("bm-copula", grid, 20_000, 3)
        assert np.all(values > 0.0)
        assert np.all(values < 1.0)

    def test_dependent_constant_in_time(self):
        values = sample("dependent", TimeGrid.uniform(1, 2, 9), 100, 7)
        assert np.all(values == values[:, :1])

    def test_worker_partition_invariance(self):
        grid = TimeGrid.uniform(1, 2, 33)
        for spec in ("bm-copula", "iid-time", "atomic:0.5@0.5"):
            one = sample(spec, grid, 10_000, 11, workers=1)
            eight = sample(spec, grid, 10_000, 11, workers=8)
            assert np.array_equal(one, eight), spec

    def test_deterministic_across_runs(self):
        grid = TimeGrid.uniform(1, 2, 9)
        a = sample("bm-copula", grid, 5000, 5)
        b = sample("bm-copula", grid, 5000, 5)
        assert np.array_equal(a, b)

    def test_needs_paths(self):
        with pytest.raises(DomainError):
            map_path_blocks(parse_model("dependent"), TimeGrid.uniform(), 0, 1, lambda v: v)
        with pytest.raises(DomainError):
            map_brownian_blocks(TimeGrid.uniform(), 0, 1, lambda b: b)

    def test_bm_copula_is_transformed_brownian(self):
        # path values are exactly the normal cdf of the scaled Brownian path
        grid = TimeGrid.uniform(1, 2, 9)
        values = sample("bm-copula", grid, 3000, 13)
        b = np.vstack(map_brownian_blocks(grid, 3000, 13, lambda b: b))
        x = np.clip(std_normal_cdf(b / np.sqrt(grid.points)), 5e-324,
                    np.nextafter(1.0, 0.0))
        assert np.array_equal(values, x)

    def test_bm_copula_native_block_is_the_score(self):
        grid = TimeGrid.uniform(1, 2, 9)
        scores = np.vstack(map_path_blocks(parse_model("bm-copula"), grid, 5000, 13,
                                           lambda v: v))
        b = np.vstack(map_brownian_blocks(grid, 5000, 13, lambda b: b))
        assert np.array_equal(scores, b / np.sqrt(grid.points))

    @pytest.mark.parametrize("spec", ["dependent", "iid-time", "atomic:0.5@0.5"])
    def test_to_uniform_is_the_identity_off_the_bm_copula(self, spec):
        block = np.linspace(0.1, 0.9, 6).reshape(2, 3)
        assert to_uniform(parse_model(spec), block) is block


class TestJointCdf:
    def test_equal_times_comonotone(self):
        m = parse_model("bm-copula")
        assert joint_cdf(m, 1.5, 1.5, 0.3, 0.7) == 0.3

    def test_wide_grid_sheppard(self):
        m = parse_model("bm-copula")
        assert joint_cdf(m, 1.0, 4.0, 0.5, 0.5) == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_dependent_and_iid(self):
        assert joint_cdf(parse_model("dependent"), 1.0, 1.5, 0.2, 0.4) == 0.2
        assert joint_cdf(parse_model("iid-time"), 1.0, 1.5, 0.2, 0.4) == pytest.approx(0.08)

    def test_exchange_symmetry(self):
        m = parse_model("bm-copula")
        for (s, t, x, y) in [(1.0, 1.7, 0.2, 0.6), (1.2, 1.9, 0.8, 0.3)]:
            assert joint_cdf(m, s, t, x, y) == pytest.approx(
                joint_cdf(m, t, s, y, x), abs=1e-14)

    def test_atomic_unsupported(self):
        with pytest.raises(UnsupportedModelError):
            joint_cdf(parse_model("atomic:0.5@0.5"), 1.0, 1.5, 0.2, 0.4)

    def test_bm_agrees_with_monte_carlo(self):
        m = parse_model("bm-copula")
        times = (1.0, 1.4, 2.0)
        grid = TimeGrid(np.array(times))
        n = 100_000
        values = sample("bm-copula", grid, n, PINNED_SEED)
        levels = (0.2, 0.5, 0.8)
        for i, s in enumerate(times):
            for j, t in enumerate(times):
                for x in levels:
                    for y in levels:
                        p_hat = float(np.mean((values[:, i] <= x) & (values[:, j] <= y)))
                        p = joint_cdf(m, s, t, x, y)
                        se = math.sqrt(max(p * (1 - p), 1e-12) / n)
                        assert abs(p_hat - p) <= 4 * se, (s, t, x, y)


def scalar_joint(kind, s, t, x, y):
    """The per-pair closed form, one scalar quantile and bvn_cdf call per pair."""
    if kind == "dependent":
        return min(x, y)
    if kind == "iid-time":
        return min(x, y) if s == t else x * y
    if s == t:
        return min(x, y)
    rho = math.sqrt(min(s, t) / max(s, t))
    return bvn_cdf(std_normal_quantile(x), std_normal_quantile(y), rho)


def scalar_joint_matrix(kind, cells):
    k = len(cells)
    out = np.empty((k, k))
    for i, (s, x) in enumerate(cells):
        for j in range(i, k):
            t, y = cells[j]
            out[i, j] = out[j, i] = scalar_joint(kind, s, t, x, y)
    return out


# sqrt(s/t) over these times falls below 0.3, in [0.3, 0.75), in [0.75, 0.925)
# and at or above 0.925
SWEEP_TIMES = (0.05, 0.5, 0.7, 1.0, 1.1, 2.0)
SWEEP_LEVELS = (0.001, 0.1, 0.3, 0.5, 0.97, 0.999)
CLOSED_FORM_KINDS = ("bm-copula", "dependent", "iid-time")


class TestJointCdfMatrix:
    @given(st.sampled_from(CLOSED_FORM_KINDS),
           st.lists(st.tuples(st.sampled_from(SWEEP_TIMES) | st.floats(0.01, 4.0),
                              st.sampled_from(SWEEP_LEVELS) | st.floats(1e-4, 1 - 1e-4)),
                    min_size=1, max_size=14))
    @settings(max_examples=150)
    def test_matches_scalar_double_loop_bits(self, kind, cells):
        m = parse_model(kind)
        expected = scalar_joint_matrix(kind, cells)
        np.testing.assert_array_equal(joint_cdf_matrix(m, cells), expected)
        (s, x), (t, y) = cells[0], cells[-1]
        assert joint_cdf(m, s, t, x, y) == expected[0, -1]

    @pytest.mark.parametrize("kind", CLOSED_FORM_KINDS)
    def test_every_band_and_repeated_levels(self, kind):
        # 30 x 30 pairs span several 256-pair batches
        cells = [(t, y) for t in SWEEP_TIMES for y in SWEEP_LEVELS[:4] + (0.3,)]
        rhos = {math.sqrt(s / t) for s in SWEEP_TIMES for t in SWEEP_TIMES if s < t}
        assert min(rhos) < 0.3 and max(rhos) >= 0.925
        assert any(0.3 <= r < 0.75 for r in rhos) and any(0.75 <= r < 0.925 for r in rhos)
        got = joint_cdf_matrix(parse_model(kind), cells)
        np.testing.assert_array_equal(got, scalar_joint_matrix(kind, cells))
        np.testing.assert_array_equal(got, got.T)

    def test_domain(self):
        m = parse_model("bm-copula")
        with pytest.raises(DomainError):
            joint_cdf_matrix(m, [(1.0, 0.5), (1.5, 1.0)])
        with pytest.raises(DomainError):
            joint_cdf_matrix(m, [(0.0, 0.5)])
        with pytest.raises(UnsupportedModelError):
            joint_cdf_matrix(parse_model("atomic:0.5@0.5"), [(1.0, 0.5)])


class TestRhoMetric:
    def test_examples(self):
        assert rho_metric(1.3, 1.3, 5.0) == 0.0
        assert rho_metric(1.0, 2.0, 7.0) == 1.0
        assert rho_metric(1.0, 1.01, 5.0) == pytest.approx(0.01 ** 0.2, rel=1e-12)

    def test_domain(self):
        for theta in (4.0, float("nan")):
            with pytest.raises(DomainError):
                rho_metric(1.0, 1.5, theta)


class TestEnvelopeStatistics:
    def test_increment_mean_bound(self):
        grid = TimeGrid.uniform()
        stats = envelope_statistics(grid, 20_000, PINNED_SEED)
        for (t, eps), (m_hat, se, pts) in stats.m_table.items():
            bound = 2.0 * math.sqrt(2.0 / math.pi) * math.sqrt(eps)
            assert m_hat <= bound + 3.0 * se, (t, eps)

    def test_small_window_vanishes(self):
        grid = TimeGrid.uniform()
        stats = envelope_statistics(grid, 2000, 1, eps_values=(1e-4,))
        for (t, eps), (m_hat, _se, pts) in stats.m_table.items():
            assert pts == 0 and m_hat == 0.0
            assert m_hat < 0.05

    def test_sup_mean_positive(self):
        stats = envelope_statistics(TimeGrid.uniform(), 5000, 2)
        assert stats.d_env > 3.0 * stats.d_env_stderr

    def test_m0_is_table_max(self):
        stats = envelope_statistics(TimeGrid.uniform(), 2000, 3)
        assert stats.m0_hat == max(v[0] for v in stats.m_table.values())

    def test_needs_sample_size(self):
        with pytest.raises(DomainError):
            envelope_statistics(TimeGrid.uniform(), 100, 1)
