"""Randomized distributional transform: order, uniformity, indicator identity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weplab.errors import DomainError

from transform_reference import (DistFn, NoSamplerError, check_order_properties,
                                 copula_indicator_identity, dist_transform, normal_df,
                                 point_mass, seeded_rng, uniform_atom_mixture, uniform_df,
                                 uniformity_test)

PINNED_SEED = 20260810

bernoulli_half = DistFn(atom_locations=(0.0, 1.0), atom_masses=(0.5, 0.5))


class TestDistTransform:
    def test_continuous_ignores_randomizer(self):
        F = uniform_df()
        assert dist_transform(F, 0.3, 0.77) == pytest.approx(0.3, abs=1e-15)
        assert dist_transform(F, 0.3, 0.0) == dist_transform(F, 0.3, 1.0)

    def test_bernoulli_atom(self):
        assert dist_transform(bernoulli_half, 0.0, 0.4) == pytest.approx(0.2, abs=1e-15)

    def test_point_mass_is_randomizer(self):
        assert dist_transform(point_mass(5.0), 5.0, 0.9) == pytest.approx(0.9, abs=1e-15)

    def test_mixed_left_limits_exact(self):
        F = uniform_atom_mixture(0.5, 0.5)
        assert float(F.cdf_left(0.5)) == 0.25
        assert float(F.cdf(0.5)) == 0.75
        assert dist_transform(F, 0.5, 0.0) == 0.25
        assert dist_transform(F, 0.5, 1.0) == 0.75

    def test_randomizer_domain(self):
        with pytest.raises(DomainError):
            dist_transform(uniform_df(), 0.5, 1.5)


class TestOrderProperties:
    def test_uniform_all_pass(self):
        grid = [(x, y, v) for x in (0.1, 0.4, 0.8) for y in (0.2, 0.5, 0.9)
                for v in (0.0, 0.5, 1.0) if x <= y]
        assert check_order_properties(uniform_df(), grid).passed

    def test_bernoulli_clause(self):
        # F(0) = 0.5 <= transform(1, v) = 0.5 + 0.5 v for every v
        report = check_order_properties(bernoulli_half,
                                        [(0.0, 1.0, v) for v in (0.0, 0.3, 1.0)])
        assert report.passed

    def test_strict_clause_normal(self):
        # Phi strictly increasing: Phi(-1) < transform(0, v) = 0.5
        F = normal_df()
        report = check_order_properties(F, [(-1.0, 0.0, 0.0), (-1.0, 0.0, 1.0)])
        assert report.passed
        assert float(F.cdf(-1.0)) < dist_transform(F, 0.0, 0.0)

    @given(st.lists(st.floats(min_value=-5, max_value=5), min_size=1, max_size=5,
                    unique=True),
           st.lists(st.floats(min_value=0.01, max_value=1), min_size=1, max_size=5),
           st.floats(min_value=0, max_value=1),
           st.floats(min_value=-6, max_value=6), st.floats(min_value=-6, max_value=6))
    @settings(max_examples=100)
    def test_transform_monotone_random_step_df(self, locs, masses, v, x, y):
        locs = sorted(locs)
        total = sum(masses[:len(locs)]) or 1.0
        masses = [m / total for m in masses[:len(locs)]]
        while len(masses) < len(locs):
            masses.append(0.0)
        keep = [(l, m) for l, m in zip(locs, masses) if m > 0]
        if not keep:
            return
        locs, masses = zip(*keep)
        masses = tuple(m / sum(masses) for m in masses)
        if abs(sum(masses) - 1.0) > 1e-12:
            return
        F = DistFn(atom_locations=locs, atom_masses=masses)
        lo, hi = min(x, y), max(x, y)
        assert dist_transform(F, lo, v) <= dist_transform(F, hi, v) + 1e-12


class TestUniformity:
    @pytest.mark.parametrize("factory", [uniform_df, normal_df,
                                         lambda: bernoulli_half,
                                         lambda: uniform_atom_mixture(0.5, 0.5)])
    def test_kinds_pass_at_pinned_seed(self, factory):
        result = uniformity_test(factory(), 100_000, PINNED_SEED)
        assert result.passed, result

    def test_broken_transform_fails(self):
        result = uniformity_test(uniform_atom_mixture(0.5, 0.5), 100_000, PINNED_SEED,
                                 v_constant=0.0)
        assert not result.passed
        assert result.ks > 0.2

    def test_threshold_formula(self):
        result = uniformity_test(uniform_df(), 10_000, 1)
        assert result.threshold == pytest.approx(1.63 / 100.0)

    def test_requires_sampler(self):
        F = DistFn(cdf_fn=lambda x: np.clip(x, 0, 1))
        with pytest.raises(NoSamplerError):
            uniformity_test(F, 1000, 1)

    def test_small_n_rejected(self):
        with pytest.raises(DomainError):
            uniformity_test(uniform_df(), 50, 1)


class TestIndicatorIdentity:
    def test_normal_draws_zero_violations(self):
        rng_x = seeded_rng(PINNED_SEED, 0)
        rng_v = seeded_rng(PINNED_SEED, 1)
        xs = rng_x.standard_normal(10_000)
        vs = rng_v.random(10_000)
        y_probes = np.linspace(-2.5, 2.5, 21)
        violations = copula_indicator_identity(normal_df(), list(zip(xs, vs)), y_probes)
        assert violations == 0

    def test_boundary_equality(self):
        # x == y: both indicators are 1 for continuous strictly increasing F
        assert copula_indicator_identity(normal_df(), [(0.7, 0.3)], [0.7]) == 0

    def test_uniform_direct(self):
        assert copula_indicator_identity(uniform_df(), [(0.2, 0.5)], [0.1]) == 0

    def test_rejects_non_strictly_increasing(self):
        with pytest.raises(DomainError):
            copula_indicator_identity(bernoulli_half, [(0.0, 0.5)], [0.5])


class TestDfValidation:
    def test_step_df_invariants(self):
        with pytest.raises(DomainError):
            DistFn(atom_locations=(1.0, 0.5), atom_masses=(0.5, 0.5))
        with pytest.raises(DomainError):
            DistFn(atom_locations=(0.0, 1.0), atom_masses=(0.6, 0.6))

    def test_mixed_df_invariants(self):
        with pytest.raises(DomainError):
            DistFn(uniform_df().cdf_fn, uniform_df().sampler, (0.5,), (1.0,))

    def test_cdf_monotone_right_continuous(self):
        F = uniform_atom_mixture(0.3, 0.4)
        xs = np.linspace(-0.5, 1.5, 401)
        vals = np.asarray(F.cdf(xs))
        assert np.all(np.diff(vals) >= 0)
        assert float(F.cdf(-1.0)) == 0.0
        assert float(F.cdf(2.0)) == pytest.approx(1.0)
        assert np.all(np.asarray(F.cdf_left(xs)) <= vals + 1e-15)

    def test_pure_atom_df_samples_only_its_atoms(self):
        F = DistFn(atom_locations=(-1.0, 0.5, 2.0), atom_masses=(0.2, 0.3, 0.5))
        x = F.sample(10_000, seeded_rng(PINNED_SEED, 0))
        assert set(np.unique(x)) == {-1.0, 0.5, 2.0}
        assert np.mean(x == 2.0) == pytest.approx(0.5, abs=0.03)

    def test_atoms_without_sampler_cannot_be_sampled(self):
        F = DistFn(cdf_fn=lambda x: np.clip(x, 0, 1), atom_locations=(0.5,),
                   atom_masses=(0.5,))
        with pytest.raises(NoSamplerError):
            F.sample(10, seeded_rng(PINNED_SEED, 0))

    @pytest.mark.parametrize("F,has_atoms", [
        (uniform_df(), False), (normal_df(), False), (point_mass(1.0), True),
        (bernoulli_half, True), (uniform_atom_mixture(0.3, 0.4), True)])
    def test_strictly_increasing_is_having_no_atoms(self, F, has_atoms):
        assert F.strictly_increasing == (not has_atoms) == (not F.atom_masses)
        with pytest.raises(AttributeError):
            F.strictly_increasing = has_atoms
