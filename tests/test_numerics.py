"""Numeric kernel against independent high-precision oracles."""

import math
import time

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from weplab.errors import DomainError
from weplab.numerics import (bvn_cdf, ks_critical_one_sample, ks_statistic_one_sample,
                             ks_statistic_two_sample, singular_quadrature, std_normal_cdf,
                             std_normal_pdf, std_normal_quantile)

mp.mp.dps = 40


def mp_cdf(y):
    return float(mp.ncdf(y))


def mp_quantile(p):
    return float(mp.sqrt(2) * mp.erfinv(2 * mp.mpf(p) - 1))


# The scalar bivariate normal CDF as it stood before bvn_cdf became
# array-valued, kept verbatim as the bit-for-bit reference.
_TWO_PI = 2.0 * math.pi


def reference_bvn_cdf(h: float, k: float, rho: float) -> float:
    if rho == 1.0:
        return float(special.ndtr(min(h, k)))
    if rho == -1.0:
        return max(0.0, float(special.ndtr(h)) + float(special.ndtr(k)) - 1.0)
    p = _reference_bvn_upper(-h, -k, rho)
    return min(1.0, max(0.0, p))


def _reference_bvn_upper(dh: float, dk: float, r: float) -> float:
    phid = lambda v: float(special.ndtr(v))
    h, k = dh, dk
    hk = h * k
    if r == 0.0:
        return phid(-h) * phid(-k)
    if abs(r) < 0.3:
        order = 6
    elif abs(r) < 0.75:
        order = 12
    else:
        order = 20
    x, w = np.polynomial.legendre.leggauss(order)
    bvn = 0.0
    if abs(r) < 0.925:
        hs = (h * h + k * k) / 2.0
        asr = math.asin(r)
        sn = np.sin(asr * (1.0 + x) / 2.0)
        bvn = float(np.sum(w * np.exp((sn * hk - hs) / (1.0 - sn * sn))))
        bvn = bvn * asr / (2.0 * _TWO_PI) + phid(-h) * phid(-k)
        return bvn
    if r < 0.0:
        k = -k
        hk = -hk
    a_sq = (1.0 - r) * (1.0 + r)
    a = math.sqrt(a_sq)
    bs = (h - k) ** 2
    c = (4.0 - hk) / 8.0
    d = (12.0 - hk) / 16.0
    asr = -(bs / a_sq + hk) / 2.0
    if asr > -100.0:
        bvn = a * math.exp(asr) * (1.0 - c * (bs - a_sq) * (1.0 - d * bs / 5.0) / 3.0
                                   + c * d * a_sq * a_sq / 5.0)
    if -hk < 100.0:
        b = math.sqrt(bs)
        sp = math.sqrt(_TWO_PI) * phid(-b / a)
        bvn -= math.exp(-hk / 2.0) * sp * b * (1.0 - c * bs * (1.0 - d * bs / 5.0) / 3.0)
    a /= 2.0
    for xi, wi in zip(x, w):
        xs = (a * (xi + 1.0)) ** 2
        rs = math.sqrt(1.0 - xs)
        asr = -(bs / xs + hk) / 2.0
        if asr > -100.0:
            sp = 1.0 + c * xs * (1.0 + d * xs)
            ep = math.exp(-hk * (1.0 - rs) / (2.0 * (1.0 + rs))) / rs
            bvn += a * wi * math.exp(asr) * (ep - sp)
    bvn = -bvn / _TWO_PI
    if r > 0.0:
        bvn += phid(-max(h, k))
    else:
        bvn = -bvn
        if k > h:
            bvn += phid(k) - phid(h)
    return bvn


# each Gauss-Legendre order, both signs, both sides of 0.925 and the exact +-1
BAND_RHOS = (-1.0, -0.9999, -0.95, -0.925, -0.8, -0.5, -0.3, -0.1, 0.0,
             0.1, 0.3, 0.5, 0.75, 0.8, 0.924, 0.925, 0.95, 0.9999, 1.0)


class TestNormalKernel:
    def test_cdf_against_high_precision(self):
        for y in np.concatenate([np.linspace(-8, 8, 81), [-37.0, 12.0]]):
            assert abs(std_normal_cdf(y) - mp_cdf(y)) <= 1e-12

    def test_cdf_examples(self):
        assert std_normal_cdf(0.0) == 0.5
        assert abs(std_normal_cdf(-2.0) - 0.0227501319) < 5e-11
        assert 0.0 < 1.0 - std_normal_cdf(8.0) < 1e-15

    @given(st.floats(min_value=-8, max_value=8))
    @settings(max_examples=200)
    def test_cdf_symmetry(self, y):
        assert abs(std_normal_cdf(-y) + std_normal_cdf(y) - 1.0) <= 1e-14

    def test_cdf_monotone(self):
        ys = np.linspace(-10, 10, 2001)
        assert np.all(np.diff(std_normal_cdf(ys)) >= 0)

    def test_pdf_formula(self):
        for y in (-3.0, 0.0, 1.7):
            assert std_normal_pdf(y) == pytest.approx(
                math.exp(-y * y / 2) / math.sqrt(2 * math.pi), abs=0, rel=1e-15)

    def test_quantile_examples(self):
        assert std_normal_quantile(0.5) == 0.0
        assert abs(std_normal_quantile(0.0227501319) - (-2.0)) < 1e-9
        assert std_normal_quantile(1e-10) == pytest.approx(mp_quantile(1e-10), abs=1e-6)

    def test_quantile_tail_contract(self):
        for p in (1e-12, 1e-8, 1e-3, 0.3, 0.5, 0.9, 1 - 1e-8, 1 - 1e-12):
            y = std_normal_quantile(p)
            assert abs(mp_cdf(y) - p) <= 1e-11 * min(p, 1.0 - p)

    def test_quantile_domain(self):
        for p in (0.0, 1.0, -0.1, 1.1, float("nan")):
            with pytest.raises(DomainError):
                std_normal_quantile(p)


class TestBvn:
    def test_trivial_independent(self):
        assert bvn_cdf(0.0, 0.0, 0.0) == pytest.approx(0.25, abs=1e-15)

    def test_sheppard_orthant(self):
        # closed-form oracle at the origin: 1/4 + asin(rho) / (2 pi)
        for rho in (-0.9, -0.5, 0.0, 0.3, 0.5, 0.925, 0.99):
            target = 0.25 + math.asin(rho) / (2 * math.pi)
            assert bvn_cdf(0.0, 0.0, rho) == pytest.approx(target, abs=5e-8)

    def test_degenerate_correlations(self):
        assert bvn_cdf(1.2, -0.3, 1.0) == std_normal_cdf(-0.3)
        assert bvn_cdf(0.5, -0.5, -1.0) == max(
            0.0, std_normal_cdf(0.5) + std_normal_cdf(-0.5) - 1.0)
        assert bvn_cdf(-2.0, -2.1, -1.0) == 0.0

    def test_against_quadrature_oracle(self):
        def integrand(u, v, rho):
            det = 1.0 - rho * rho
            return math.exp(-(u * u - 2 * rho * u * v + v * v) / (2 * det)) / (
                2 * math.pi * math.sqrt(det))

        for h, k, rho in [(0.4, -0.7, 0.6), (-1.1, 0.2, -0.35), (1.5, 1.0, 0.95),
                          (0.0, 0.5, -0.975), (-2.0, 2.0, 0.2)]:
            ref, err = integrate.dblquad(integrand, -8.5, k, -8.5, h, args=(rho,),
                                         epsabs=1e-11)
            assert abs(bvn_cdf(h, k, rho) - ref) <= 5e-8 + 10 * err

    def test_against_scipy_sweep(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            h, k = rng.uniform(-3.5, 3.5, 2)
            rho = rng.uniform(-0.999, 0.999)
            ref = stats.multivariate_normal(cov=[[1, rho], [rho, 1]]).cdf([h, k])
            assert abs(bvn_cdf(h, k, rho) - ref) <= 5e-8

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            h, k = rng.uniform(-3, 3, 2)
            rho = rng.uniform(-1, 1)
            p = bvn_cdf(h, k, rho)
            assert p == pytest.approx(bvn_cdf(k, h, rho), abs=1e-13)
            assert 0.0 <= p <= min(std_normal_cdf(h), std_normal_cdf(k)) + 1e-13

    def test_monotone_in_arguments(self):
        for rho in (-0.8, 0.0, 0.8):
            vals = [bvn_cdf(h, 0.3, rho) for h in np.linspace(-3, 3, 25)]
            assert np.all(np.diff(vals) >= -1e-13)

    def test_zero_correlation_factorizes(self):
        assert abs(bvn_cdf(0.7, -1.1, 0.0)
                   - std_normal_cdf(0.7) * std_normal_cdf(-1.1)) <= 1e-10

    def test_domain(self):
        with pytest.raises(DomainError):
            bvn_cdf(0.0, 0.0, 1.5)
        with pytest.raises(DomainError):
            bvn_cdf(float("inf"), 0.0, 0.5)
        with pytest.raises(DomainError):
            bvn_cdf([0.0, 1.0], [0.0, 1.0], [0.5, float("nan")])

    @given(st.lists(st.tuples(st.floats(min_value=-9, max_value=9),
                              st.floats(min_value=-9, max_value=9),
                              st.sampled_from(BAND_RHOS) | st.floats(min_value=-1, max_value=1)),
                    min_size=1, max_size=40))
    @settings(max_examples=200)
    def test_array_matches_scalar_reference_bits(self, triples):
        h, k, rho = (np.array(v) for v in zip(*triples))
        expected = np.array([reference_bvn_cdf(*t) for t in zip(h.tolist(), k.tolist(),
                                                                  rho.tolist())])
        np.testing.assert_array_equal(bvn_cdf(h, k, rho), expected)

    def test_band_grid_matches_scalar_reference_bits(self):
        h, k, rho = np.meshgrid(np.linspace(-8.5, 8.5, 35), np.linspace(-6, 7, 14), BAND_RHOS,
                                indexing="ij")
        expected = np.vectorize(reference_bvn_cdf)(h, k, rho)
        got = bvn_cdf(h, k, rho)
        assert got.shape == h.shape
        np.testing.assert_array_equal(got, expected)
        assert np.array_equal(np.signbit(got), np.signbit(expected))
        # at the last one, squaring h - k by multiplication instead of the C
        # library's pow changes the result
        for t in [(0.3, -1.2, -0.95), (2.0, 2.0, 1.0), (0.5, -0.5, -1.0),
                  (0.819101, 0.0, 0.9489)]:
            assert bvn_cdf(*t) == reference_bvn_cdf(*t)
            assert isinstance(bvn_cdf(*t), float)


class TestSingularQuadrature:
    def test_polynomial(self):
        res = singular_quadrature(lambda s: s, 1.0, 1e-9)
        assert res.converged
        assert res.value == pytest.approx(0.5, abs=1e-9)

    def test_exponential_integral(self):
        # oracle: substitute u = 1/s, giving E1(2), via mpmath
        target = float(mp.e1(2))
        res = singular_quadrature(lambda s: np.exp(-1.0 / s) / s, 0.5, 1e-9)
        assert res.converged
        assert res.value == pytest.approx(target, abs=1e-9)
        assert res.error < 1e-8

    def test_logarithmic_divergence(self):
        res = singular_quadrature(lambda s: math.exp(-1.0) / s, 0.5, 1e-9)
        assert not res.converged
        assert res.value > 0.0

    def test_split_invariance(self):
        tol = 1e-9
        a = singular_quadrature(lambda s: np.exp(-1.0 / s) / s, 0.5, tol)
        b = singular_quadrature(lambda s: np.exp(-1.0 / s) / s, 0.5, tol, initial_splits=4)
        assert abs(a.value - b.value) <= 10 * tol

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_integrand_returns_promptly(self, bad):
        # a non-finite panel error never meets the tolerance; it must not
        # refine 24 levels deep (about 2^24 panels)
        start = time.perf_counter()
        res = singular_quadrature(lambda s: np.where(s < 0.1, bad, 1.0), 0.5, 1e-9)
        assert time.perf_counter() - start < 1.0
        assert not res.converged

    def test_domain(self):
        with pytest.raises(DomainError):
            singular_quadrature(lambda s: s, 0.0, 1e-9)
        with pytest.raises(DomainError):
            singular_quadrature(lambda s: s, 1.0, -1.0)


class TestKolmogorovSmirnov:
    def test_single_point(self):
        assert ks_statistic_one_sample([0.5], lambda x: np.clip(x, 0, 1)) == 0.5

    def test_equioscillation(self):
        m = 40
        sample = (np.arange(1, m + 1) - 0.5) / m
        d = ks_statistic_one_sample(sample, lambda x: np.clip(x, 0, 1))
        assert d == pytest.approx(0.5 / m, abs=1e-15)

    def test_brute_force_oracle(self):
        # direct evaluation of both one-sided sups at every jump
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = np.sort(rng.normal(size=rng.integers(1, 40)))
            cdf = lambda v: std_normal_cdf(np.asarray(v))
            m = len(x)
            brute = 0.0
            for i, xi in enumerate(x):
                brute = max(brute, abs((i + 1) / m - cdf(xi)), abs(cdf(xi) - i / m))
            assert ks_statistic_one_sample(x, cdf) == pytest.approx(brute, abs=1e-15)

    def test_against_scipy(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=500)
        ours = ks_statistic_one_sample(x, lambda v: std_normal_cdf(np.asarray(v)))
        ref = stats.kstest(x, "norm").statistic
        assert ours == pytest.approx(ref, abs=1e-12)

    def test_large_uniform_sample_below_critical(self):
        rng = np.random.default_rng(20260810)
        u = rng.random(100_000)
        d = ks_statistic_one_sample(u, lambda x: np.clip(x, 0, 1))
        assert d < 1.63 / math.sqrt(100_000)

    def test_two_sample_against_scipy(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=300)
        b = rng.normal(0.2, size=400)
        assert ks_statistic_two_sample(a, b) == pytest.approx(
            stats.ks_2samp(a, b).statistic, abs=1e-12)

    def test_empty_sample(self):
        with pytest.raises(DomainError):
            ks_statistic_one_sample([], lambda x: x)

    def test_critical_value(self):
        # 5% asymptotic coefficient is 1.358
        assert ks_critical_one_sample(100, 0.05) == pytest.approx(0.13581, abs=1e-4)
