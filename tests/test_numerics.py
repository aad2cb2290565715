"""Numeric kernel against independent high-precision oracles."""

import math
import time

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from weplab import numerics
from weplab.errors import DomainError
from weplab.numerics import (adaptive_panel, bvn_cdf, ks_critical_one_sample,
                             ks_statistic_one_sample, ks_statistic_two_sample, ndtr, ndtri,
                             std_normal_cdf, std_normal_pdf, std_normal_quantile)

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


def assert_same_bits(got, want):
    """Equal bit for bit (so 0.0 is not -0.0), with NaN equal to NaN."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    same = (got.view(np.int64) == want.view(np.int64)) | (np.isnan(got) & np.isnan(want))
    assert same.all(), (got[~same][:5], want[~same][:5])


def with_neighbours(edges, count=50):
    """Each edge and its ``count`` nearest doubles on either side."""
    out = []
    for edge in edges:
        up = down = float(edge)
        for _ in range(count):
            up, down = float(np.nextafter(up, np.inf)), float(np.nextafter(down, -np.inf))
            out += [up, down]
        out.append(float(edge))
    return np.array(out)


# ndtr: the central branch ends at |a| = 1, erfc's Taylor branch at sqrt(2),
# its P/Q branch at 8 sqrt(2); exp(-a^2/2) underflows near |a| = 37.5-38.6
NDTR_EDGES = [s * v for v in (0.0, 1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0), 37.5, 37.7,
                              38.0, 38.5, 38.6, 5e-324, 1e-300) for s in (1.0, -1.0)]
# ndtri: the central branch ends at exp(-2) and 1 - exp(-2), the P1/Q1 tail at exp(-32)
NDTRI_EDGES = [0.0, 1.0, 5e-324, 0.13533528323661269189, 1.0 - 0.13533528323661269189,
               math.exp(-32.0), 0.5, 1e-300]


class TestCephesPort:
    """weplab's ndtr and ndtri against scipy.special, bit for bit."""

    def test_ndtr_dense_sweep(self):
        rng = np.random.default_rng(20260810)
        a = np.concatenate([rng.standard_normal(600_000), rng.uniform(-40.0, 40.0, 400_000),
                            rng.uniform(37.0, 39.0, 20_000), rng.uniform(-39.0, -37.0, 20_000)])
        assert_same_bits(ndtr(a), special.ndtr(a))

    def test_ndtr_branch_edges_and_specials(self):
        a = np.concatenate([with_neighbours(NDTR_EDGES),
                            [np.inf, -np.inf, np.nan, -0.0, 1e308, -1e308]])
        assert_same_bits(ndtr(a), special.ndtr(a))
        assert ndtr(np.inf) == 1.0 and ndtr(-np.inf) == 0.0 and np.isnan(ndtr(np.nan))

    def test_ndtri_dense_sweep(self):
        rng = np.random.default_rng(20260811)
        p = np.concatenate([rng.random(700_000), 10.0 ** rng.uniform(-323.3, 0.0, 200_000),
                            1.0 - 10.0 ** rng.uniform(-16.0, 0.0, 100_000)])
        assert_same_bits(ndtri(p), special.ndtri(p))

    def test_ndtri_branch_edges_and_specials(self):
        p = np.concatenate([with_neighbours(NDTRI_EDGES), [np.nan, -0.0, -1.0, 2.0, np.inf]])
        assert_same_bits(ndtri(p), special.ndtri(p))
        assert ndtri(0.0) == -np.inf and ndtri(1.0) == np.inf

    @given(st.floats(allow_nan=False, allow_infinity=False), st.floats(0.0, 1.0))
    @settings(max_examples=1000)
    def test_every_finite_double(self, v, p):
        assert_same_bits(ndtr(v), special.ndtr(v))
        assert_same_bits(ndtri(v), special.ndtri(v))
        assert_same_bits(ndtri(p), special.ndtri(p))

    def test_shapes(self):
        block = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
        assert ndtr(block).shape == ndtri(ndtr(block)).shape == (3, 4)
        assert ndtr(0.5).shape == ndtri(0.5).shape == ()
        assert ndtr(np.empty(0)).shape == ndtri(np.empty(0)).shape == (0,)


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


# Facts of the normal law alone that the paper's proofs use.  Each bound is
# evaluated on weplab's numerics, which are checked against mpmath at the
# same points.
TAIL_Y = (1.5, 2.0, 3.0, 4.0, 5.0)
QUANTILE_X = (0.01, 0.05, 0.1, 0.2, 0.2499)
SHIFTS_C = (0.0, 0.5, 1.0)


def tail_sandwich(y):
    """Phi(-y) with its lower and upper bounds phi(y)/y (1 - 1/y^2) and phi(y)/y."""
    upper = std_normal_pdf(y) / y
    return std_normal_cdf(-y), upper * (1.0 - 1.0 / (y * y)), upper


def shifted_density_bound(x):
    """2^(3/2) x sqrt(ln 1/x), which bounds phi(-quantile(x) + c) for x in (0, 1/4), c >= 0."""
    return 2.0 ** 1.5 * x * math.sqrt(math.log(1.0 / x))


class TestNormalTailSandwich:
    """Feller's sandwich phi(y)/y (1 - 1/y^2) <= Phi(-y) <= phi(y)/y for y > 1."""

    @pytest.mark.parametrize("y", TAIL_Y)
    def test_numerics_match_mpmath(self, y):
        assert std_normal_cdf(-y) == pytest.approx(float(mp.ncdf(-y)), rel=1e-12, abs=0)
        assert std_normal_pdf(y) == pytest.approx(float(mp.npdf(y)), rel=1e-12, abs=0)

    @pytest.mark.parametrize("y", TAIL_Y)
    def test_sandwich(self, y):
        tail, lower, upper = tail_sandwich(y)
        assert lower <= tail <= upper
        # half the upper bound is a lower bound for y > sqrt(2), and the
        # relative gap is below 4/y^2 for y > 1.2: both hold at every TAIL_Y
        assert upper / 2.0 <= tail
        assert (upper - lower) / tail < 4.0 / (y * y)

    def test_y2_frozen_values(self):
        tail, lower, upper = tail_sandwich(2.0)
        assert tail == pytest.approx(0.0227501319, abs=1e-9)
        assert lower == pytest.approx(0.0202466124, abs=1e-9)
        assert upper == pytest.approx(0.0269954833, abs=1e-9)

    def test_half_upper_at_threshold(self):
        tail, _lower, upper = tail_sandwich(math.sqrt(2.0) + 1e-9)
        assert upper / 2.0 <= tail

    def test_relative_gap_at_five(self):
        tail, lower, upper = tail_sandwich(5.0)
        assert (upper - lower) / tail < 0.16

    def test_deterministic_reproducible(self):
        first = np.array([tail_sandwich(y) for y in TAIL_Y])
        assert np.array([tail_sandwich(y) for y in TAIL_Y]).tobytes() == first.tobytes()

    def test_domain(self):
        # the lower bound is positive only for y > 1; at y <= 1 the sandwich says nothing
        assert tail_sandwich(1.0)[1] == 0.0
        assert tail_sandwich(0.5)[1] < 0.0


class TestQuantileBounds:
    """-quantile(x) <= sqrt(2 ln 1/x) and the shifted-density bound, x in (0, 1/4), c >= 0."""

    @pytest.mark.parametrize("x", QUANTILE_X)
    def test_numerics_match_mpmath(self, x):
        y = -std_normal_quantile(x)
        oracle = mp.sqrt(2) * mp.erfinv(1 - 2 * mp.mpf(x))
        assert y == pytest.approx(float(oracle), rel=1e-12, abs=0)
        for c in SHIFTS_C:
            assert std_normal_pdf(y + c) == pytest.approx(float(mp.npdf(oracle + c)),
                                                          rel=1e-12, abs=0)

    @pytest.mark.parametrize("x", QUANTILE_X)
    def test_bounds(self, x):
        y = -std_normal_quantile(x)
        assert y <= math.sqrt(2.0 * math.log(1.0 / x))
        for c in SHIFTS_C:
            assert std_normal_pdf(y + c) <= shifted_density_bound(x)

    def test_frozen_example_values(self):
        y = -std_normal_quantile(0.01)
        assert y == pytest.approx(2.3263479, abs=1e-6)
        assert math.sqrt(2.0 * math.log(100.0)) == pytest.approx(3.0348543, abs=1e-6)
        assert std_normal_pdf(y) == pytest.approx(0.026652, abs=1e-6)
        assert shifted_density_bound(0.01) == pytest.approx(0.0606972, abs=1e-6)

    def test_domain(self):
        # for x < 1/2 and c >= 0, y = -quantile(x) > 0 and phi(y + c) <= phi(y); outside
        # that domain the shift c = -y puts y + c at the mode, above the bound: a negative
        # c at x = 0.01, a positive one at x = 0.99
        for x, sign in ((0.01, -1.0), (0.99, 1.0)):
            y = -std_normal_quantile(x)
            c = -y
            assert math.copysign(1.0, c) == sign
            assert std_normal_pdf(y + c) > shifted_density_bound(x)


class TestGaussLegendreTable:
    @pytest.mark.parametrize("order", [6, 12, 20])
    def test_is_numpys_leggauss_bit_for_bit(self, order):
        x, w = numerics._LEGGAUSS[order]
        ref_x, ref_w = np.polynomial.legendre.leggauss(order)
        assert np.array_equal(x.view(np.uint64), ref_x.view(np.uint64))
        assert np.array_equal(w.view(np.uint64), ref_w.view(np.uint64))

    @pytest.mark.parametrize("order", [6, 12, 20])
    def test_matches_mpmath(self, order):
        # node: a root of P_order; weight: 2 / ((1 - x^2) P_order'(x)^2).  The table
        # keeps numpy's bits, whose 20-point outermost weight is 1.23e-15 from exact
        legendre = lambda t: mp.legendre(order, t)
        for xi, wi in zip(*numerics._LEGGAUSS[order]):
            root = mp.findroot(legendre, mp.mpf(float(xi)))
            weight = 2 / ((1 - root ** 2) * mp.diff(legendre, root) ** 2)
            assert abs(xi - root) <= 1e-15
            assert abs(wi - weight) <= 2e-15


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


class TestAdaptivePanel:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_integrand_returns_promptly(self, bad):
        # a non-finite panel error never meets the tolerance; it must not
        # refine 24 levels deep (about 2^24 panels)
        start = time.perf_counter()
        value, err = adaptive_panel(lambda s: np.where(s < 0.1, bad, 1.0), 0.0, 0.5, 1e-9)
        assert time.perf_counter() - start < 1.0
        assert not math.isfinite(value) and not math.isfinite(err)


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
