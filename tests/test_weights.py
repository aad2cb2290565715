"""Weight families: evaluation, windows, tail integral, slow variation, dyadic sums."""

import math
import time
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from weplab.errors import DomainError
from weplab.weights import (WeightSpec, _auto_gamma, integral_condition, parse_weight,
                            validate_monotonicity)

from lemma_reference import dyadic_sum

mp.mp.dps = 30


def geometric_ratio(alpha, terms):
    """Closed-form oracle for the dyadic ratio of a pure power weight: the sum of r^k
    over k < terms, r = 4^-alpha, as expm1(terms ln r) / expm1(ln r), which stays
    accurate as alpha -> 0, where 1 - r loses every digit."""
    log_r = -alpha * math.log(4.0)
    return math.expm1(terms * log_r) / math.expm1(log_r)


def geometric_limit(alpha):
    """The same series summed to infinity, 1 / (1 - 4^-alpha)."""
    return -1.0 / math.expm1(-alpha * math.log(4.0))


class TestEvaluation:
    def test_constant(self):
        w = parse_weight("const:1")
        assert w(0.3) == 1.0

    def test_power_examples(self):
        w = parse_weight("pow:0.25")
        assert w(0.0001) == pytest.approx(10.0, rel=1e-12)
        assert w(0.9999) == pytest.approx(10.0, rel=1e-12)

    def test_symmetry(self):
        w = parse_weight("pow:0.3:logpow:0.5")
        xs = np.linspace(0.01, 0.49, 50)
        assert np.allclose(w(xs), w(1.0 - xs), rtol=1e-13, atol=0)

    def test_continuity_at_half(self):
        w = parse_weight("pow:0.25")
        lo = w(np.nextafter(0.5, 0.0))
        hi = w(np.nextafter(0.5, 1.0))
        mid = w(0.5)
        assert abs(lo - mid) <= 1e-12 * mid
        assert abs(hi - mid) <= 1e-12 * mid

    def test_domain(self):
        w = parse_weight("pow:0.25")
        for x in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(DomainError):
                w(x)

    def test_positive_everywhere(self):
        for spec in ("const:2", "pow:0.1", "pow:0.4:logpow:1", "pow:0.2:expsqrt:0.5"):
            w = parse_weight(spec)
            assert np.all(w(np.geomspace(1e-12, 1 - 1e-12, 200)) > 0)


class TestValidation:
    def test_constant_passes(self):
        assert validate_monotonicity(parse_weight("const:1")) is None

    def test_power_passes(self):
        assert validate_monotonicity(parse_weight("pow:0.25")) is None

    def test_logpow_passes(self):
        assert validate_monotonicity(parse_weight("pow:0:logpow:1")) is None

    def test_increasing_weight_fails_with_location(self):
        # an unchecked weight is built, with its first violation as a warning
        with pytest.warns(UserWarning, match="w non-increasing"):
            broken = WeightSpec(alpha=-0.25, unchecked=True)
        violation = validate_monotonicity(broken)
        assert violation is not None
        assert violation[2] == "w non-increasing"

    def test_construction_rejects_bad_exponent(self):
        with pytest.raises(DomainError):
            WeightSpec(alpha=0.5)
        with pytest.raises(DomainError):
            WeightSpec(alpha=-0.1)

    @pytest.mark.parametrize("unchecked", [False, True])
    @pytest.mark.parametrize("fields", [{"alpha": math.nan}, {"alpha": math.inf},
                                        {"sv_param": math.nan},
                                        {"sv_kind": "logpow", "sv_param": math.nan},
                                        {"sv_kind": "expsqrt", "sv_param": math.inf}])
    def test_construction_rejects_non_finite_parameters(self, fields, unchecked):
        with pytest.raises(DomainError, match="finite"):
            WeightSpec(**fields, unchecked=unchecked)

    @pytest.mark.parametrize("alpha,kind,param", [(0.375, "logpow", 75.0),
                                                  (0.0, "logpow", 86.0)])
    def test_weight_overflowing_on_its_window_is_refused(self, alpha, kind, param):
        # x w(x)^2 exceeds the largest double inside the window: no check can vouch for it
        with pytest.warns(UserWarning, match="x\\*w\\^2 finite"):
            unchecked = WeightSpec(alpha, kind, param, unchecked=True,
                                   gamma=_auto_gamma(alpha, kind, param))
        violation = validate_monotonicity(unchecked)
        assert violation is not None and violation[2] == "x*w^2 finite"
        with pytest.raises(DomainError, match="finite"):
            WeightSpec(alpha, kind, param)

    def test_unchecked_escape_hatch(self):
        w = WeightSpec(alpha=0.5, unchecked=True)
        assert w(0.25) == pytest.approx(2.0)

    def test_expsqrt_gets_smaller_window(self):
        w = parse_weight("pow:0.25:expsqrt:1")
        assert w.gamma < 0.25
        assert validate_monotonicity(w) is None


def quad_in_v(w, c):
    """scipy's quad of the tail integral in v = ln(1/s), segment by segment over [v0, v0 + 1],
    [v0 + 1, v0 + 3], ... from v0 = ln(1/gamma), until the integrand has fallen to 0."""
    log_sv = {"logpow": lambda v: w.sv_param * math.log1p(v),
              "expsqrt": lambda v: w.sv_param * math.sqrt(v)}[w.sv_kind]

    def f(v):
        log_u = math.log(c) + (1.0 - 2.0 * w.alpha) * v - 2.0 * log_sv(v)
        return math.exp(-math.exp(min(log_u, 700.0)))

    total, lo, width = 0.0, math.log(1.0 / w.gamma), 1.0
    while not (f(lo) > 0.0 and f(lo + width) == 0.0):
        total += quad(f, lo, lo + width, epsabs=0.0, epsrel=1e-13, limit=200)[0]
        lo, width = lo + width, 2.0 * width
    return total + quad(f, lo, lo + width, epsabs=0.0, epsrel=1e-13, limit=200)[0]


class TestIntegralCondition:
    def test_constant_weight_value(self):
        # substitution u = 1/s turns the integral into E1(2); mpmath oracle
        target = float(mp.e1(2))
        entry = integral_condition(parse_weight("const:1"), [1.0], tol=1e-9)[0]
        assert entry.finite
        assert entry.value == pytest.approx(target, rel=1e-12)

    def test_power_weight_value(self):
        # substitution u = s^(-1/2) gives 2 E1(c / sqrt(gamma))
        w = parse_weight("pow:0.25")
        target = 2.0 * float(mp.e1(1.0 / math.sqrt(w.gamma)))
        entry = integral_condition(w, [1.0], tol=1e-9)[0]
        assert entry.finite
        assert entry.value == pytest.approx(target, rel=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(alpha=st.floats(0.0, 0.4999), c=st.floats(0.01, 100.0))
    @example(alpha=0.499, c=0.25).via("the value the old dyadic panels stopped short of")
    @example(alpha=0.0, c=100.0).via("a value of 1e-89")
    def test_pure_power_matches_the_exponential_integral(self, alpha, c):
        # u = c s^(2 alpha - 1) turns the integral into E1(c gamma^(2 alpha - 1)) / (1 - 2 alpha)
        w = WeightSpec(alpha)
        a = mp.mpf(alpha)
        target = mp.e1(c * mp.mpf(w.gamma) ** (2 * a - 1)) / (1 - 2 * a)
        entry = integral_condition(w, [c])[0]
        assert entry.finite
        assert entry.value == pytest.approx(float(target), rel=1e-12)

    @pytest.mark.parametrize("spec", ["pow:0:logpow:1", "pow:0.25:logpow:2", "pow:0.49:logpow:1",
                                      "pow:0.2:expsqrt:0.5", "pow:0.4:expsqrt:2"])
    def test_slowly_varying_factor_matches_scipy(self, spec):
        w = parse_weight(spec)
        for entry in integral_condition(w, [0.25, 1.0, 4.0]):
            assert entry.finite
            assert entry.value == pytest.approx(quad_in_v(w, entry.c), rel=1e-12)

    def test_boundary_weight_diverges(self):
        # at alpha = 1/2 with L = 1 the integrand in v = ln(1/s) tends to exp(-c)
        w = WeightSpec(alpha=0.5, unchecked=True)
        entry = integral_condition(w, [1.0])[0]
        assert not entry.finite
        assert entry.value == entry.error == math.inf

    @pytest.mark.filterwarnings("ignore:unchecked weight violates")
    @pytest.mark.parametrize("fields,finite", [
        ((-1.0,), True),
        ((0.5, "logpow", -1.0), True),
        ((0.5, "expsqrt", -1.0), True),
        ((0.5,), False),
        ((0.5, "logpow", 0.0), False),
        ((0.5, "logpow", 1.0), False),
        ((0.7,), False),
    ])
    def test_unchecked_weights_are_classified_by_exponent_and_factor(self, fields, finite):
        entries = integral_condition(WeightSpec(*fields, unchecked=True), [0.25, 1.0, 4.0])
        assert [e.finite for e in entries] == [finite] * 3
        for e in entries:
            assert 0.0 < e.value < math.inf if finite else e.value == math.inf

    def test_vanishing_log_power_is_fast_and_exact(self):
        # at alpha = 1/2 with L = (1 + ln 1/s)^-0.1 the integrand is exp(-c (1 + v)^p) in
        # v = ln(1/s), p = 0.2, so the integral is (1/p) c^(-1/p) Gamma(1/p, c (1 + v0)^p),
        # v0 = ln 4; at c = 0.25 it is about 1.2e5, and its panels reach v = 2e17
        w = WeightSpec(0.5, "logpow", -0.1, unchecked=True)
        start = time.perf_counter()
        entries = integral_condition(w, [0.25, 1.0, 4.0])
        assert time.perf_counter() - start < 1.0
        p, v0 = mp.mpf("0.2"), mp.log(4)
        for e in entries:
            c = mp.mpf(e.c)
            target = mp.gammainc(1 / p, c * (1 + v0) ** p) * c ** (-1 / p) / p
            assert e.finite
            assert e.value == pytest.approx(float(target), rel=1e-12)

    def test_value_past_the_doubles_is_inf(self):
        # with L = (1 + ln 1/s)^-0.001 the integrand in v is exp(-0.25 (1 + v)^0.002), still
        # about 0.36 at v = 1e308: a finite integral that no double holds
        entry = integral_condition(WeightSpec(0.5, "logpow", -1e-3, unchecked=True), [0.25])[0]
        assert entry.finite and entry.value == entry.error == math.inf

    def test_subnormal_window_diverges_without_warning(self):
        # pytest turns a RuntimeWarning into a failure
        w = WeightSpec(alpha=0.6, gamma=1e-310, unchecked=True)
        entries = integral_condition(w, [0.25, 1.0, 4.0])
        assert all(not e.finite and e.value == math.inf for e in entries), entries

    @pytest.mark.parametrize("spec", ["const:1", "pow:0.1", "pow:0.25",
                                      "pow:0:logpow:1", "pow:0.25:logpow:2",
                                      "pow:0.2:expsqrt:0.5"])
    def test_every_admissible_family_member_finite(self, spec):
        w = parse_weight(spec)
        entries = integral_condition(w, [0.25, 1.0, 4.0])
        assert all(e.finite for e in entries), entries

    def test_monotone_in_c(self):
        # the integrand decreases in c, so finiteness for a smaller c
        # implies finiteness for a larger one
        w = parse_weight("pow:0.25")
        entries = integral_condition(w, [0.25, 1.0, 4.0])
        finite = [e.finite for e in entries]
        for smaller, larger in zip(finite, finite[1:]):
            assert not smaller or larger
        values = [e.value for e in entries]
        assert values[0] > values[1] > values[2]

    def test_needs_c_values(self):
        with pytest.raises(DomainError):
            integral_condition(parse_weight("const:1"), [])

    @pytest.mark.parametrize("c", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_c_values_out_of_range(self, c):
        with pytest.raises(DomainError, match="positive and finite"):
            integral_condition(parse_weight("const:1"), [1.0, c])

    @pytest.mark.parametrize("tol", [0.0, -1e-9, math.nan])
    def test_rejects_a_tolerance_that_is_not_positive(self, tol):
        with pytest.raises(DomainError, match="tolerance must be positive"):
            integral_condition(parse_weight("const:1"), [1.0], tol=tol)


class TestDyadicSum:
    def test_quarter_power_example(self):
        w = parse_weight("pow:0.25")
        ratio = dyadic_sum(w, 0.1, 200)
        partial_sum = ratio / w(0.1) ** 2
        assert partial_sum == pytest.approx(0.1 ** 0.5 / (1 - 2 ** -0.5), rel=1e-12)
        assert ratio == pytest.approx(1.0 / (1.0 - 4.0 ** -0.25), rel=1e-12)

    def test_alpha_04_example(self):
        ratio = dyadic_sum(parse_weight("pow:0.4"), 0.01, 200)
        assert ratio == pytest.approx(1.0 / (1.0 - 4.0 ** -0.4), rel=1e-12)

    def test_single_term(self):
        assert dyadic_sum(parse_weight("pow:0.25"), 0.1, 1) == pytest.approx(1.0)

    @pytest.mark.parametrize("alpha", [0.1, 0.25, 0.4])
    def test_matches_geometric_series_oracle(self, alpha):
        w = parse_weight(f"pow:{alpha}")
        for terms in (10, 60, 200):
            assert dyadic_sum(w, 0.01, terms) == pytest.approx(
                geometric_ratio(alpha, terms), rel=1e-12)

    @pytest.mark.parametrize("spec", ["pow:0.1", "pow:0.25", "pow:0.3:logpow:1",
                                      "pow:0.2:expsqrt:0.5"])
    def test_ratio_monotone_and_bounded(self, spec):
        w = parse_weight(spec)
        for theta in (1e-4, 1e-2, 0.2 * w.gamma):
            ratios = [dyadic_sum(w, theta, t) for t in (1, 5, 20, 60, 200, 400)]
            assert all(b >= a - 1e-12 for a, b in zip(ratios, ratios[1:]))
            # bounded: the tail has nearly settled by 200 terms
            assert ratios[-1] - ratios[-2] <= 0.01 * ratios[-1]

    def test_alpha_zero_rejected(self):
        with pytest.raises(DomainError):
            dyadic_sum(parse_weight("const:1"), 0.1, 10)
        with pytest.raises(DomainError):
            dyadic_sum(parse_weight("pow:0:logpow:1"), 0.1, 10)

    def test_theta_domain(self):
        w = parse_weight("pow:0.25")
        with pytest.raises(DomainError):
            dyadic_sum(w, w.gamma, 10)
        with pytest.raises(DomainError):
            dyadic_sum(w, 0.1, 0)

    @given(st.floats(min_value=1e-300, max_value=0.5, exclude_max=True),
           st.floats(min_value=1e-4, max_value=0.2), st.integers(1, 1024))
    @example(1e-17, 0.01, 60)  # 4^-alpha rounds to 1: sixty terms of nearly 1
    @settings(max_examples=100)
    def test_pure_power_ratio_weight_independent(self, alpha, theta, terms):
        # the ratio of a pure power weight depends only on alpha and terms
        assert dyadic_sum(WeightSpec(alpha), theta, terms) == pytest.approx(
            geometric_ratio(alpha, terms), rel=1e-12)

    def test_terms_whose_weight_square_overflows_count_as_zero(self):
        # w(2^-1023 theta)^2, the last of 1,024 terms, passes the largest double here; the
        # term is below 1 / DBL_MAX and the sum needs none of it
        w, theta = WeightSpec(0.498046875), 0.015625
        last = w._base(np.array([theta * 2.0 ** -1023]))
        with np.errstate(over="ignore"):
            assert np.isinf(last * last)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ratio = dyadic_sum(w, theta, 1024)
        assert ratio == pytest.approx(geometric_ratio(w.alpha, 1024), rel=1e-12)

    @given(st.floats(min_value=0.1, max_value=0.5, exclude_max=True),
           st.floats(min_value=1e-4, max_value=0.2))
    @settings(max_examples=50)
    def test_pure_power_ratio_reaches_its_limit(self, alpha, theta):
        # the 1,000-term tail, 4^(-1000 alpha) / (1 - 4^-alpha), lies far below rounding
        assert dyadic_sum(WeightSpec(alpha), theta, 1000) == pytest.approx(
            geometric_limit(alpha), rel=1e-12)

    # parameters up to 2 keep the window above 1e-174, so no term overflows
    @pytest.mark.parametrize("kind", ["logpow", "expsqrt"])
    @given(st.floats(min_value=0.01, max_value=0.45), st.floats(min_value=0.01, max_value=2.0),
           st.floats(min_value=1e-3, max_value=0.99), st.integers(1, 200))
    @settings(max_examples=100)
    def test_potter_bound_brackets_the_dyadic_sum(self, kind, alpha, param, fraction, terms):
        # Potter's bound with A = 1: with s = ln(1/theta), L(theta) / L(2^-k theta) lies
        # in [2^(-k delta), 1], delta = beta / (1 + s) for (1 + s)^beta and c / (2 sqrt(s))
        # for exp(c sqrt(s)); so term k lies in [4^(-k (alpha + delta)), 4^(-k alpha)]
        w = WeightSpec(alpha, kind, param)
        theta = fraction * w.gamma
        s = math.log(1.0 / theta)
        delta = param / (1.0 + s) if kind == "logpow" else param / (2.0 * math.sqrt(s))
        ratio = dyadic_sum(w, theta, terms)
        assert ratio <= geometric_ratio(alpha, terms) * (1.0 + 1e-12)
        assert ratio >= geometric_ratio(alpha + delta, terms) * (1.0 - 1e-12)


class TestSlowVariation:
    """L(lambda x) / L(x) -> 1 as x -> 0 for the two slowly varying factors.

    With s = ln(1/x) and l = ln(lambda), the log of the ratio is
    beta ln(1 - l / (1 + s)) for the log-power factor (1 + s)^beta, and
    -c l / (sqrt(s - l) + sqrt(s)) for exp(c sqrt(s)).  Its size falls as s
    grows, and is at most beta |l| / (1 + s - |l|), or c |l| / (sqrt(s - |l|) +
    sqrt(s)), which is about c |ln lambda| / (2 sqrt(ln(1/x))).  So for every
    parameter the weight takes, |L(lambda x) / L(x) - 1| falls toward 0 and
    stays below expm1 of that rate.
    """

    @given(st.sampled_from(["logpow", "expsqrt"]), st.floats(min_value=0.01, max_value=10.0),
           st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=100)
    def test_ratio_tends_to_one_at_the_family_rate(self, kind, param, lam):
        # x = 10^-k, k = 2..300, keeps lambda x inside (0, 1/2], where w is L itself
        w, xs = WeightSpec(0.0, kind, param), 10.0 ** -np.arange(2, 301)
        deviation = np.abs(w(lam * xs) / w(xs) - 1.0)
        s, l = np.log(1.0 / xs), abs(math.log(lam))
        rate = (param * l / (1.0 + s - l) if kind == "logpow"
                else param * l / (np.sqrt(s - l) + np.sqrt(s)))
        assert np.all(np.diff(deviation) <= 1e-12)
        assert np.all(deviation <= np.expm1(rate) + 1e-12)


class TestParsing:
    def test_case_insensitive(self):
        w = parse_weight("POW:0.25:LOGPOW:1")
        assert w.alpha == 0.25
        assert w.sv_kind == "logpow"

    def test_rejects_garbage(self):
        for bad in ("", "pow", "pow:a", "const:", "pow:0.2:exp:1", "gauss:1"):
            with pytest.raises(DomainError):
                parse_weight(bad)

    def test_describe_round_trip(self):
        for spec in ("const:1", "pow:0.25", "pow:0.25:logpow:1", "pow:0.1:expsqrt:0.5"):
            w = parse_weight(spec)
            again = parse_weight(w.describe(), gamma=w.gamma)
            assert again.alpha == w.alpha and again.sv_kind == w.sv_kind

    @given(st.sampled_from(["const", "pow", "pow-const", "logpow", "expsqrt"]),
           st.floats(0.0, 0.5, exclude_max=True),
           st.floats(0.0, 1e6, exclude_min=True))
    @settings(max_examples=60)
    def test_describe_parses_back(self, form, alpha, param):
        try:
            w = (WeightSpec(0.0, "const", param) if form == "const" else
                 WeightSpec(alpha) if form == "pow" else
                 WeightSpec(alpha, "const", param) if form == "pow-const" else
                 WeightSpec(alpha, form, param))
        except DomainError:
            reject()
        assert parse_weight(w.describe()) == w

    def test_describe_keeps_every_digit(self):
        assert parse_weight("pow:0.123456789").describe() == "pow:0.123456789"
        assert parse_weight("const:1").describe() == "const:1"
        assert parse_weight("pow:0.25").describe() == "pow:0.25"
        assert parse_weight("pow:0.1:expsqrt:0.5").describe() == "pow:0.1:expsqrt:0.5"
        assert WeightSpec(0.25, "const", 2.0).describe() == "pow:0.25:const:2"
