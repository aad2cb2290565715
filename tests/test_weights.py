"""Weight families: evaluation, windows, tail integral, dyadic sums."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from weplab.errors import DomainError
from weplab.weights import (WeightSpec, _auto_gamma, dyadic_sum, integral_condition, parse_weight,
                            validate_monotonicity)

mp.mp.dps = 30


def geometric_ratio(alpha, terms):
    """Closed-form oracle for the dyadic ratio of a pure power weight."""
    r = 4.0 ** (-alpha)
    return (1.0 - r ** terms) / (1.0 - r)


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


class TestIntegralCondition:
    def test_constant_weight_value(self):
        # substitution u = 1/s turns the integral into E1(2); mpmath oracle
        target = float(mp.e1(2))
        entry = integral_condition(parse_weight("const:1"), [1.0], tol=1e-9)[0]
        assert entry.finite
        assert entry.value == pytest.approx(target, abs=1e-6)

    def test_power_weight_value(self):
        # substitution u = s^(-1/2) gives 2 E1(c / sqrt(gamma))
        w = parse_weight("pow:0.25")
        target = 2.0 * float(mp.e1(1.0 / math.sqrt(w.gamma)))
        entry = integral_condition(w, [1.0], tol=1e-9)[0]
        assert entry.finite
        assert entry.value == pytest.approx(target, abs=1e-7)

    def test_boundary_weight_diverges(self):
        w = WeightSpec(alpha=0.5, unchecked=True)
        entry = integral_condition(w, [1.0])[0]
        assert not entry.finite

    def test_subnormal_window_diverges_without_warning(self):
        # near s = 1e-310 the integrand overflows to inf, its right value for alpha > 1/2;
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

    @given(st.floats(min_value=0.05, max_value=0.45),
           st.floats(min_value=1e-4, max_value=0.02))
    @settings(max_examples=30)
    def test_pure_power_ratio_weight_independent(self, alpha, theta):
        # the ratio of a pure power weight depends only on alpha and terms
        w = parse_weight(f"pow:{alpha}")
        assert dyadic_sum(w, theta, 64) == pytest.approx(
            geometric_ratio(alpha, 64), rel=1e-10)


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
