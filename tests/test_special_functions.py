import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factprimes import (DomainError, QuadratureError, QuadratureSpec,
                        exp_integral, integrate, lambert_w, log_integral,
                        log_integral_expansion, special_functions)


def quad_exp_integral(a, z):
    """Independent oracle: truncated defining integral by adaptive Simpson.

    The tail beyond T = 1 + 60/z is below exp(-z-60)/z, negligible at the
    tolerances used here.
    """
    t_max = 1.0 + 60.0 / z
    spec = QuadratureSpec(abs_tol=1e-13)
    value, _ = integrate(lambda t: math.exp(-t * z) * t**-a, 1.0, t_max, spec)
    return value


class TestIntegrate:
    def test_polynomial_exactness(self):
        value, err = integrate(lambda x: x * x, 0.0, 1.0)
        assert value == pytest.approx(1 / 3, abs=1e-14)
        assert err <= 1e-10

    def test_validation(self):
        with pytest.raises(DomainError):
            integrate(math.sin, 1.0, 1.0)
        blows_up_at_zero = lambda x: float("inf") if x == 0 else 1.0 / x
        with pytest.raises(DomainError):
            integrate(blows_up_at_zero, -1.0, 1.0)  # inf at the midpoint

    def test_depth_exhaustion_carries_best_estimate(self):
        spiky = lambda x: 1.0 / (1e-12 + (x - 0.5) ** 2)
        spec = QuadratureSpec(abs_tol=1e-12, max_depth=4)
        with pytest.raises(QuadratureError) as exc:
            integrate(spiky, 0.0, 1.0, spec)
        assert math.isfinite(exc.value.best_value)

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            QuadratureSpec(abs_tol=0.0)


class TestExpIntegral:
    def test_reference_values(self):
        assert exp_integral(1, 1.0) == pytest.approx(0.2193839344, abs=1e-10)
        assert exp_integral(1, 2.0) == pytest.approx(0.0489005107, abs=1e-10)
        assert exp_integral(1, 50.0) < 1e-23

    def test_domain(self):
        with pytest.raises(DomainError):
            exp_integral(1, 0.0)
        with pytest.raises(DomainError):
            exp_integral(1, -2.0)
        with pytest.raises(DomainError):
            exp_integral(0, 1.0)

    @pytest.mark.parametrize("z", [1.0, 2.0, 3.0])
    def test_against_quadrature_oracle(self, z):
        assert exp_integral(1, z) == pytest.approx(quad_exp_integral(1, z), abs=1e-10)

    @pytest.mark.parametrize("a", [1, 2])
    @pytest.mark.parametrize("z", [0.5, 1.0, 3.0])
    def test_recurrence(self, a, z):
        lhs = exp_integral(a + 1, z)
        rhs = (math.exp(-z) - z * exp_integral(a, z)) / a
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_series_cf_agree_at_switch(self):
        # both methods should produce the same value near z = 1
        below = exp_integral(1, 1.0)        # series side
        above = exp_integral(1, 1.0 + 1e-12)  # continued-fraction side
        assert below == pytest.approx(above, rel=1e-9)


class TestLambertW:
    def test_fixed_points(self):
        assert lambert_w(0.0) == 0.0
        assert lambert_w(math.e) == pytest.approx(1.0, abs=1e-12)
        assert lambert_w(1.0) == pytest.approx(0.5671432904, abs=1e-10)
        assert lambert_w(-math.exp(-1)) == -1.0

    @pytest.mark.parametrize("x", [1e-3, 1.0, 10.0, 1e6])
    def test_round_trip_contract(self, x):
        w = lambert_w(x)
        assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, abs(x))

    def test_domain(self):
        with pytest.raises(DomainError):
            lambert_w(-0.5)

    @pytest.mark.parametrize("x", [math.nan, math.inf])
    def test_non_finite_rejected(self, x):
        with pytest.raises(DomainError):
            lambert_w(x)

    def test_unconverged_iteration_raises(self, monkeypatch):
        monkeypatch.setattr(special_functions, "_HALLEY_MAX_ITER", 1)
        with pytest.raises(QuadratureError) as exc:
            lambert_w(1e6)
        w = exc.value.best_value
        assert exc.value.err_estimate == abs(w * math.exp(w) - 1e6) > 1e-3

    @given(x=st.floats(min_value=-0.36, max_value=1e8,
                       allow_nan=False, allow_infinity=False))
    @settings(max_examples=200)
    def test_round_trip_property(self, x):
        w = lambert_w(x)
        assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, abs(x))


class TestLogIntegralExpansion:
    def test_single_term_closed_form(self):
        n = math.e**2
        value, _ = log_integral_expansion(n, 1)
        assert value == pytest.approx(n / 2 - 2 / math.log(2), abs=1e-12)

    def test_remainder_identity(self):
        # value(N) + N! * integral of log^-(N+1) == integral of 1/log
        n, terms = 1000.0, 3
        value, _ = log_integral_expansion(n, terms)
        remainder, _ = integrate(lambda x: math.log(x) ** -(terms + 1), 2.0, n)
        li, _ = log_integral(n)
        assert value + math.factorial(terms) * remainder == \
            pytest.approx(li, abs=1e-8)

    def test_five_term_threshold(self):
        # the inequality li(n) > n * sum_{k<=5} (k-1)!/log^k n flips near 563.7
        for n, expected in ((564, True), (500, False)):
            li, _ = log_integral(n)
            lg = math.log(n)
            s5 = n * sum(math.factorial(k - 1) / lg**k for k in range(1, 6))
            assert (li > s5) is expected

    def test_validation(self):
        with pytest.raises(DomainError):
            log_integral_expansion(2.0, 3)
        with pytest.raises(DomainError):
            log_integral_expansion(100.0, 21)
        with pytest.raises(DomainError):
            log_integral(1.2)

    def test_log_integral_at_lower_limit(self):
        assert log_integral(2) == (0.0, 0.0)
