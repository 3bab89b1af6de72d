import math

import numpy as np
import pytest

from varcaputo.special import (
    DomainError,
    PoleError,
    beta,
    digamma,
    gamma,
    gamma_ratio,
    signed_binomial,
)

SQRT_PI = math.sqrt(math.pi)
EULER_GAMMA = 0.5772156649015329


class TestGamma:
    def test_factorials(self):
        assert gamma(1.0) == pytest.approx(1.0, rel=1e-14)
        assert gamma(5.0) == pytest.approx(24.0, rel=1e-14)

    def test_half(self):
        assert gamma(0.5) == pytest.approx(SQRT_PI, rel=1e-14)

    def test_poles(self):
        for x in (0.0, -1.0, -7.0):
            with pytest.raises(PoleError):
                gamma(x)

    def test_overflow(self):
        with pytest.raises(OverflowError):
            gamma(200.0)

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            gamma(float("nan"))

    def test_recurrence_grid(self):
        for x in np.linspace(0.1, 50.0, 500):
            x = float(x)
            lhs = gamma(x + 1.0)
            assert abs(lhs - x * gamma(x)) / abs(lhs) <= 1e-12

    def test_negative_arguments(self):
        # Reflection: Gamma(-0.5) = -2 sqrt(pi)
        assert gamma(-0.5) == pytest.approx(-2.0 * SQRT_PI, rel=1e-13)


class TestDigamma:
    def test_at_one(self):
        assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-13)

    def test_at_two(self):
        assert digamma(2.0) == pytest.approx(1.0 - EULER_GAMMA, abs=1e-13)

    def test_at_half(self):
        assert digamma(0.5) == pytest.approx(-EULER_GAMMA - 2.0 * math.log(2.0), abs=1e-13)

    def test_pole(self):
        with pytest.raises(PoleError):
            digamma(-3.0)

    def test_recurrence_grid(self):
        for x in np.linspace(0.1, 50.0, 500):
            x = float(x)
            assert abs(digamma(x + 1.0) - digamma(x) - 1.0 / x) <= 1e-11

    def test_matches_log_gamma_derivative(self):
        h = 1e-5
        for x in np.linspace(0.5, 20.0, 100):
            x = float(x)
            fd = (math.log(gamma(x + h)) - math.log(gamma(x - h))) / (2.0 * h)
            assert abs(digamma(x) - fd) <= 1e-6


class TestBeta:
    def test_unit(self):
        assert beta(1.0, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_integers(self):
        assert beta(2.0, 3.0) == pytest.approx(1.0 / 12.0, rel=1e-13)

    def test_half_argument(self):
        # Oracle: brute-force integral of s^2 (1-s)^(-1/2) over (0,1) = 16/15.
        assert beta(3.0, 0.5) == pytest.approx(16.0 / 15.0, rel=1e-12)

    def test_large_arguments_no_overflow(self):
        v = beta(300.0, 400.0)
        assert 0.0 < v < 1.0

    def test_domain(self):
        with pytest.raises(DomainError):
            beta(-1.0, 2.0)
        with pytest.raises(DomainError):
            beta(1.0, 0.0)


class TestSignedBinomial:
    def test_p_zero_exact(self):
        assert signed_binomial(0.5, 0) == 1.0
        assert signed_binomial(1.7, 0) == 1.0

    def test_half(self):
        assert signed_binomial(0.5, 1) == pytest.approx(-0.5, rel=1e-14)
        assert signed_binomial(0.5, 2) == pytest.approx(-0.125, rel=1e-13)

    @pytest.mark.parametrize("nu", [0.3, 0.5, 1.7])
    def test_product_formula(self, nu):
        for p in range(0, 21):
            prod = 1.0
            for j in range(p):
                prod *= nu - j
            expected = prod / math.factorial(p)
            got = signed_binomial(nu, p) * (-1.0) ** p
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("nu", [0.3, 0.5, 1.7])
    def test_beyond_float_factorials(self, nu):
        # p! overflows a double from p = 171 on; the coefficient itself stays
        # finite and follows sb_p = sb_(p-1) (p - 1 - nu) / p past that point.
        expected = signed_binomial(nu, 160)
        for p in range(161, 221):
            expected *= (p - 1 - nu) / p
            got = signed_binomial(nu, p)
            assert math.isfinite(got)
            assert got == pytest.approx(expected, rel=1e-12)

    def test_integer_nu(self):
        assert signed_binomial(3.0, 2) == 3.0
        assert signed_binomial(3.0, 5) == 0.0
        with pytest.raises(PoleError):
            signed_binomial(-2.0, 1)


class TestGammaRatio:
    def test_negative_arguments(self):
        # Gamma(0.5) / Gamma(-0.5) = -0.5 by the recurrence.
        assert gamma_ratio(0.5, -0.5) == pytest.approx(-0.5, rel=1e-13)

    def test_denominator_pole_gives_zero(self):
        assert gamma_ratio(3.0, -2.0) == 0.0

    def test_large_arguments(self):
        # Gamma(171.5)/Gamma(170.5) = 170.5; both factors overflow alone.
        assert gamma_ratio(171.5, 170.5) == pytest.approx(170.5, rel=1e-12)

    @pytest.mark.parametrize("num,den", [(2.5, 1.5), (-0.3, -1.3), (0.7, -2.3)])
    def test_factorial_divisor(self, num, den):
        # k! divides the ratio exactly where it is a double, and the result
        # stays finite where k! alone would overflow.
        base = gamma_ratio(num, den)
        for k in range(0, 21):
            assert gamma_ratio(num, den, k) == pytest.approx(base / math.factorial(k), rel=1e-13)
        assert gamma_ratio(num, den, 0) == base
        assert 0.0 < abs(gamma_ratio(num + 200, den, 200)) < math.inf
