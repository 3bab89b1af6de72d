import math

import mpmath
import numpy as np
import pytest
from scipy import special as scipy_special

from varcaputo.special import (
    DomainError,
    PoleError,
    _digamma,
    _signed_binomials,
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

    def test_unchecked_digamma_gives_the_same_bits(self):
        # The closed forms call _digamma at positive arguments: 1 - alpha in
        # (0, 1), 2 - alpha in (1, 2) and gamma - alpha + 2 > 1.  It skips only
        # digamma's checks, so every value keeps its bits, on both sides of
        # the reflection at 1/2 and of the series at 10, and at negative
        # arguments off the poles too.
        xs = [1e-300, 1e-12, 0.1, 0.49999999999999994, 0.5, 0.77, 1.0, 1.5, 9.999999999999998,
              10.0, 170.5, 1e200, -0.5, -2.25, -1e-9]
        for x in [*xs, *np.linspace(1e-3, 12.0, 997).tolist()]:
            assert _digamma(x).hex() == digamma(x).hex(), x

    def test_matches_log_gamma_derivative(self):
        h = 1e-5
        for x in np.linspace(0.5, 20.0, 100):
            x = float(x)
            fd = (math.log(gamma(x + h)) - math.log(gamma(x - h))) / (2.0 * h)
            assert abs(digamma(x) - fd) <= 1e-6


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

    @pytest.mark.parametrize("count", [1, 2, 7, 301, 4096, 4097, 4098])
    @pytest.mark.parametrize("nu", [-0.37, 0.5, 1.7, -2.0])
    def test_row_matches_recurrence(self, nu, count):
        # The preallocated row, bit for bit: 1, then each entry the last
        # times (k - nu) / (k + 1).  Counts up to 4096 take k and k + 1 from
        # the module's one index row, longer rows build their own.
        want = [1.0]
        for k in range(count - 1):
            want.append(want[-1] * ((k - nu) / (k + 1.0)))
        assert _signed_binomials(nu, count).tobytes() == np.array(want).tobytes()

    def test_integer_nu(self):
        assert signed_binomial(3.0, 2) == 3.0
        assert signed_binomial(3.0, 5) == 0.0
        # nu = -2: (-1)^k C(-2, k) = C(k+1, k), finite; no Gamma pole is hit.
        for k in range(6):
            assert signed_binomial(-2.0, k) == math.comb(k + 1, k)

    # 10**30 and 2**62 are past NumPy's largest float64 row, so they are
    # refused before any allocation; no size below that limit is tried.
    @pytest.mark.parametrize("p", [-1, 1.5, math.inf, math.nan, 10**30, 2**62])
    def test_non_integer_or_negative_p_rejected(self, p):
        with pytest.raises(DomainError):
            signed_binomial(0.5, p)


class TestGammaRatio:
    def test_negative_arguments(self):
        # Gamma(0.5) / Gamma(-0.5) = -0.5 by the recurrence.
        assert gamma_ratio(0.5, -0.5) == pytest.approx(-0.5, rel=1e-13)

    def test_denominator_pole_gives_zero(self):
        assert gamma_ratio(3.0, -2.0) == 0.0

    @pytest.mark.parametrize("den", [-2.0, 0.5])
    def test_numerator_pole_rejected(self, den):
        # Whether or not the denominator sits at a pole too.
        with pytest.raises(PoleError):
            gamma_ratio(-1.0, den)

    @pytest.mark.parametrize("num, den", [(1e308, 1e308 - 0.5), (2.0, 1e308), (1e308, 2.0)])
    def test_non_finite_log_ratio_raises(self, num, den):
        # log Gamma overflows to inf past about 2.6e305: inf - inf is no ratio.
        with pytest.raises(OverflowError):
            gamma_ratio(num, den)

    def test_large_arguments(self):
        # Gamma(171.5)/Gamma(170.5) = 170.5; both factors overflow alone.
        assert gamma_ratio(171.5, 170.5) == pytest.approx(170.5, rel=1e-12)


#: Positive points, negative non-integers, and points within 1e-6 and 1e-9 of
#: the poles 0, -1, ..., -6, where Gamma and Psi are large and change fast.
MPMATH_GRID = sorted(
    [float(x) for x in np.linspace(0.05, 30.0, 25)] + [0.5, 1.0, 1.4616321449683622, 2.0]
    + [-0.5, -1.3, -2.5, -3.7, -5.5, -10.25, -20.5]
    + [k + d for k in range(-6, 1) for d in (1e-9, -1e-9, 1e-6, -1e-6) if k + d < 0 or d > 0]
)


def _close(got: float, ref, rtol: float = 1e-13) -> bool:
    return abs(got - float(ref)) <= rtol * max(1.0, abs(float(ref)))


class TestAgainstMpmath:
    """gamma, gamma_ratio and digamma to 1e-13 of mpmath, relative to
    max(1, |value|), on a grid that includes negative non-integers within
    1e-9 of the poles."""

    def test_gamma(self):
        with mpmath.workdps(40):
            bad = [x for x in MPMATH_GRID if not _close(gamma(x), mpmath.gamma(mpmath.mpf(x)))]
        assert bad == []

    def test_digamma(self):
        with mpmath.workdps(40):
            bad = [x for x in MPMATH_GRID if not _close(digamma(x), mpmath.digamma(mpmath.mpf(x)))]
        assert bad == []

    def test_gamma_ratio(self):
        with mpmath.workdps(40):
            ref = {x: mpmath.gamma(mpmath.mpf(x)) for x in MPMATH_GRID}
            bad = [(num, den) for num in MPMATH_GRID for den in MPMATH_GRID
                   if not _close(gamma_ratio(num, den), ref[num] / ref[den])]
        assert bad == []

    def test_gamma_ratio_sign_matches_gammasgn(self):
        for x in MPMATH_GRID:
            sign = float(scipy_special.gammasgn(x))
            assert math.copysign(1.0, gamma_ratio(x, 2.0)) == sign
            assert math.copysign(1.0, gamma_ratio(2.0, x)) == sign
