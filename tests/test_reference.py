import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from varcaputo.order import affine_order, constant_order
from varcaputo.reference import (
    DomainError,
    Kind,
    QuadratureError,
    ScalarFunction,
    Side,
    SingularityError,
    caputo_quadrature,
    power_closed_form,
    power_function,
    rl_from_caputo,
)
from varcaputo.special import gamma

ORDER = affine_order(0.5, 0.1, (0.0, 1.0))  # alpha(t) = (5t + 1)/10


class TestPowerFunction:
    def test_values_and_derivatives(self):
        x = power_function(2.0, 0.0, 1.0, Side.LEFT)
        assert x.value(0.5) == 0.25
        assert x.deriv(1)(0.5) == 1.0
        assert x.deriv(2)(0.5) == 2.0
        assert x.deriv(3)(0.5) == 0.0

    def test_right_side(self):
        x = power_function(2.0, 0.0, 1.0, Side.RIGHT)
        assert x.value(0.25) == pytest.approx(0.5625, abs=1e-15)
        assert x.deriv(1)(0.25) == pytest.approx(-1.5, abs=1e-15)

    def test_fractional_exponent_endpoint(self):
        x = power_function(3.5, 0.0, 1.0, Side.LEFT)
        assert x.value(0.0) == 0.0
        assert x.deriv(1)(0.0) == 0.0
        assert x.deriv(3)(0.0) == 0.0
        # The falling factorial 3.5 * 2.5 * 1.5 * 0.5 = 6.5625; the fourth
        # derivative is infinite at a.
        assert x.deriv(4)(0.25) == pytest.approx(6.5625 * 0.25**-0.5, rel=1e-15)
        assert x.deriv(4)(0.0) == math.inf

    @pytest.mark.parametrize("gamma_exp", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("side", list(Side))
    def test_derivatives_beyond_integer_exponent_vanish(self, gamma_exp, side):
        # Zero at every point, both endpoints included, as floats and arrays;
        # the derivative of order gamma is the constant +-gamma!.
        x = power_function(gamma_exp, 0.0, 1.0, side)
        ts = np.array([0.0, 0.5, 1.0])
        m = int(gamma_exp)
        for p in range(m + 1, 5):
            assert [x.deriv(p)(float(t)) for t in ts] == [0.0, 0.0, 0.0]
            assert np.all(x.deriv(p)(ts) == 0.0)
        sign = -1.0 if side is Side.RIGHT and m % 2 else 1.0
        assert [x.deriv(m)(float(t)) for t in ts] == [sign * math.factorial(m)] * 3

    def test_zero_exponent_rejected(self):
        with pytest.raises(DomainError):
            power_function(0.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            power_closed_form(Kind.TYPE_I, Side.LEFT, 0.0, ORDER, 0.5)


class TestScalarFunction:
    def test_derivative_order_zero_rejected(self):
        x = ScalarFunction(value=lambda t: t * t, a=0.0, b=1.0)
        with pytest.raises(ValueError):
            x.deriv(0)

    def test_numeric_fallback_limited_to_order_three(self):
        x = ScalarFunction(value=lambda t: t * t, a=0.0, b=1.0)
        with pytest.raises(DomainError):
            x.deriv(4)


class TestClosedFormFrozenValues:
    """Frozen oracle values for x = t^2, alpha(t) = (5t+1)/10, t = 0.5."""

    def test_type3(self):
        v = power_closed_form(Kind.TYPE_III, Side.LEFT, 2.0, ORDER, 0.5)
        assert v == pytest.approx(0.4290892983282834, rel=1e-12)

    def test_type1(self):
        v = power_closed_form(Kind.TYPE_I, Side.LEFT, 2.0, ORDER, 0.5)
        assert v == pytest.approx(0.5592340180945445, rel=1e-12)

    def test_type2(self):
        v = power_closed_form(Kind.TYPE_II, Side.LEFT, 2.0, ORDER, 0.5)
        assert v == pytest.approx(0.5037621040726253, rel=1e-12)


class TestClosedFormVsQuadrature:
    @pytest.mark.parametrize("gamma_exp", [1.0, 2.0, 3.5])
    @pytest.mark.parametrize("kind", list(Kind))
    @pytest.mark.parametrize("side", list(Side))
    def test_agreement(self, gamma_exp, kind, side):
        x = power_function(gamma_exp, 0.0, 1.0, side)
        for t in (0.3, 0.7):
            closed = power_closed_form(kind, side, gamma_exp, ORDER, t)
            numeric = caputo_quadrature(kind, x, ORDER, t, side, tol=1e-10)
            assert numeric == pytest.approx(closed, abs=5e-8, rel=5e-8)


class TestStructuralProperties:
    def test_types_coincide_for_constant_order(self):
        order = constant_order(0.4, (0.0, 1.0))
        x = power_function(2.0, 0.0, 1.0, Side.LEFT)
        vals = [
            caputo_quadrature(kind, x, order, 0.6, Side.LEFT, tol=1e-10)
            for kind in Kind
        ]
        assert vals[0] == pytest.approx(vals[1], rel=1e-10)
        assert vals[1] == pytest.approx(vals[2], rel=1e-10)
        exact = 2.0 / gamma(2.6) * 0.6**1.6
        assert vals[2] == pytest.approx(exact, rel=1e-9)

    @pytest.mark.parametrize("kind", list(Kind))
    def test_endpoint_vanishing(self, kind):
        x = power_function(2.0, 0.0, 1.0, Side.LEFT)
        prev = None
        for d in (1e-2, 1e-3, 1e-4):
            v = abs(caputo_quadrature(kind, x, ORDER, d, Side.LEFT, tol=1e-12))
            if prev is not None:
                assert v < prev
            prev = v
        assert prev <= 1e-3

    @pytest.mark.parametrize("kind", list(Kind))
    @pytest.mark.parametrize("side", list(Side))
    def test_constant_annihilated(self, kind, side):
        zero = lambda t: 0.0
        c = ScalarFunction(value=lambda t: 1.0, a=0.0, b=1.0,
                           derivatives=(zero, zero, zero))
        v = caputo_quadrature(kind, c, ORDER, 0.5, side, tol=1e-10)
        assert abs(v) <= 1e-10


def _fd(func, t, h=1e-6):
    return (func(t + h) - func(t - h)) / (2.0 * h)


class TestQuadpackDiagnostics:
    @pytest.mark.parametrize("kind", [Kind.TYPE_I, Kind.TYPE_II])
    @pytest.mark.parametrize("side", list(Side))
    def test_roundoff_message_does_not_warn(self, kind, side):
        # The log-kernel integral of a fast oscillation meets QUADPACK's
        # roundoff diagnostic while its error estimate stays within the
        # acceptance threshold: the value is returned and nothing is warned.
        x = ScalarFunction(value=lambda t: np.sin(200.0 * t), a=0.0, b=1.0,
                           derivatives=(lambda t: 200.0 * np.cos(200.0 * t),))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = caputo_quadrature(kind, x, affine_order(0.5, 0.49), 0.9, side, tol=1e-12)
        assert math.isfinite(value)

    def test_non_finite_value_raises(self):
        # x' = 0.5 (1-t)^(-0.5) is infinite at b, within 1e-9 of t: QUADPACK
        # lands on b, and its inf or nan is an error, not a value.
        x = power_function(0.5, 0.0, 1.0, Side.RIGHT)
        with pytest.raises(QuadratureError):
            caputo_quadrature(Kind.TYPE_III, x, constant_order(0.3), 1.0 - 1e-9, Side.RIGHT)


class TestDefinitionCrossCheck:
    """Differentiate the defining integrals numerically, independent of the
    substitution-based implementation."""

    @staticmethod
    def _inner(x, a, t, alpha_val):
        # int_a^t (t-tau)^(-alpha) (x(tau)-x(a)) dtau via u = (t-tau)^(1-alpha)
        if t <= a:
            return 0.0
        e = 1.0 - alpha_val
        xa = x.value(a)

        def integrand(u):
            return x.value(t - u ** (1.0 / e)) - xa

        val, _ = quad(integrand, 0.0, (t - a) ** e, epsabs=1e-13, limit=400)
        return val / e

    def test_type2_is_full_derivative(self):
        x = power_function(2.0, 0.0, 1.0, Side.LEFT)
        t0 = 0.5

        def outer(t):
            return self._inner(x, 0.0, t, ORDER.alpha(t)) / gamma(1.0 - ORDER.alpha(t))

        direct = _fd(outer, t0)
        impl = caputo_quadrature(Kind.TYPE_II, x, ORDER, t0, Side.LEFT, tol=1e-12)
        assert direct == pytest.approx(impl, rel=1e-5)

    def test_type1_keeps_gamma_outside(self):
        x = power_function(2.0, 0.0, 1.0, Side.LEFT)
        t0 = 0.5

        def outer(t):
            return self._inner(x, 0.0, t, ORDER.alpha(t))

        direct = _fd(outer, t0) / gamma(1.0 - ORDER.alpha(t0))
        impl = caputo_quadrature(Kind.TYPE_I, x, ORDER, t0, Side.LEFT, tol=1e-12)
        assert direct == pytest.approx(impl, rel=1e-5)


class TestRiemannLiouville:
    def test_zero_boundary_passthrough(self):
        v = rl_from_caputo(Kind.TYPE_I, Side.LEFT, 1.25, 0.0, ORDER, 0.5)
        assert v == 1.25

    def test_type3_rejected(self):
        with pytest.raises(DomainError):
            rl_from_caputo(Kind.TYPE_III, Side.LEFT, 1.0, 1.0, ORDER, 0.5)

    def test_endpoint_singular(self):
        with pytest.raises(SingularityError):
            rl_from_caputo(Kind.TYPE_I, Side.LEFT, 0.0, 1.0, ORDER, 0.0)

    def test_constant_function_against_direct_derivative(self):
        # For x identically 1 the inner integral is (t-a)^(1-alpha)/(1-alpha);
        # differentiate that expression numerically for both conventions.
        t0 = 0.5

        def inner(t):
            al = ORDER.alpha(t)
            return t ** (1.0 - al) / (1.0 - al)

        type1 = _fd(inner, t0) / gamma(1.0 - ORDER.alpha(t0))
        type2 = _fd(lambda t: inner(t) / gamma(1.0 - ORDER.alpha(t)), t0)

        got1 = rl_from_caputo(Kind.TYPE_I, Side.LEFT, 0.0, 1.0, ORDER, t0)
        got2 = rl_from_caputo(Kind.TYPE_II, Side.LEFT, 0.0, 1.0, ORDER, t0)
        assert got1 == pytest.approx(type1, rel=1e-6)
        assert got2 == pytest.approx(type2, rel=1e-6)
