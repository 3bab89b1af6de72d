import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from varcaputo.expansion import ExpansionParams, approximate
from varcaputo.order import affine_order, constant_order, order_from_callables
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
from varcaputo.special import digamma, gamma, gamma_ratio

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

    @pytest.mark.parametrize("gamma_exp", [0.5, 1.0, 2.0, 3.5])
    @pytest.mark.parametrize("side", list(Side))
    def test_array_path_matches_float_path(self, gamma_exp, side):
        # Arrays with nodes on the operator's end take the end branch, and
        # arrays without take the plain power; every entry equals the float
        # path bit for bit, with at_end (0, the constant or inf) at the end
        # and no RuntimeWarning from 0 ** negative.  A float t takes the
        # first branch; np.float64 scalars (a float subclass) and 0-d arrays
        # (whose distance is an np.float64) must give the same bits, nan
        # included.
        x = power_function(gamma_exp, 0.0, 1.0, side)
        end = 0.0 if side is Side.LEFT else 1.0
        with_end = np.array([end, 0.25, end, 0.5, 1.0 - end, end])
        inside = np.array([0.25, 0.5, 0.75, 1.0 - end])
        with_nan = np.array([0.25, math.nan, end])
        for p in range(5):
            fn = x.value if p == 0 else x.deriv(p)
            factor = math.prod(gamma_exp - j for j in range(p))
            scale = factor if side is Side.LEFT else (-1.0) ** p * factor
            want_end = 0.0 if p < gamma_exp else (scale if p == gamma_exp or factor == 0.0 else math.inf)
            for ts in (with_end, inside, with_nan):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = fn(ts)
                    want = np.array([fn(float(t)) for t in ts])
                    scalars = [np.float64(t) for t in ts]
                    zero_d = [np.array(t) for t in ts]
                    others = {"np.float64": [fn(t) for t in scalars],
                              "0-d array": [fn(t) for t in zero_d]}
                assert got.tobytes() == want.tobytes(), (p, ts)
                assert all(type(fn(float(t))) is float for t in ts), (p, ts)
                for name, vals in others.items():
                    assert np.array(vals).tobytes() == want.tobytes(), (p, ts, name)
            assert all(v == want_end for v in fn(with_end)[with_end == end]), p
            assert all(fn(t) == want_end for t in (end, np.float64(end), np.array(end))), p

    def test_zero_exponent_rejected(self):
        with pytest.raises(DomainError):
            power_function(0.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            power_closed_form(Kind.TYPE_I, Side.LEFT, 0.0, ORDER, 0.5)

    @pytest.mark.parametrize("gamma_exp", [0.0, -1.0, -math.inf, math.inf, math.nan])
    @pytest.mark.parametrize("kind", list(Kind))
    def test_closed_form_rejects_exponent_outside_domain(self, gamma_exp, kind):
        # The Gamma ratios skip special.gamma_ratio's checks, so the exponent
        # check is the only guard; it runs before the end test at t = a too.
        for t in (0.0, 0.5):
            with pytest.raises(DomainError, match="positive and finite"):
                power_closed_form(kind, Side.LEFT, gamma_exp, ORDER, t)

    @pytest.mark.parametrize("gamma_exp", [1e-300, 0.5, 1.0, 2.0, 3.5, 170.5, 1e200])
    @pytest.mark.parametrize("kind", list(Kind))
    @pytest.mark.parametrize("side", list(Side))
    def test_closed_form_ratios_are_gamma_ratio_bits(self, gamma_exp, kind, side):
        # The inlined Gamma ratios equal special.gamma_ratio's bit for bit:
        # the reference below is the formula written with it.
        for t in (1e-9, 0.3, 0.5, 1.0 - 1e-9):
            dist = t if side is Side.LEFT else 1.0 - t
            sgn = 1.0 if side is Side.LEFT else -1.0
            alpha = ORDER.alpha(t)
            ap = 0.0 if kind is Kind.TYPE_III else ORDER.alpha_prime(t)
            want = gamma_ratio(gamma_exp + 1.0, gamma_exp - alpha + 1.0) * dist ** (gamma_exp - alpha)
            if ap != 0.0:
                bracket = math.log(dist) - digamma(gamma_exp - alpha + 2.0)
                if kind is Kind.TYPE_I:
                    bracket += digamma(1.0 - alpha)
                want -= sgn * (ap * gamma_ratio(gamma_exp + 1.0, gamma_exp - alpha + 2.0)
                               * dist ** (gamma_exp - alpha + 1.0) * bracket)
            assert power_closed_form(kind, side, gamma_exp, ORDER, t).hex() == want.hex(), t


    @pytest.mark.parametrize("gamma_exp", [math.nan, math.inf, -1.0, 1.2e77, 1e300])
    def test_non_finite_derivative_factors_rejected(self, gamma_exp):
        # Beyond about 1.16e77 the factor gamma (gamma-1) (gamma-2) (gamma-3)
        # of the fourth derivative overflows; x'' at 0.5 was inf * 0 = nan.
        with pytest.raises(DomainError):
            power_function(gamma_exp, 0.0, 1.0)

    def test_largest_exponent_accepted(self):
        x = power_function(1e77, 0.0, 1.0)
        assert math.isfinite(x.deriv(4)(1.0))


class TestScalarFunction:
    def test_derivative_order_zero_rejected(self):
        x = ScalarFunction(value=lambda t: t * t, a=0.0, b=1.0)
        with pytest.raises(ValueError):
            x.deriv(0)

    def test_numeric_fallback_limited_to_order_three(self):
        x = ScalarFunction(value=lambda t: t * t, a=0.0, b=1.0)
        with pytest.raises(DomainError):
            x.deriv(4)

    @pytest.mark.parametrize("name", ["exp", "sin3t", "cubic"])
    @pytest.mark.parametrize("p, tol", [(1, 1e-7), (2, 1e-3), (3, 1e-2)])
    def test_numeric_derivative_accuracy(self, name, p, tol):
        # A function given by its values only: x^(p) is one p-th difference,
        # accurate on the whole of [0, 1], ends included, and a float call
        # gives the bits of the matching array entry.
        value, *exact = {
            "exp": (np.exp, np.exp, np.exp, np.exp),
            "sin3t": (lambda t: np.sin(3.0 * t), lambda t: 3.0 * np.cos(3.0 * t),
                      lambda t: -9.0 * np.sin(3.0 * t), lambda t: -27.0 * np.cos(3.0 * t)),
            "cubic": (lambda t: t * t * (1.0 - t) + 0.5 * t, lambda t: 2.0 * t - 3.0 * t * t + 0.5,
                      lambda t: 2.0 - 6.0 * t, lambda t: -6.0 + 0.0 * t),
        }[name]
        dfn = ScalarFunction(value=value, a=0.0, b=1.0).deriv(p)
        ts = np.linspace(0.0, 1.0, 1001)
        on_array = dfn(ts)
        assert np.max(np.abs(on_array - exact[p - 1](ts))) <= tol
        on_floats = np.array([dfn(float(t)) for t in ts])
        assert on_floats.tobytes() == on_array.tobytes()

    def test_numeric_derivative_on_short_domain(self):
        # On [0, 1e-4] the four points of x''' cannot take their usual step
        # 1.2e-4; they spread over the domain and stay inside it.
        def value(t):
            assert np.all((0.0 <= t) & (t <= 1e-4)), t
            return t**3

        x = ScalarFunction(value=value, a=0.0, b=1e-4)
        for t in (0.0, 3e-5, 1e-4):
            assert x.deriv(3)(t) == pytest.approx(6.0, rel=1e-6)


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

    @pytest.mark.parametrize("gamma_exp", [0.5, 2.0, 3.5])
    @pytest.mark.parametrize("side", list(Side))
    def test_kinds_agree_bitwise_at_constant_order(self, gamma_exp, side):
        # With alpha' = 0 types I and II are type III: the same integral at
        # the same tolerance, not a nearby value.
        order = constant_order(0.4, (0.0, 1.0))
        x = power_function(gamma_exp, 0.0, 1.0, side)
        for t in (0.3, 0.7):
            vals = {caputo_quadrature(kind, x, order, t, side) for kind in Kind}
            assert len(vals) == 1

    @pytest.mark.parametrize("gamma_exp", [0.5, 1.0, 2.0, 3.5])
    @pytest.mark.parametrize("side", list(Side))
    def test_closed_forms_agree_bitwise_at_constant_order(self, gamma_exp, side):
        # With alpha' = 0 types I and II return type III's leading term
        # itself, at both ends of [a, b] too.
        order = constant_order(0.4, (0.0, 1.0))
        for t in (0.0, 1e-9, 0.3, 0.7, 1.0 - 1e-9, 1.0):
            vals = {power_closed_form(kind, side, gamma_exp, order, t).hex() for kind in Kind}
            assert len(vals) == 1, (t, vals)

    @pytest.mark.parametrize("kind", list(Kind))
    def test_alpha_outside_unit_interval_rejected(self, kind):
        # alpha is 0.5 on every point of the 101-point admission grid, so the
        # order is admitted, yet alpha(5e-4) = 1.1: every point route rejects
        # it there with the same text, naming t and alpha(t), the RL
        # conversion (types I and II only) included.
        order = order_from_callables(
            lambda t: 0.5 + 0.6 * np.sin(1000.0 * np.pi * t),
            lambda t: 600.0 * np.pi * np.cos(1000.0 * np.pi * t),
        )
        x = power_function(2.0, 0.0, 1.0, Side.LEFT)
        routes = [
            lambda: caputo_quadrature(kind, x, order, 5e-4),
            lambda: power_closed_form(kind, Side.LEFT, 2.0, order, 5e-4),
            lambda: approximate(kind, x, order, 5e-4, Side.LEFT, ExpansionParams(1, 6)),
        ]
        if kind is not Kind.TYPE_III:
            routes.append(lambda: rl_from_caputo(kind, Side.LEFT, 0.0, 1.0, order, 5e-4))
        text = r"alpha must lie in \(0,1\), got alpha\(0.0005\) = 1.1$"
        for route in routes:
            with pytest.raises(DomainError, match=text):
                route()


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

    @pytest.mark.parametrize("kind", [Kind.TYPE_I, Kind.TYPE_II])
    def test_type2_as_robust_as_type1_near_right_end(self, kind):
        # x' is infinite at b, 1e-6 from t.  Types I and II run the same two
        # integrals of x' and differ only in a constant, so neither raises.
        order = affine_order(0.5, 0.49)
        x = power_function(0.5, 0.0, 1.0, Side.RIGHT)
        t = 1.0 - 1e-6
        value = caputo_quadrature(kind, x, order, t, Side.RIGHT)
        closed = power_closed_form(kind, Side.RIGHT, 0.5, order, t)
        assert value == pytest.approx(closed, rel=1e-8)

    def test_non_finite_value_raises(self):
        # x' = 0.5 (1-t)^(-0.5) is infinite at b, within 1e-9 of t: QUADPACK
        # lands on b, and its inf or nan is an error, not a value.
        x = power_function(0.5, 0.0, 1.0, Side.RIGHT)
        with pytest.raises(QuadratureError):
            caputo_quadrature(Kind.TYPE_III, x, constant_order(0.3), 1.0 - 1e-9, Side.RIGHT)


#: Functions for the definition cross-check, by test id.
CROSS_CHECK_FUNCTIONS = {
    "t2": ScalarFunction(value=lambda t: t * t, a=0.0, b=1.0, derivatives=(lambda t: 2.0 * t,)),
    "exp": ScalarFunction(value=np.exp, a=0.0, b=1.0, derivatives=(np.exp,)),
    "sin3t": ScalarFunction(value=lambda t: np.sin(3.0 * t), a=0.0, b=1.0,
                            derivatives=(lambda t: 3.0 * np.cos(3.0 * t),)),
}
CROSS_CHECK_ORDERS = {"increasing": ORDER, "decreasing": affine_order(-0.4, 0.8, (0.0, 1.0))}


@pytest.mark.parametrize("x_id", list(CROSS_CHECK_FUNCTIONS))
@pytest.mark.parametrize("order_id", list(CROSS_CHECK_ORDERS))
@pytest.mark.parametrize("side", list(Side), ids=lambda side: side.value)
class TestDefinitionCrossCheck:
    """Differentiate the defining integrals numerically, independent of the
    substitution-based implementation.  The implementation never integrates
    x itself, so this also checks the integration by parts behind its type
    II term."""

    @staticmethod
    def _inner(x, side, t, alpha_val):
        # int_0^dist s^(-alpha) (x(t - sgn s) - x(end)) ds via u = s^(1-alpha),
        # the integral over tau between end and t with s = |t - tau|
        sgn, end = (1.0, x.a) if side is Side.LEFT else (-1.0, x.b)
        dist = sgn * (t - end)
        if dist <= 0.0:
            return 0.0
        e = 1.0 - alpha_val
        x_end = x.value(end)

        def integrand(u):
            return x.value(t - sgn * u ** (1.0 / e)) - x_end

        val, _ = quad(integrand, 0.0, dist**e, epsabs=1e-13, limit=400)
        return val / e

    def test_type2_is_full_derivative(self, side, order_id, x_id):
        x, order = CROSS_CHECK_FUNCTIONS[x_id], CROSS_CHECK_ORDERS[order_id]
        sgn = 1.0 if side is Side.LEFT else -1.0
        t0 = 0.5

        def outer(t):
            return self._inner(x, side, t, order.alpha(t)) / gamma(1.0 - order.alpha(t))

        direct = sgn * _fd(outer, t0)
        impl = caputo_quadrature(Kind.TYPE_II, x, order, t0, side, tol=1e-12)
        assert direct == pytest.approx(impl, rel=1e-5)

    def test_type1_keeps_gamma_outside(self, side, order_id, x_id):
        x, order = CROSS_CHECK_FUNCTIONS[x_id], CROSS_CHECK_ORDERS[order_id]
        sgn = 1.0 if side is Side.LEFT else -1.0
        t0 = 0.5

        def outer(t):
            return self._inner(x, side, t, order.alpha(t))

        direct = sgn * _fd(outer, t0) / gamma(1.0 - order.alpha(t0))
        impl = caputo_quadrature(Kind.TYPE_I, x, order, t0, side, tol=1e-12)
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
