import math

import numpy as np
import pytest

import varcaputo.expansion as expansion
from varcaputo.expansion import (
    ApproxResult,
    DerivativeBound,
    ExpansionParams,
    MissingBoundError,
    approx_type1,
    approx_type2,
    approx_type3,
    approximate,
    coefficients_left,
    coefficients_right,
    derivative_bound,
    error_bound,
    moments,
)
from varcaputo.order import OrderFunction, affine_order, constant_order
from varcaputo.reference import (
    Kind,
    QuadratureError,
    ScalarFunction,
    Side,
    caputo_quadrature,
    power_closed_form,
    power_function,
)
from varcaputo.special import gamma

ORDER_A = affine_order(0.5, 0.49, (0.0, 1.0))  # (50t + 49)/100
ORDER_B = affine_order(0.1, 0.5, (0.0, 1.0))   # (t + 5)/10


class TestCoefficients:
    def test_frozen_values(self):
        c = coefficients_left(0.5, ExpansionParams(1, 1))
        # A_1 collapses to 1/Gamma(1.5) + Gamma(0.5)/(Gamma(-0.5) 1!)/Gamma(1.5)
        assert c.head[0] == pytest.approx(0.5641895835477563, rel=1e-13)
        c2 = coefficients_left(0.5, ExpansionParams(1, 2))
        assert c2.tail[1] == pytest.approx(0.2820947917738782, rel=1e-13)

    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.9])
    @pytest.mark.parametrize("n,N", [(1, 4), (2, 6)])
    def test_leading_tail_is_reciprocal_gamma(self, alpha, n, N):
        c = coefficients_left(alpha, ExpansionParams(n, N))
        assert c.tail[0] == pytest.approx(1.0 / gamma(1.0 - alpha), rel=1e-12)

    def test_right_side_signs(self):
        params = ExpansionParams(2, 5)
        left = coefficients_left(0.35, params)
        right = coefficients_right(0.35, params)
        for p in range(1, 3):
            assert right.head[p - 1] == (-1.0) ** p * left.head[p - 1]
        assert np.array_equal(right.tail, -left.tail)

    @pytest.mark.parametrize("n", [1, 3])
    def test_finite_beyond_float_factorials(self, n):
        # (p-n)! and l! overflow a double from 171 on; the coefficients do not.
        # B_(p+1)/B_p = (alpha-n+p)/(p-n+1) must hold on both sides of 171.
        alpha = 0.37
        c = coefficients_left(alpha, ExpansionParams(n, 200))
        assert np.all(np.isfinite(c.head)) and np.all(np.isfinite(c.tail))
        for k in range(160, 200 - n):
            p = k + n
            assert c.tail[k + 1] == pytest.approx(c.tail[k] * (alpha - n + p) / (k + 1), rel=1e-12)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            ExpansionParams(0, 4)
        with pytest.raises(ValueError):
            ExpansionParams(3, 2)


class TestMoments:
    def test_power_moments_analytic(self):
        # x = t^2 left moments: V_p(t) = int_0^t tau^(p-1) 2 tau dtau
        #                              = 2 t^(p+1) / (p+1) for n = 1.
        x = power_function(2.0, 0.0, 1.0, Side.LEFT)
        params = ExpansionParams(1, 4)
        for t in (0.3, 0.8):
            mom = moments(x, Side.LEFT, t, params, p_max=4)
            assert mom[1] == pytest.approx(t**2, rel=1e-10)
            assert mom[2] == pytest.approx(2.0 * t**3 / 3.0, rel=1e-10)
            assert mom[4] == pytest.approx(2.0 * t**5 / 5.0, rel=1e-10)
        # Every moment a type I/II call at N = 32 needs (p_max = n + 2N),
        # on both sides; on the right x' = -2 (1 - tau), so V_p changes sign.
        for side, sign in ((Side.LEFT, 1.0), (Side.RIGHT, -1.0)):
            x = power_function(2.0, 0.0, 1.0, side)
            for t in (0.05, 0.5, 0.95):
                dist = t if side is Side.LEFT else 1.0 - t
                mom = moments(x, side, t, ExpansionParams(1, 32), p_max=65)
                for p in range(1, 66):
                    exact = sign * 2.0 * dist ** (p + 1) / (p + 1)
                    assert mom[p] == pytest.approx(exact, rel=1e-10)

    @pytest.mark.parametrize("gamma_exp", [0.5, 0.8])
    @pytest.mark.parametrize("side", list(Side))
    def test_singular_derivative_uses_quadpack(self, gamma_exp, side, monkeypatch):
        # x' ~ dist^(gamma-1) is singular at the endpoint, which the shared
        # Gauss-Kronrod pass cannot certify; those moments fall back to
        # adaptive quadrature and must still match
        # V_p = +-gamma dist^(p-1+gamma) / (p-1+gamma).
        fallbacks = []
        quad_moment = expansion._quad_moment
        monkeypatch.setattr(
            expansion, "_quad_moment", lambda *a: fallbacks.append(a[3]) or quad_moment(*a)
        )
        x = power_function(gamma_exp, 0.0, 1.0, side)
        sign = 1.0 if side is Side.LEFT else -1.0
        for t in (0.3, 0.7):
            dist = t if side is Side.LEFT else 1.0 - t
            mom = moments(x, side, t, ExpansionParams(1, 8), p_max=17)
            for p in range(1, 18):
                exact = sign * gamma_exp * dist ** (p - 1 + gamma_exp) / (p - 1 + gamma_exp)
                assert mom[p] == pytest.approx(exact, rel=1e-10)
            for kind in Kind:
                res = approximate(kind, x, ORDER_A, t, side, ExpansionParams(1, 8))
                ref = power_closed_form(kind, side, gamma_exp, ORDER_A, t)
                assert math.isfinite(res.value)
                assert abs(res.value - ref) <= res.error_bound
        assert 0 in fallbacks

    def test_non_integrable_derivative_raises(self):
        # x = log(t): x' = 1/t is not integrable at 0.  QUADPACK's warnings
        # go into the error, not to the warnings machinery (which the test
        # configuration turns into errors).
        x = ScalarFunction(value=lambda t: np.log(t), a=0.0, b=1.0,
                           derivatives=(lambda t: 1.0 / t,))
        with pytest.raises(QuadratureError):
            moments(x, Side.LEFT, 0.5, ExpansionParams(1, 4), p_max=4)
        with pytest.raises(QuadratureError):
            approximate(Kind.TYPE_III, x, ORDER_A, 0.5, Side.LEFT)

    def test_vanish_at_start(self):
        x = power_function(2.0, 0.0, 1.0, Side.LEFT)
        mom = moments(x, Side.LEFT, 0.0, ExpansionParams(1, 3), p_max=3)
        assert all(v == 0.0 for v in mom.values)

    def test_p_max_must_cover_N(self):
        x = power_function(2.0, 0.0, 1.0, Side.LEFT)
        with pytest.raises(ValueError):
            moments(x, Side.LEFT, 0.5, ExpansionParams(1, 6), p_max=4)


class TestErrorBound:
    def test_frozen_type3(self):
        L = DerivativeBound(values={1: 2.0, 2: 2.0}, estimated=False)
        b = error_bound(Kind.TYPE_III, ExpansionParams(1, 2), 0.5, 0.0, 1.0, L)
        assert b == pytest.approx(6.7564865138986505, rel=1e-13)

    def test_frozen_type1_with_variation(self):
        L = DerivativeBound(values={1: 2.0, 2: 2.0}, estimated=False)
        b = error_bound(Kind.TYPE_I, ExpansionParams(1, 2), 0.5, 0.5, 1.0, L)
        assert b == pytest.approx(15.202094656271964, rel=1e-13)
        # The alpha'-weighted second term alone:
        assert b - 6.7564865138986505 == pytest.approx(8.445608142373313, rel=1e-12)

    def test_scaling_in_N(self):
        L = DerivativeBound(values={1: 2.0, 2: 2.0}, estimated=False)
        b2 = error_bound(Kind.TYPE_III, ExpansionParams(1, 2), 0.5, 0.0, 1.0, L)
        b32 = error_bound(Kind.TYPE_III, ExpansionParams(1, 32), 0.5, 0.0, 1.0, L)
        assert b32 == pytest.approx(b2 * (2.0 / 32.0) ** 0.5, rel=1e-12)

    def test_zero_distance(self):
        L = DerivativeBound(values={1: 2.0, 2: 2.0}, estimated=False)
        assert error_bound(Kind.TYPE_I, ExpansionParams(1, 4), 0.5, 0.5, 0.0, L) == 0.0

    def test_missing_order_raises(self):
        L = DerivativeBound(values={1: 2.0}, estimated=False)
        with pytest.raises(MissingBoundError):
            error_bound(Kind.TYPE_III, ExpansionParams(1, 4), 0.5, 0.0, 1.0, L)

    def test_derivative_bound_analytic_vs_estimated(self):
        x = power_function(2.0, 0.0, 1.0, Side.LEFT)
        L = derivative_bound(x, (1, 2), 0.0, 1.0)
        assert not L.estimated
        assert L[1] == pytest.approx(2.0, rel=1e-6)
        assert L[2] == pytest.approx(2.0, rel=1e-6)
        # One array call per order gives exactly the maxima of the point-by-
        # point loop over the same samples, for analytic derivatives (with
        # x'' = inf at the endpoint when gamma < 1) and for the one-sided and
        # central finite differences of a function given by its values only.
        ts = np.linspace(0.0, 1.0, 1001)
        loop_max = lambda fn: max(abs(fn(float(t))) for t in ts)
        singular = power_function(0.5, 0.0, 1.0, Side.RIGHT)
        L = derivative_bound(singular, (1, 2), 0.0, 1.0)
        assert not L.estimated
        assert L[1] == loop_max(singular.deriv(1)) and L[2] == math.inf
        numeric = ScalarFunction(value=lambda t: t * t * (1.0 - t) + 0.5 * t, a=0.0, b=1.0)
        L = derivative_bound(numeric, (1, 2), 0.0, 1.0)
        assert L.estimated
        for p in (1, 2):
            assert L[p] == 1.05 * loop_max(numeric.deriv(p))


class TestApproximation:
    @pytest.mark.parametrize("order", [ORDER_A, ORDER_B], ids=["alpha-a", "alpha-b"])
    @pytest.mark.parametrize("kind", list(Kind))
    def test_certified_accuracy(self, order, kind):
        x = power_function(2.0, 0.0, 1.0, Side.LEFT)
        params = ExpansionParams(1, 6)
        for t in (0.2, 0.5, 0.8):
            res = approximate(kind, x, order, t, Side.LEFT, params)
            ref = caputo_quadrature(kind, x, order, t, Side.LEFT, tol=1e-10)
            assert abs(res.value - ref) <= res.error_bound
            assert res.bound_kind == "analytic"

    @pytest.mark.parametrize("kind", list(Kind))
    def test_convergence_in_N(self, kind):
        x = power_function(2.0, 0.0, 1.0, Side.LEFT)
        t = 0.6
        ref = caputo_quadrature(kind, x, ORDER_B, t, Side.LEFT, tol=1e-11)
        errs = []
        for N in (2, 4, 8, 16, 32):
            res = approximate(kind, x, ORDER_B, t, Side.LEFT, ExpansionParams(1, N))
            errs.append(abs(res.value - ref))
        for lo, hi in zip(errs[1:], errs[:-1]):
            assert lo <= 1.05 * hi

    def test_constant_order_bitwise_collapse(self):
        order = constant_order(0.5, (0.0, 1.0))
        x = power_function(2.0, 0.0, 1.0, Side.LEFT)
        r1 = approx_type1(x, order, 0.7)
        r2 = approx_type2(x, order, 0.7)
        r3 = approx_type3(x, order, 0.7)
        assert r1.value == r3.value
        assert r2.value == r3.value
        assert r1.error_bound == r3.error_bound

    def test_constant_order_example(self):
        # x = t^2, alpha = 0.5, t = 1: exact value 2/Gamma(2.5).  The tail
        # converges like N^(-1/2), so N = 40 is still ~1.6e-3 away.
        order = constant_order(0.5, (0.0, 1.0))
        x = power_function(2.0, 0.0, 1.0, Side.LEFT)
        res = approx_type3(x, order, 1.0, params=ExpansionParams(1, 40))
        exact = 2.0 / gamma(2.5)
        assert res.value == pytest.approx(1.5061371718311305, rel=1e-10)
        assert abs(res.value - exact) <= res.error_bound
        assert abs(res.value - exact) <= 2e-3

    def test_right_left_mirror(self):
        # Right derivative of (b-t)^2 under alpha(t) equals the left
        # derivative of (s-a)^2 at s = a+b-t under the mirrored order.
        x_right = power_function(2.0, 0.0, 1.0, Side.RIGHT)
        x_left = power_function(2.0, 0.0, 1.0, Side.LEFT)
        mirror = OrderFunction(
            alpha=lambda s: ORDER_B.alpha(1.0 - s),
            alpha_prime=lambda s: -ORDER_B.alpha_prime(1.0 - s),
            a=0.0,
            b=1.0,
        )
        for kind in Kind:
            for t in (0.25, 0.6):
                r = approximate(kind, x_right, ORDER_B, t, Side.RIGHT)
                l = approximate(kind, x_left, mirror, 1.0 - t, Side.LEFT)
                assert r.value == pytest.approx(l.value, abs=1e-10, rel=1e-10)

    @pytest.mark.parametrize("side", list(Side))
    @pytest.mark.parametrize("kind", [Kind.TYPE_I, Kind.TYPE_II])
    def test_tiny_distance(self, kind, side):
        # At dist = 1e-6 the raw moments V_p ~ dist^(p+1) underflow for the
        # order-variation correction at N = 32; the scaled moments do not.
        x = power_function(2.0, 0.0, 1.0, side)
        t = 1e-6 if side is Side.LEFT else 1.0 - 1e-6
        res = approximate(kind, x, ORDER_A, t, side, ExpansionParams(1, 32))
        ref = power_closed_form(kind, side, 2.0, ORDER_A, t)
        assert math.isfinite(res.value) and math.isfinite(res.error_bound)
        assert abs(res.value - ref) <= res.error_bound

    def test_float_only_callables(self):
        # Callables that reject arrays (float(), math.*, if/else on t) are
        # sampled point by point and give the array path's values.
        x = power_function(2.0, 0.0, 1.0, Side.LEFT)
        scalar = ScalarFunction(
            value=lambda t: math.pow(t, 2.0),
            a=0.0,
            b=1.0,
            derivatives=(lambda t: 2.0 * float(t), lambda t: 2.0 if t >= 0.0 else math.nan),
        )
        for kind in Kind:
            want = approximate(kind, x, ORDER_B, 0.6, Side.LEFT)
            got = approximate(kind, scalar, ORDER_B, 0.6, Side.LEFT)
            assert got.value == pytest.approx(want.value, rel=1e-13)
            assert got.error_bound == pytest.approx(want.error_bound, rel=1e-13)
            assert got.bound_kind == want.bound_kind

    def test_endpoint_returns_zero(self):
        x = power_function(2.0, 0.0, 1.0, Side.LEFT)
        res = approximate(Kind.TYPE_I, x, ORDER_B, 0.0, Side.LEFT)
        assert res == ApproxResult(0.0, 0.0, ExpansionParams(1, 6), "analytic")

    def test_outside_domain_rejected(self):
        x = power_function(2.0, 0.0, 1.0, Side.LEFT)
        with pytest.raises(ValueError):
            approximate(Kind.TYPE_III, x, ORDER_B, -0.1, Side.LEFT)
