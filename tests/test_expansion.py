import math
import re
import warnings
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import varcaputo.expansion as expansion
from varcaputo.expansion import (
    ApproxResult,
    DerivativeBound,
    ExpansionParams,
    MissingBoundError,
    approximate,
    coefficients_left,
    coefficients_right,
    derivative_bound,
    error_bound,
    moments,
)
from varcaputo.order import OrderFunction, _difference, affine_order, constant_order
from varcaputo.reference import (
    Kind,
    QuadratureError,
    ScalarFunction,
    Side,
    SingularityError,
    _log_bracket,
    caputo_quadrature,
    power_closed_form,
    power_function,
    rl_from_caputo,
)
from varcaputo.special import DomainError, _signed_binomials, gamma, signed_binomial

ORDER_A = affine_order(0.5, 0.49, (0.0, 1.0))  # (50t + 49)/100
ORDER_B = affine_order(0.1, 0.5, (0.0, 1.0))   # (t + 5)/10

#: Every route that evaluates an operator at a point t, called as (x, side, t).
OUTSIDE_ROUTES = {
    "approximate": lambda x, side, t: approximate(Kind.TYPE_III, x, ORDER_B, t, side),
    "moments": lambda x, side, t: moments(x, side, t, ExpansionParams(1, 6), p_max=13),
    "power_closed_form": lambda x, side, t: power_closed_form(Kind.TYPE_I, side, 2.0, ORDER_B, t),
    "rl_from_caputo": lambda x, side, t: rl_from_caputo(Kind.TYPE_I, side, 0.0, 1.0, ORDER_B, t),
    "caputo_quadrature": lambda x, side, t: caputo_quadrature(Kind.TYPE_II, x, ORDER_B, t, side),
}

#: The point routes, each admitted by ``reference._admit``.
POINT_ROUTES = ["approximate", "caputo_quadrature", "power_closed_form", "rl_from_caputo"]


def _kind_routes(order: OrderFunction) -> dict:
    """The four point routes on x = t^2 under order at t = 0.5, on the left,
    called as kind -> value."""
    x = power_function(2.0, 0.0, 1.0, Side.LEFT)
    return {
        "approximate": lambda kind: approximate(kind, x, order, 0.5, params=ExpansionParams(1, 4)),
        "caputo_quadrature": lambda kind: caputo_quadrature(kind, x, order, 0.5),
        "power_closed_form": lambda kind: power_closed_form(kind, Side.LEFT, 2.0, order, 0.5),
        "rl_from_caputo": lambda kind: rl_from_caputo(kind, Side.LEFT, 1.0, 0.5, order, 0.5),
    }


class TestCoefficients:
    def test_frozen_values(self):
        head, _ = coefficients_left(0.5, ExpansionParams(1, 1))
        # A_1 collapses to 1/Gamma(1.5) + Gamma(0.5)/(Gamma(-0.5) 1!)/Gamma(1.5)
        assert head[0] == pytest.approx(0.5641895835477563, rel=1e-13)
        _, tail2 = coefficients_left(0.5, ExpansionParams(1, 2))
        assert tail2[1] == pytest.approx(0.2820947917738782, rel=1e-13)

    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.9])
    @pytest.mark.parametrize("n,N", [(1, 4), (2, 6)])
    def test_leading_tail_is_reciprocal_gamma(self, alpha, n, N):
        _, tail = coefficients_left(alpha, ExpansionParams(n, N))
        assert tail[0] == pytest.approx(1.0 / gamma(1.0 - alpha), rel=1e-12)

    def test_right_side_signs(self):
        params = ExpansionParams(2, 5)
        left_head, left_tail = coefficients_left(0.35, params)
        right_head, right_tail = coefficients_right(0.35, params)
        for p in range(1, 3):
            assert right_head[p - 1] == (-1.0) ** p * left_head[p - 1]
        assert np.array_equal(right_tail, -left_tail)

    @pytest.mark.parametrize("n", [1, 3])
    def test_finite_beyond_float_factorials(self, n):
        # (p-n)! and l! overflow a double from 171 on; the coefficients do not.
        # B_(p+1)/B_p = (alpha-n+p)/(p-n+1) must hold on both sides of 171.
        alpha = 0.37
        head, tail = coefficients_left(alpha, ExpansionParams(n, 200))
        assert np.all(np.isfinite(head)) and np.all(np.isfinite(tail))
        for k in range(160, 200 - n):
            p = k + n
            assert tail[k + 1] == pytest.approx(tail[k] * (alpha - n + p) / (k + 1), rel=1e-12)

    @staticmethod
    def _paper_coefficients(alpha, n, N):
        # The paper's A_p (with its inner sum) and B_p at 50 digits; g[l]
        # holds Gamma(alpha-n+l), which both formulas share.
        with mpmath.workdps(50):
            a = mpmath.mpf(alpha)
            g = [mpmath.gamma(a - n + l) for l in range(N + 1)]
            head = [
                (1 + mpmath.fsum(g[l] / math.factorial(l - n + p) for l in range(n - p + 1, N + 1))
                 / mpmath.gamma(a - p)) / mpmath.gamma(p + 1 - a)
                for p in range(1, n + 1)
            ]
            tail_scale = mpmath.gamma(1 - a) * mpmath.gamma(a)
            tail = [g[p] / (tail_scale * math.factorial(p - n)) for p in range(n, N + 1)]
            return head, tail

    @pytest.mark.parametrize("alpha,n,N,rel", [
        *[(alpha, n, N, 1e-12)
          for alpha in (1e-4, 0.01, 0.1, 0.37, 0.5, 0.9, 0.99)
          for n, N in ((1, 3), (1, 12), (1, 48), (1, 200), (2, 6), (3, 20), (3, 256))],
        *[(alpha, 1, N, 1e-13) for alpha in (1e-6, 1.0 - 1e-6) for N in (1, 3, 12, 48, 200)],
    ])
    def test_against_mpmath(self, alpha, n, N, rel):
        # The inner sum of A_p cancels down to O(alpha); the closed forms
        # must keep full relative accuracy as alpha -> 0 and alpha -> 1.
        head, tail = coefficients_left(alpha, ExpansionParams(n, N))
        want_head, want_tail = self._paper_coefficients(alpha, n, N)
        for got, want in zip([*head, *tail], [*want_head, *want_tail]):
            assert abs(got - want) <= rel * abs(want)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            ExpansionParams(0, 4)
        with pytest.raises(ValueError):
            ExpansionParams(3, 2)
        with pytest.raises(ValueError):
            ExpansionParams(1.0, 3)

    def test_numpy_integers_accepted(self):
        params = ExpansionParams(np.int64(1), 6)
        assert (params.n, params.N) == (1, 6)
        head, tail = coefficients_left(0.5, ExpansionParams(np.int32(1), np.int64(4)))
        want_head, want_tail = coefficients_left(0.5, ExpansionParams(1, 4))
        assert np.array_equal(head, want_head) and np.array_equal(tail, want_tail)

    @staticmethod
    def _row_per_call(nu, count):
        """The signed-binomial row with its index rows k and k + 1 built per call."""
        k = np.arange(count - 1.0)
        row = np.empty(count)
        row[0] = 1.0
        np.divide(k - nu, k + 1.0, out=row[1:])
        return np.multiply.accumulate(row, out=row)

    @pytest.mark.parametrize("alpha", [1e-9, 0.3, 0.5, 0.55, 0.99, 1.0 - 1e-9])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_bits_match_the_per_call_formulas(self, alpha, n):
        # The cached index rows and the head filled in place give every
        # bit of the rows built per call and of the head built from a list.
        for N in [*range(n, 65), 171, 256]:
            rows = [(-alpha, N - n + 2), *((p - 1.0 - alpha, N - n + p + 1) for p in range(2, n + 1))]
            for nu, count in rows:
                assert _signed_binomials(nu, count).tobytes() == self._row_per_call(nu, count).tobytes()
            row = self._row_per_call(-alpha, N - n + 2)
            want_head = np.array([
                (row[-1] if p == 1 else float(self._row_per_call(p - 1.0 - alpha, N - n + p + 1)[-1]))
                / gamma(p + 1.0 - alpha)
                for p in range(1, n + 1)
            ])
            head, tail = coefficients_left(alpha, ExpansionParams(n, N))
            assert head.tobytes() == want_head.tobytes(), N
            assert tail.tobytes() == (row[:-1] / gamma(1.0 - alpha)).tobytes(), N

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_alpha_outside_unit_interval(self, alpha):
        with pytest.raises(DomainError):
            coefficients_left(alpha, ExpansionParams(1, 4))


class TestMoments:
    def test_power_moments_analytic(self):
        # x = t^2 left moments: V_p(t) = int_0^t tau^(p-1) 2 tau dtau
        #                              = 2 t^(p+1) / (p+1) for n = 1.
        x = power_function(2.0, 0.0, 1.0, Side.LEFT)
        params = ExpansionParams(1, 4)
        n = params.n
        for t in (0.3, 0.8):
            mom = moments(x, Side.LEFT, t, params, p_max=4)
            assert mom[1 - n] == pytest.approx(t**2, rel=1e-10)
            assert mom[2 - n] == pytest.approx(2.0 * t**3 / 3.0, rel=1e-10)
            assert mom[4 - n] == pytest.approx(2.0 * t**5 / 5.0, rel=1e-10)
        # Every moment a type I/II call at N = 32 needs (p_max = n + 2N),
        # on both sides; on the right x' = -2 (1 - tau), so V_p changes sign.
        for side, sign in ((Side.LEFT, 1.0), (Side.RIGHT, -1.0)):
            x = power_function(2.0, 0.0, 1.0, side)
            for t in (0.05, 0.5, 0.95):
                dist = t if side is Side.LEFT else 1.0 - t
                mom = moments(x, side, t, ExpansionParams(n, 32), p_max=65)
                for p in range(1, 66):
                    exact = sign * 2.0 * dist ** (p + 1) / (p + 1)
                    assert mom[p - n] == pytest.approx(exact, rel=1e-10)

    @pytest.mark.parametrize("gamma_exp", [0.5, 0.8])
    @pytest.mark.parametrize("side", list(Side))
    def test_singular_derivative_uses_quadpack(self, gamma_exp, side, monkeypatch):
        # x' ~ dist^(gamma-1) is singular at the endpoint, which the shared
        # Gauss-Kronrod pass cannot certify; those moments fall back to
        # adaptive quadrature and must still match
        # V_p = +-gamma dist^(p-1+gamma) / (p-1+gamma).
        fallbacks = []
        adaptive_quad = expansion._adaptive_quad
        monkeypatch.setattr(
            expansion, "_adaptive_quad",
            lambda *a, what: fallbacks.append(what) or adaptive_quad(*a, what=what),
        )
        x = power_function(gamma_exp, 0.0, 1.0, side)
        sign = 1.0 if side is Side.LEFT else -1.0
        params = ExpansionParams(1, 8)
        for t in (0.3, 0.7):
            dist = t if side is Side.LEFT else 1.0 - t
            mom = moments(x, side, t, params, p_max=17)
            for p in range(1, 18):
                exact = sign * gamma_exp * dist ** (p - 1 + gamma_exp) / (p - 1 + gamma_exp)
                assert mom[p - params.n] == pytest.approx(exact, rel=1e-10)
            for kind in Kind:
                res = approximate(kind, x, ORDER_A, t, side, params)
                ref = power_closed_form(kind, side, gamma_exp, ORDER_A, t)
                assert math.isfinite(res.value)
                assert abs(res.value - ref) <= res.error_bound
        assert "scaled moment k=0" in fallbacks

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

    def test_non_finite_quadrature_raises(self):
        # x' = 0.8 (1-t)^(-0.2) is infinite at b, within 1e-9 of t: the
        # fallback quadrature lands on b, and its nan is an error, not a value.
        x = power_function(0.8, 0.0, 1.0, Side.RIGHT)
        with pytest.raises(QuadratureError):
            approximate(Kind.TYPE_I, x, ORDER_A, 1.0 - 1e-9, Side.RIGHT, ExpansionParams(1, 2))

    @pytest.mark.parametrize("kind", list(Kind))
    def test_infinite_node_raises_typed_error(self, kind):
        # x' = 0.5 (1-t)^(-0.5) at t = 1 - 1e-12: a node rounds onto b, where
        # x' is inf.  The error estimate is nan with no NumPy warning (an
        # error under the test configuration), and the fallback raises.
        x = power_function(0.5, 0.0, 1.0, Side.RIGHT)
        with pytest.raises(QuadratureError):
            approximate(kind, x, ORDER_A, 1.0 - 1e-12, Side.RIGHT)

    @pytest.mark.parametrize("x, side, t", [
        (power_function(1e-12, 0.0, 1.0, Side.LEFT), Side.LEFT, 0.5),
        (power_function(1e-12, 0.0, 1.0, Side.RIGHT), Side.RIGHT, 0.5),
        (power_function(0.5, 0.0, 1.0, Side.LEFT), Side.RIGHT, 1e-9),
    ], ids=["tiny-gamma-left", "tiny-gamma-right", "left-x-right-operator"])
    def test_missed_moment_raises(self, x, side, t):
        # t^1e-12 has nearly all of W_0 ~ 1 below s = e^(-1e12), under every
        # node, and the pass returns ~3e-11.  x = t^0.5 under the right
        # operator at t = 1e-9 has its singular x' next to t, at s ~ 1, past
        # the panels' ten halvings (-3875 against -5.70, bound 1.5e13).  Both
        # were silent; the identity sgn dist W_0 = x(t) - x(end) rejects them,
        # in ``moments`` (which returned V_1 = 1.46e-11 for t^1e-12) as well.
        with pytest.raises(QuadratureError, match="W_0"):
            approximate(Kind.TYPE_III, x, ORDER_A, t, side)
        with pytest.raises(QuadratureError, match="W_0"):
            moments(x, side, t, ExpansionParams(1, 6), p_max=6)

    def test_vanish_at_start(self):
        x = power_function(2.0, 0.0, 1.0, Side.LEFT)
        mom = moments(x, Side.LEFT, 0.0, ExpansionParams(1, 3), p_max=3)
        assert all(v == 0.0 for v in mom)

    def test_p_max_must_cover_N(self):
        x = power_function(2.0, 0.0, 1.0, Side.LEFT)
        with pytest.raises(ValueError):
            moments(x, Side.LEFT, 0.5, ExpansionParams(1, 6), p_max=4)

    @pytest.mark.parametrize("p_max", [7.5, 6.0, 13.0, "13", None])
    def test_p_max_must_be_an_integer(self, p_max):
        # Not NumPy's untyped TypeError from the slice it sizes.
        x = power_function(2.0, 0.0, 1.0, Side.LEFT)
        with pytest.raises(ValueError, match=re.escape(f"integer of at least N = 6, got {p_max!r}")):
            moments(x, Side.LEFT, 0.5, ExpansionParams(1, 6), p_max=p_max)

    def test_numpy_integer_p_max_accepted(self):
        x = power_function(2.0, 0.0, 1.0, Side.LEFT)
        want = moments(x, Side.LEFT, 0.5, ExpansionParams(1, 6), p_max=13)
        got = moments(x, Side.LEFT, 0.5, ExpansionParams(1, 6), p_max=np.int64(13))
        assert got.tobytes() == want.tobytes()


    def test_numeric_derivative_passes_identity(self):
        # x = sin 200t by its values only: x' is a difference with an error of
        # about 2.5e-6 relative near b, which the W_0 identity allows for a
        # numeric x' (-79.6519 against -79.6521 by quadrature, type III).
        x = ScalarFunction(value=lambda t: np.sin(200.0 * t), a=0.0, b=1.0)
        t = 1.0 - 1e-9
        for kind in Kind:
            ref = caputo_quadrature(kind, x, ORDER_A, t, Side.RIGHT)
            for N in (2, 8):
                res = approximate(kind, x, ORDER_A, t, Side.RIGHT, ExpansionParams(1, N))
                assert abs(res.value - ref) <= res.error_bound

    def test_numeric_derivative_still_catches_missed_moment(self):
        x = ScalarFunction(value=lambda t: t**1e-12, a=0.0, b=1.0)
        with pytest.raises(QuadratureError, match="W_0"):
            approximate(Kind.TYPE_III, x, ORDER_A, 0.5, Side.LEFT)
        with pytest.raises(QuadratureError, match="W_0"):
            moments(x, Side.LEFT, 0.5, ExpansionParams(1, 6), p_max=6)

    def test_analytic_derivative_allowance_unchanged(self):
        # The same difference of sin 200t, declared as the analytic x', gets
        # no allowance for a difference: the identity misses by 2.4e-13
        # against 4e-14 and the pass raises.
        value = lambda t: np.sin(200.0 * t)
        x = ScalarFunction(value=value, a=0.0, b=1.0, derivatives=(_difference(value, 1, 0.0, 1.0),))
        with pytest.raises(QuadratureError, match="W_0"):
            approximate(Kind.TYPE_III, x, ORDER_A, 1.0 - 1e-9, Side.RIGHT)


#: The sweep of the moment-pass oracle: (gamma, side, t, count).
MOMENT_SWEEP = [
    (g, side, t, count)
    for g in (0.5, 0.8, 1.0, 1.5, 2.0, 3.5, 7.0)
    for side in Side
    for t in (1e-9, 1e-6, 1e-3, 0.3, 0.7, 1.0 - 1e-3, 1.0 - 1e-6)
    for count in (1, 2, 3, 5, 9, 17, 33, 65, 129)
]
NODES = expansion._NODES


def _qk21_estimate(f, rule):
    """QUADPACK's qk21 error estimate of each panel of f (values of the
    integrand on the 21 nodes in the last axis, on the reference rule
    [-1, 1]): |K21 - G10| scaled by the panel's variation resasc, and never
    less than 50 eps of the absolute integral resabs."""
    wk, wg = rule.T
    with np.errstate(all="ignore"):
        kronrod = f @ wk
        abserr = np.abs(kronrod - f @ wg)
        resabs = np.abs(f) @ wk
        resasc = np.abs(f - 0.5 * kronrod[..., None]) @ wk
        est = np.where(resasc > 0.0, resasc * np.minimum(1.0, (200.0 * abserr / resasc) ** 1.5), abserr)
        return np.maximum(50.0 * np.finfo(float).eps * resabs, est)


def _per_row(values, count):
    """Each row s^k x' (k = 0..count-1) on its own, from x' on the pass's
    nodes, with s^k below 1e-200 taken as 0 as in the power table: W_k,
    summed over panels of the half-length times the Kronrod sum K21; the
    pass's estimate, max(50 eps resabs, 200 |K21 - G10|) from the node set's
    weight matrices; and QUADPACK's qk21 estimate; both summed over panels."""
    with np.errstate(all="ignore"):
        powers = NODES.nodes ** np.arange(count)[:, None]
        f = np.where(powers < 1e-200, 0.0, powers) * values
        estimate = np.maximum(np.abs(f @ NODES.spread), np.abs(f) @ NODES.kronrod) @ NODES.panels
        panels = f.reshape(count, -1, 21)
        return (panels @ NODES.rule[:, 0]) @ NODES.half, estimate, _qk21_estimate(panels, NODES.rule) @ NODES.half


def _reference_pass(dx, end, step, count, tol):
    """The moment pass written out row by row: W_k, the rows whose summed
    estimate misses max(tol, 1e-12 |W_k|) (sent to QUADPACK), and the kept
    rows whose summed qk21 estimate misses."""
    fell, missed = set(), set()
    with np.errstate(all="ignore"):
        w, estimate, qk21 = _per_row(expansion._sample(dx, end + NODES.nodes * step), count)
        for k in range(count):
            limit = max(tol, 1e-12 * abs(w[k]))
            if not estimate[k] <= limit:
                fell.add(k)
            elif not qk21[k] <= limit:
                missed.add(k)
    return w, fell, missed


def _identity_pass(x, end, step, count, tol):
    """``_moment_pass`` with the kernel of ``moments`` (None: the W_k rows,
    limit tol); returns W or the QuadratureError's text."""
    try:
        return expansion._moment_pass(x, end + step, end, step, None, count, np.full(count, tol),
                                      1.0, tol, "scaled moment k={}".format)[0]
    except QuadratureError as exc:
        return str(exc)


class TestSample:
    TS = np.linspace(0.1, 0.9, 7)

    def test_array_of_sample_shape_returned_as_is(self):
        values = 2.0 * self.TS
        got = expansion._sample(lambda ts: values, self.TS)
        assert got is values
        assert got.tobytes() == (2.0 * self.TS).tobytes()

    def test_constant_is_broadcast(self):
        got = expansion._sample(lambda ts: 3.0, self.TS)
        assert got.shape == self.TS.shape and np.all(got == 3.0)

    def test_float_only_callable_sampled_point_by_point(self):
        got = expansion._sample(math.sin, self.TS)  # math.sin raises TypeError on an array
        assert got.tobytes() == np.array([math.sin(t) for t in self.TS]).tobytes()

    def test_moment_pass_reads_a_read_only_derivative(self):
        # _sample hands x''s own array to the moment pass, which must not
        # write into it: a read-only array gives the same moments bit for bit.
        def read_only(ts):
            out = np.asarray(-3.5 * (1.0 - ts) ** 2.5)
            out.flags.writeable = False
            return out

        x = power_function(3.5, 0.0, 1.0, Side.RIGHT)
        frozen = ScalarFunction(value=x.value, a=0.0, b=1.0, derivatives=(read_only,))
        for p_max in (3, 65):
            want = moments(x, Side.RIGHT, 0.4, ExpansionParams(1, 2), p_max)
            got = moments(frozen, Side.RIGHT, 0.4, ExpansionParams(1, 2), p_max)
            assert got.tobytes() == want.tobytes()


class TestMomentPass:
    @staticmethod
    def _spy(monkeypatch, fail=False):
        """Record the rows ``_adaptive_quad`` gets (a failed run gives nan
        when fail is set)."""
        adaptive_quad, rows = expansion._adaptive_quad, []

        def spy(fn, lo, hi, tol, what):
            rows.append(int(what.rsplit("=", 1)[1]) if "=" in what else what)
            try:
                return adaptive_quad(fn, lo, hi, tol, what=what)
            except QuadratureError:
                if not fail:
                    raise
                return math.nan

        monkeypatch.setattr(expansion, "_adaptive_quad", spy)
        return rows

    def test_moments_match_per_row_reference(self, monkeypatch):
        # Every W_k the pass keeps is the per-row reference's to 1e-13 |W_k|,
        # and exactly the rows whose estimate misses go to QUADPACK, singular
        # x' (gamma < 1) and nan rows included.  Every row kept has its qk21
        # estimate within the tolerance too.
        fell_back, compared = self._spy(monkeypatch, fail=True), 0
        for g, side, t, count in MOMENT_SWEEP:
            x = power_function(g, 0.0, 1.0, side)
            end = 0.0 if side is Side.LEFT else 1.0
            ref, fell, missed = _reference_pass(x.deriv(1), end, t - end, count, 1e-8)
            assert not missed, (g, side, t, count)
            fell_back.clear()
            w = _identity_pass(x, end, t - end, count, 1e-8)
            assert set(fell_back) == fell, (g, side, t, count)
            if not isinstance(w, str):
                kept = [k for k in range(count) if k not in fell]
                np.testing.assert_allclose(w[kept], ref[kept], rtol=1e-13, atol=0.0)
                compared += len(kept)
        assert compared > 10_000

    @pytest.mark.parametrize("kind", [Kind.TYPE_I, Kind.TYPE_III])
    def test_kernel_sum_matches_per_row_reference(self, kind):
        # The kernel's integral is sum_k c_k W_k of the per-row reference to
        # 1e-13 sum |c_k W_k|, with c the weights gathered per W_q (the alpha'
        # term's double sum by an explicit loop).
        for g, side, t, N in [(2.0, Side.LEFT, 0.6, 8), (3.5, Side.RIGHT, 0.3, 32), (7.0, Side.LEFT, 0.9, 64)]:
            x = power_function(g, 0.0, 1.0, side)
            sgn, end, dist = (1.0, 0.0, t) if side is Side.LEFT else (-1.0, 1.0, 1.0 - t)
            alpha, ap = ORDER_B.alpha(t), (ORDER_B.alpha_prime(t) if kind is Kind.TYPE_I else 0.0)
            c, kernel, count, scale = _gathered_weights(kind, alpha, ap, sgn, dist, N)
            got, _ = expansion._moment_pass(x, t, end, sgn * dist, kernel, count, np.array([1e-8, 1e-8 * scale]),
                                            max(1.0, scale), 1e-8, str)
            w = _per_row(x.deriv(1)(end + NODES.nodes * sgn * dist), c.size)[0]
            assert abs(got[1] - math.fsum(c * w)) <= 1e-13 * math.fsum(np.abs(c * w)), (g, side, N)

    def test_relative_limit_keeps_rows_above_tol(self, monkeypatch):
        # At x = 1e9 t^2 the summed estimates exceed tol = 1e-8, but meet
        # 1e-12 |W_k|: the pass keeps every row, with no QUADPACK call, and W
        # is 1e9 times that of t^2.
        base = power_function(2.0, 0.0, 1.0, Side.LEFT)
        scaled = lambda fn: (lambda t: 1e9 * fn(t))
        x = ScalarFunction(scaled(base.value), 0.0, 1.0, tuple(map(scaled, base.derivatives)),
                           monotone_derivatives=True)
        calls = self._spy(monkeypatch)
        for t, count in [(0.7, 3), (0.3, 17), (1.0, 65)]:
            w_ref, estimate, _ = _per_row(x.deriv(1)(NODES.nodes * t), count)
            w = _identity_pass(x, 0.0, t, count, 1e-8)
            assert estimate.max() > 1e-8 and (estimate <= 1e-12 * np.abs(w)).all(), (t, count)
            want = 1e9 * _identity_pass(base, 0.0, t, count, 1e-8)
            np.testing.assert_allclose(w, want, rtol=1e-15, atol=0.0)
        assert calls == []

    def test_table_growth_keeps_rows(self, monkeypatch):
        # Growing the shared table to a larger count leaves the rows of a
        # smaller one bit for bit; the table is read-only.  Row k is the
        # elementwise power s ** k of the nodes, with k passed as an array
        # (NumPy's ``s ** 2`` with a scalar 2 squares instead, which may
        # differ in the last bit where ``pow`` is vectorised), and entries
        # below 1e-200, whose products the BLAS takes slowly, are 0.
        monkeypatch.setattr(NODES, "powers", NODES.powers[:0])
        before = NODES.table(3).copy()
        assert NODES.powers.shape[0] == 3
        NODES.table(129)
        assert NODES.powers.shape[0] == 129
        assert NODES.table(3).tobytes() == before.tobytes() and NODES.powers.shape[0] == 129
        assert not NODES.powers.flags.writeable
        with np.errstate(under="ignore"):
            for k, row in enumerate(NODES.table(129)):
                want = NODES.nodes ** np.full_like(NODES.nodes, k)
                assert row.tobytes() == np.where(want < 1e-200, 0.0, want).tobytes(), k

    def test_estimate_covers_qk21_estimate(self):
        # The pass's per-panel estimate, max(50 eps resabs, 200 |K21 - G10|)
        # from the node set's two weight matrices, is never below QUADPACK's
        # qk21 estimate of the panel, so a row it keeps would pass the full
        # qk21 test as well.
        rng = np.random.default_rng(7)
        size, panels = NODES.nodes.size, NODES.half.size
        for values in (rng.standard_normal(size), np.exp(rng.uniform(-690.0, 690.0, size)),
                       rng.standard_normal(size) * 1e-250, np.sin(40.0 * NODES.nodes),
                       NODES.nodes ** -0.5, np.where(NODES.nodes < 0.5, 1e7, -1e7)):
            spread, resabs = values @ NODES.spread, np.abs(values) @ NODES.kronrod
            estimate = np.maximum(np.abs(spread[:-1]), resabs[:-1])
            qk21 = _qk21_estimate(values.reshape(panels, 21), NODES.rule) * NODES.half
            assert (qk21 <= estimate * (1.0 + 1e-13)).all()
            kronrod = values.reshape(panels, 21) @ NODES.rule[:, 0] @ NODES.half
            assert abs(spread[-1] - kronrod) <= 1e-14 * (np.abs(values) @ NODES.kronrod[:, -1])

    def test_cases_sent_back_where_the_estimate_misses(self, monkeypatch):
        # Named cases, each against the per-row reference: the rows sent to
        # QUADPACK (or the QuadratureError), and which enter np.errstate.
        # x' = +-1e7 on the halves cancels W_0 to about 1e-9, so 50 eps resabs
        # alone sends row 0 to QUADPACK; the rounding in K21 - G10 sends rows
        # 0 and 1 for x = 1e12 sin 12.5t; at x' = -0.5 (1-t)^(-0.5) rows 0
        # and 1 fall back, and at x' = 0.5 t^(-0.5), t = 1e-6, rows 0 to 2; at
        # N = 400 (801 rows) the rows past k ~ 236, which live near s = 1, are
        # kept on the panels halving towards it.
        power = lambda g, side: power_function(g, 0.0, 1.0, side)
        square, root = power(2.0, Side.LEFT), power(0.5, Side.RIGHT)
        step = ScalarFunction(lambda t: 1e7 * np.minimum(t, 1.0 - t), 0.0, 1.0,
                              (lambda t: np.where(t < 0.5, 1e7, -1e7),))
        wave = ScalarFunction(lambda t: 1e12 * np.sin(12.5 * t), 0.0, 1.0,
                              (lambda t: 1.25e13 * np.cos(12.5 * t),))
        linear = ScalarFunction(lambda t: 3.0 * t, 0.0, 1.0, (lambda t: 3.0,))  # x' broadcast
        cases = [(square, Side.LEFT, t, count) for t in (0.3, 1.0, 1e-6) for count in (3, 65)]
        cases += [(linear, side, 0.5, 13) for side in Side]
        cases += [(power(g, Side.RIGHT), Side.RIGHT, 1.0 - 2.0**-53, 13) for g in (2.0, 3.5)]
        cases += [(power(0.5, Side.LEFT), Side.LEFT, 1e-6, 13), (square, Side.LEFT, 0.5, 801)]
        cases += [(step, Side.LEFT, 1.0, 17), (wave, Side.LEFT, 1.0, 2)]
        cases += [(root, Side.RIGHT, t, 13) for t in (0.3, 0.9, 1.0 - 2.0**-53)]
        rows, entries, outcome = self._spy(monkeypatch, fail=True), [], {}
        errstate = np.errstate
        monkeypatch.setattr(np, "errstate", lambda *a, **kw: entries.extend(kw) or errstate(*a, **kw))
        for x, side, t, count in cases:
            end = 0.0 if side is Side.LEFT else 1.0
            ref, fell, _ = _reference_pass(x.deriv(1), end, t - end, count, 1e-8)
            rows.clear()
            entries.clear()
            w = _identity_pass(x, end, t - end, count, 1e-8)
            assert set(rows) == fell, (side, t, count)
            assert ("all" in entries) == (t == 1.0 - 2.0**-53 and x is root), (side, t, count)
            outcome[side, t, count] = (set(rows), w)
        assert outcome[Side.LEFT, 1.0, 17][0] == {0}
        assert outcome[Side.LEFT, 1.0, 2][0] == {0, 1}
        assert [outcome[Side.RIGHT, t, 13][0] for t in (0.3, 0.9)] == [{0, 1}, {0, 1}]
        assert outcome[Side.LEFT, 1e-6, 13][0] == {0, 1, 2}
        assert outcome[Side.LEFT, 0.5, 801][0] == set()
        assert "W_0 = nan" in outcome[Side.RIGHT, 1.0 - 2.0**-53, 13][1]

    def test_past_guard_warns_nothing(self):
        # A finite x' whose square sum is past the guard, up to the largest
        # float, and x' = inf at 147 nodes (right, t = 1 - 2^-53) run the
        # products under np.errstate: no RuntimeWarning, and a value where
        # every sum is finite.
        cases = [(ScalarFunction(lambda t, c=c: c * t, 0.0, 1.0, (lambda t, c=c: c,)), Side.LEFT, 0.5)
                 for c in (1e305, -1e305, np.finfo(float).max)]
        cases += [(power_function(0.5, 0.0, 1.0, Side.RIGHT), Side.RIGHT, 1.0 - 2.0**-53)]
        for x, side, t in cases:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    got = moments(x, side, t, ExpansionParams(1, 6), 13)
                except QuadratureError:
                    got = None
            if x.value(1.0) == 1e305:
                np.testing.assert_allclose(got, 1e305 * 0.5 ** np.arange(1.0, 14.0) / np.arange(1.0, 14.0),
                                           rtol=1e-14)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        arrays(
            float, NODES.nodes.size,
            elements=st.one_of(
                st.floats(-1e300, 1e300, allow_subnormal=False),
                st.floats(-1e-250, 1e-250, allow_subnormal=False),
            ),
            # The unset entries share one value: its runs cancel in K21 - G10.
            fill=st.sampled_from([0.0, 1.0, -1.0, 1e300, -1e300, 1e-250]),
        ),
        st.integers(1, 130),
    )
    def test_rows_sent_back_exactly_where_the_estimate_misses(self, values, count):
        # x' given by arbitrary values on the nodes: at the largest tol where
        # the per-row estimate misses for some row, exactly the rows whose
        # estimate misses go to QUADPACK.
        dx = lambda t: values if np.size(t) == values.size else 0.0
        w, estimate, _ = _per_row(values, count)
        over = estimate > 1e-12 * np.abs(w)
        if not over.any():
            return
        tol = np.nextafter(estimate[over].max(), 0.0)
        ref, fell, _ = _reference_pass(dx, 0.0, 1.0, count, tol)
        rows = []
        x = ScalarFunction(lambda t: 0.0, 0.0, 1.0, (dx,))
        with mock.patch.object(expansion, "_adaptive_quad",
                               lambda fn, lo, hi, tol, what: rows.append(int(what.rsplit("=", 1)[1])) or 0.0):
            _identity_pass(x, 0.0, 1.0, count, tol)  # the W_0 identity may fail: x = 0
        assert fell and set(rows) == fell


def _gathered_weights(kind, alpha, ap, sgn, dist, N):
    """The weights c on W_0..W_(2N) of the expansion at n = 1, the alpha'
    term's double sum gathered per W_q by an explicit loop, and the kernel,
    count and scale of ``expansion._moment_kernel`` for them."""
    head, tail = coefficients_left(alpha, ExpansionParams(1, N))
    factor = sgn * dist ** (1.0 - alpha)
    c = np.zeros(2 * N + 1)
    c[: tail.size] = factor * tail
    k = bracket = None
    if ap != 0.0:
        k = ap * dist ** (2.0 - alpha) / gamma(2.0 - alpha)
        bracket = _log_bracket(kind, alpha, dist)
        sb = [signed_binomial(1.0 - alpha, p) for p in range(N + 1)]
        for q in range(2 * N + 1):
            single = [bracket * sb[q]] if q <= N else []
            c[q] += k * math.fsum(single + [sb[p] / (q - p) for p in range(max(0, q - N), min(q, N + 1))])
    return (c if k is not None else c[: tail.size]), *expansion._moment_kernel(tail, head[0], factor, alpha, N, k, bracket)


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

    def test_negative_distance_rejected(self):
        L = DerivativeBound(values={1: 2.0, 2: 2.0}, estimated=False)
        with pytest.raises(ValueError):
            error_bound(Kind.TYPE_III, ExpansionParams(1, 4), 0.5, 0.0, -1e-3, L)

    @pytest.mark.parametrize("dist", [math.nan, math.inf])
    def test_non_finite_distance_rejected(self, dist):
        L = DerivativeBound(values={1: 2.0, 2: 2.0}, estimated=False)
        for kind in Kind:
            with pytest.raises(ValueError, match="finite and non-negative"):
                error_bound(kind, ExpansionParams(1, 4), 0.5, 0.3, dist, L)

    @pytest.mark.parametrize("alpha", [1.5, 1.0, 0.0, -0.5, math.nan, math.inf])
    @pytest.mark.parametrize("dist", [0.5, 0.0])
    def test_alpha_outside_unit_interval_rejected(self, alpha, dist):
        # At alpha = 1.5 the bound was negative, at 1 a ZeroDivisionError,
        # at 0 and below a number.
        L = DerivativeBound(values={1: 2.0, 2: 2.0}, estimated=False)
        for kind in Kind:
            with pytest.raises(DomainError, match=re.escape(f"alpha must lie in (0,1), got {alpha}")):
                error_bound(kind, ExpansionParams(1, 6), alpha, 0.0, dist, L)

    @pytest.mark.parametrize("ap", [math.nan, math.inf, -math.inf])
    def test_non_finite_alpha_prime_rejected(self, ap):
        L = DerivativeBound(values={1: 2.0, 2: 2.0}, estimated=False)
        for kind in Kind:
            with pytest.raises(ValueError, match="alpha' must be finite"):
                error_bound(kind, ExpansionParams(1, 6), 0.5, ap, 0.5, L)

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

    @pytest.mark.parametrize("side", list(Side))
    @pytest.mark.parametrize("g", [0.5, 0.8, 1.0, 1.5, 2.0, 3.5, 5.0])
    def test_derivative_bound_ends_match_sampled_maxima(self, g, side):
        # |x^(p)| of a power function is monotone, so its two ends give the
        # maximum of a 1001-point scan, up to the last bits of NumPy's array
        # pow; an inf at a singular end stays inf.
        x = power_function(g, 0.0, 1.0, side)
        for lo, hi in [(0.0, 1.0), (0.0, 0.3), (0.7, 1.0), (0.2, 0.6), (0.0, 1e-9),
                       (1.0 - 1e-9, 1.0)]:
            L = derivative_bound(x, (1, 2, 3, 4), lo, hi)
            assert not L.estimated
            for p in (1, 2, 3, 4):
                sampled = float(np.max(np.abs(x.deriv(p)(np.linspace(lo, hi, 1001)))))
                assert L[p] == sampled or abs(L[p] - sampled) <= 4 * np.spacing(sampled)

    @staticmethod
    def _counting(fns, points):
        """fns wrapped to add the number of points of each call to points[0]."""
        def wrap(fn):
            def counted(t):
                points[0] += np.size(t)
                return fn(t)
            return counted
        return tuple(map(wrap, fns))

    def test_derivative_bound_monotone_calls_each_end_once(self):
        x = power_function(1.5, 0.0, 1.0, Side.LEFT)
        points = [0]
        flagged = ScalarFunction(x.value, 0.0, 1.0, self._counting(x.derivatives, points),
                                 monotone_derivatives=True)
        L = derivative_bound(flagged, (1, 2), 0.2, 0.7)
        assert points[0] == 4
        assert L[1] == x.deriv(1)(0.7) and L[2] == x.deriv(2)(0.2)
        assert not L.estimated

    def test_derivative_bound_monotone_flag_leaves_fallback_sampled(self):
        x = power_function(3.5, 0.0, 1.0, Side.RIGHT)
        points = [0]
        flagged = ScalarFunction(x.value, 0.0, 1.0, self._counting(x.derivatives[:1], points),
                                 monotone_derivatives=True)
        L = derivative_bound(flagged, (1, 2), 0.0, 1.0)
        assert L.estimated
        ts = np.linspace(0.0, 1.0, 1001)
        # Two end calls for x', then x'' by differences of x' on the samples.
        assert points[0] >= 2 + 1001
        assert L[1] == abs(x.deriv(1)(0.0))
        assert L[2] == 1.05 * float(np.max(np.abs(flagged.deriv(2)(ts))))

    @pytest.mark.parametrize("nan_at", [0.2, 0.7])
    def test_derivative_bound_monotone_keeps_nan_at_either_end(self, nan_at):
        # As on the sampled path (np.max), a nan at lo or at hi is the bound.
        dx = lambda t: math.nan if t == nan_at else 1.0
        x = ScalarFunction(lambda t: t, 0.0, 1.0, (dx,), monotone_derivatives=True)
        assert math.isnan(derivative_bound(x, (1,), 0.2, 0.7)[1])

    @pytest.mark.parametrize("lo, hi", [(-0.1, 0.5), (0.5, 1.1), (0.6, 0.4), (math.nan, 0.5)])
    def test_derivative_bound_range_outside_domain_rejected(self, lo, hi):
        x = power_function(0.5, 0.0, 1.0, Side.LEFT)
        with pytest.raises(SingularityError):
            derivative_bound(x, (1,), lo, hi)


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
        r1 = approximate(Kind.TYPE_I, x, order, 0.7)
        r2 = approximate(Kind.TYPE_II, x, order, 0.7)
        r3 = approximate(Kind.TYPE_III, x, order, 0.7)
        assert r1.value == r3.value
        assert r2.value == r3.value
        assert r1.error_bound == r3.error_bound

    def test_constant_order_example(self):
        # x = t^2, alpha = 0.5, t = 1: exact value 2/Gamma(2.5).  The tail
        # converges like N^(-1/2), so N = 40 is still ~1.6e-3 away.
        order = constant_order(0.5, (0.0, 1.0))
        x = power_function(2.0, 0.0, 1.0, Side.LEFT)
        res = approximate(Kind.TYPE_III, x, order, 1.0, params=ExpansionParams(1, 40))
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

    def test_certificate_covers_rounding(self):
        # x = t or 1 - t has x'' = 0, so the truncation bound of type III is
        # 0 and the rounding of the sum (1e-16 to 1e-15 here) is all the
        # error; the certificate holds against mpmath on all 120 calls.
        c1, c0 = 0.5, 0.3
        order = affine_order(c1, c0, (0.0, 1.0))

        def exact(kind, side, t):
            # The closed form for x = d, d the distance to the endpoint.
            with mpmath.workdps(30):
                t = mpmath.mpf(t)
                d, alpha = (t if side is Side.LEFT else 1 - t), c1 * t + c0
                value = d ** (1 - alpha) / mpmath.gamma(2 - alpha)
                if kind is not Kind.TYPE_III:
                    bracket = mpmath.log(d) - mpmath.digamma(3 - alpha)
                    if kind is Kind.TYPE_I:
                        bracket += mpmath.digamma(1 - alpha)
                    corr = c1 * d ** (2 - alpha) / mpmath.gamma(3 - alpha) * bracket
                    value += -corr if side is Side.LEFT else corr
                return float(value)

        for kind in Kind:
            for side in Side:
                x = power_function(1.0, 0.0, 1.0, side)
                for t in (0.07, 0.3, 0.5, 0.71, 0.93):
                    want = exact(kind, side, t)
                    for N in (2, 6, 17, 40):
                        res = approximate(kind, x, order, t, side, ExpansionParams(1, N))
                        assert abs(res.value - want) <= res.error_bound, (kind, side, t, N)

    def test_value_only_certificate(self):
        # x = t^4 given by its values only, at n = 2: the bound takes x''' on
        # [0, 0.6] from one third difference of the values, so it still holds
        # and stays within 10% of the bound from the analytic derivatives.
        params = ExpansionParams(2, 12)
        values_only = ScalarFunction(value=lambda t: t**4, a=0.0, b=1.0)
        res = approximate(Kind.TYPE_III, values_only, ORDER_A, 0.6, Side.LEFT, params)
        analytic = approximate(Kind.TYPE_III, power_function(4.0, 0.0, 1.0), ORDER_A, 0.6,
                               Side.LEFT, params)
        exact = power_closed_form(Kind.TYPE_III, Side.LEFT, 4.0, ORDER_A, 0.6)
        assert res.bound_kind == "estimated" and analytic.bound_kind == "analytic"
        assert abs(res.value - exact) <= res.error_bound <= 1.1 * analytic.error_bound

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

    @pytest.mark.parametrize("kind", [Kind.TYPE_I, Kind.TYPE_II])
    @pytest.mark.parametrize("N", [1, 2, 7, 64])
    def test_product_kernel_matches_gathered_weights(self, kind, N):
        # The kernel c(s) + k P(s) (bracket + L(s)) on N + 1 table rows is the
        # weights gathered per W_q (2N + 1 of them, the double sum by an
        # explicit loop) times the powers s^q on the pass's nodes, to 1e-13 of
        # the absolute kernel A, which bounds sum_q |c_q| s^q; the scale
        # bounds sum_q |c_q|.  The certificate is too loose to notice a
        # shifted W slice; this is not.
        for alpha in (0.05, 0.37, 0.93):
            for dist in (1e-6, 0.3, 1.0):
                for sgn in (1.0, -1.0):
                    c, kernel, count, scale = _gathered_weights(kind, alpha, 0.4, sgn, dist, N)
                    assert count == N + 1 and math.fsum(np.abs(c)) <= scale * (1.0 + 1e-13)
                    with np.errstate(under="ignore"):
                        powers = NODES.nodes ** np.arange(2 * N + 1)[:, None]
                    (one, k), (_, a) = kernel(NODES.table(count))
                    assert (one == 1.0).all()
                    assert (np.abs(k - c @ powers) <= 1e-13 * a).all(), (alpha, dist, sgn)
                    assert (np.abs(c) @ powers <= a * (1.0 + 1e-13)).all(), (alpha, dist, sgn)

    @pytest.mark.parametrize("N", [256, 1024, 4096])
    @pytest.mark.parametrize("kind", [Kind.TYPE_I, Kind.TYPE_III])
    def test_large_n_takes_no_quadpack(self, kind, N, monkeypatch):
        # x = t^2, left, t = 0.6, alpha = 0.1 + 0.5t: moment rows past k ~ 236
        # used to go to QUADPACK one by one (1,816 runs for type I at
        # N = 1024); the kernel's estimate passes on the one node set, whose
        # panels halve towards s = 1.  The pass samples x' once, on its
        # nodes; every other x' call is at one point (t and the range's ends).
        calls, sizes = [], []
        monkeypatch.setattr(expansion, "_adaptive_quad", lambda *args, what: calls.append(what))
        base = power_function(2.0, 0.0, 1.0, Side.LEFT)

        def dx(t):
            if np.ndim(t):
                sizes.append(np.size(t))
            return base.derivatives[0](t)

        x = ScalarFunction(base.value, 0.0, 1.0, (dx, *base.derivatives[1:]), monotone_derivatives=True)
        order = affine_order(0.5, 0.1, (0.0, 1.0))
        res = approximate(kind, x, order, 0.6, Side.LEFT, ExpansionParams(1, N))
        assert calls == [] and sizes == [NODES.nodes.size]
        assert abs(res.value - power_closed_form(kind, Side.LEFT, 2.0, order, 0.6)) <= res.error_bound

    @pytest.mark.parametrize("kind", [Kind.TYPE_I, Kind.TYPE_III])
    def test_singular_derivative_takes_one_run_per_kernel_row(self, kind, monkeypatch):
        # x = t^0.5 at N = 256: x' is singular at s = 0, so W_0 and the kernel
        # miss on the pass's nodes, and each takes one adaptive run (one per
        # failing moment row before: up to 513).
        calls = []
        adaptive_quad = expansion._adaptive_quad
        monkeypatch.setattr(expansion, "_adaptive_quad",
                            lambda *args, what: calls.append(what) or adaptive_quad(*args, what=what))
        order = affine_order(0.5, 0.1, (0.0, 1.0))
        res = approximate(kind, power_function(0.5, 0.0, 1.0, Side.LEFT), order, 0.6, Side.LEFT,
                          ExpansionParams(1, 256))
        assert sorted(calls) == ["moment kernel", "scaled moment k=0"]
        assert abs(res.value - power_closed_form(kind, Side.LEFT, 0.5, order, 0.6)) <= 1e-4

    def test_error_falls_with_n_where_s_k_lives_near_one(self, monkeypatch):
        # Type III, left, t = 0.5, alpha = t/2 + 0.49, x = t^2: on seven equal
        # panels over [1/2, 1], s^k past the last node went unseen, and the
        # error grew with N (1.80e-6, 9.47e-5, 3.35e-3 at N = 8192, 12288,
        # 15000).  The panels halving ten times towards s = 1 see it, and the
        # error falls (1.80e-6, 1.08e-6, 8.41e-7).  The power table reaches
        # about 35 MB; it is dropped afterwards.
        monkeypatch.setattr(NODES, "powers", NODES.powers)
        x = power_function(2.0, 0.0, 1.0, Side.LEFT)
        exact = power_closed_form(Kind.TYPE_III, Side.LEFT, 2.0, ORDER_A, 0.5)
        err = [abs(approximate(Kind.TYPE_III, x, ORDER_A, 0.5, Side.LEFT, ExpansionParams(1, N)).value - exact)
               for N in (8192, 12288)]
        assert err[1] < err[0] < 2e-6

    @pytest.mark.parametrize("side", list(Side))
    def test_rounding_allowance_alone_covers_linear_x(self, side):
        # x = t or 1 - t with n = 1 has x'' = 0: the truncation bound of type
        # III is 0 and the certificate is the rounding allowance alone, which
        # must cover the error against mpmath over six orders, N up to 256
        # and t from 1e-3 to 1 - 1e-3.
        x = power_function(1.0, 0.0, 1.0, side)
        orders = [affine_order(c1, c0, (0.0, 1.0)) for c1, c0 in
                  [(0.0, 0.01), (0.0, 0.5), (0.0, 0.99), (0.5, 0.49), (0.98, 0.01), (-0.5, 0.7)]]
        for order in orders:
            for t in (1e-3, 0.07, 0.5, 0.93, 1.0 - 1e-3):
                dist = t if side is Side.LEFT else 1.0 - t
                alpha = order.alpha(t)
                with mpmath.workdps(30):
                    exact = mpmath.mpf(dist) ** (1 - mpmath.mpf(alpha)) / mpmath.gamma(2 - mpmath.mpf(alpha))
                maxima = derivative_bound(x, (2,), *((0.0, t) if side is Side.LEFT else (t, 1.0)))
                for N in (1, 6, 40, 256):
                    params = ExpansionParams(1, N)
                    assert error_bound(Kind.TYPE_III, params, alpha, 0.0, dist, maxima) == 0.0
                    res = approximate(Kind.TYPE_III, x, order, t, side, params)
                    assert abs(res.value - exact) <= res.error_bound, (alpha, t, N)

    @pytest.mark.parametrize("ap", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("kind", [Kind.TYPE_I, Kind.TYPE_II])
    @pytest.mark.parametrize("route", POINT_ROUTES)
    def test_non_finite_alpha_prime_rejected(self, route, kind, ap):
        # An order built without admission can give a non-finite alpha'(t);
        # every point route refuses it, naming t, where three of the four
        # used to return an inf or nan.
        order = OrderFunction(lambda t: 0.5, lambda t: ap, 0.0, 1.0)
        with pytest.raises(ValueError, match=re.escape(f"alpha' must be finite, got "
                                                        f"alpha'(0.5) = {ap}")):
            _kind_routes(order)[route](kind)

    @pytest.mark.parametrize("route", POINT_ROUTES)
    def test_type3_never_calls_alpha_prime(self, route):
        # alpha' is admitted by reference._admit alone, which skips it for
        # type III; types I and II call it once, at t.
        calls = []
        order = OrderFunction(lambda t: 0.5, lambda t: calls.append(t) or 0.2, 0.0, 1.0)
        fn = _kind_routes(order)[route]
        if route == "rl_from_caputo":  # type III has no RL counterpart
            with pytest.raises(DomainError, match="types I and II only"):
                fn(Kind.TYPE_III)
        else:
            fn(Kind.TYPE_III)
        assert calls == []
        for kind in (Kind.TYPE_I, Kind.TYPE_II):
            fn(kind)
        assert calls == [0.5, 0.5]

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("route", ["approximate", "moments", "caputo_quadrature"])
    def test_non_positive_tol_rejected(self, route, tol):
        x = power_function(0.5, 0.0, 1.0, Side.LEFT)  # singular x' reaches QUADPACK
        call = {
            "approximate": lambda t: approximate(Kind.TYPE_I, x, ORDER_B, t, tol=tol),
            "moments": lambda t: moments(x, Side.LEFT, t, ExpansionParams(1, 6), 13, tol),
            "caputo_quadrature": lambda t: caputo_quadrature(Kind.TYPE_I, x, ORDER_B, t, tol=tol),
        }[route]
        for t in (0.5, 0.0):
            with pytest.raises(ValueError, match="tol must be positive"):
                call(t)

    def test_endpoint_returns_zero(self):
        x = power_function(2.0, 0.0, 1.0, Side.LEFT)
        res = approximate(Kind.TYPE_I, x, ORDER_B, 0.0, Side.LEFT)
        assert res == ApproxResult(0.0, 0.0, "analytic")

    @pytest.mark.parametrize("side", list(Side))
    @pytest.mark.parametrize("route", list(OUTSIDE_ROUTES), ids=list(OUTSIDE_ROUTES))
    def test_outside_domain_rejected(self, route, side):
        # Past the operator's own endpoint and past the far end alike (t > b
        # on the left, t < a on the right, which used to return a value).
        x = power_function(2.0, 0.0, 1.0, side)
        for t in (-0.1, 1.5):
            with pytest.raises(SingularityError):
                OUTSIDE_ROUTES[route](x, side, t)

    @pytest.mark.parametrize("side", list(Side))
    @pytest.mark.parametrize("route", ["approximate", "caputo_quadrature", "power_closed_form",
                                       "rl_from_caputo"])
    def test_outside_order_domain_rejected(self, route, side):
        # x lives on [0, 2] but the order was admitted on [0, 1] only: a t in
        # x's domain and past the order's must not evaluate alpha there.
        x = power_function(2.0, 0.0, 2.0, side)
        with pytest.raises(SingularityError, match=r"t = 1.5 outside \[0.0, 1.0\]"):
            OUTSIDE_ROUTES[route](x, side, 1.5)


def _enum_routes(at_end: bool = False) -> dict:
    """Every route that takes a kind, a side or both, called as (kind, side)
    at t = 0.5 or, with ``at_end``, at the left end t = 0, where dist = 0."""
    t = 0.0 if at_end else 0.5
    x = power_function(2.0, 0.0, 1.0, Side.LEFT)
    L = DerivativeBound(values={1: 2.0, 2: 2.0}, estimated=False)
    return {
        "approximate": lambda kind, side: approximate(kind, x, ORDER_A, t, side).value,
        "caputo_quadrature": lambda kind, side: caputo_quadrature(kind, x, ORDER_A, t, side),
        "power_closed_form": lambda kind, side: power_closed_form(kind, side, 2.0, ORDER_A, t),
        "rl_from_caputo": lambda kind, side: rl_from_caputo(kind, side, 1.0, 0.0, ORDER_A, t),
        "moments": lambda kind, side: moments(x, side, t, ExpansionParams(1, 6), p_max=13),
        "power_function": lambda kind, side: power_function(2.0, 0.0, 1.0, side).value(0.25),
        "error_bound": lambda kind, side: error_bound(kind, ExpansionParams(1, 6), 0.5, 0.0, t, L),
    }


KIND_ROUTES = ["approximate", "caputo_quadrature", "power_closed_form", "rl_from_caputo",
               "error_bound"]
SIDE_ROUTES = ["approximate", "caputo_quadrature", "power_closed_form", "rl_from_caputo",
               "moments", "power_function"]


class TestEnumArguments:
    """A kind or side that is not a member of its enum is refused by name on
    every route, not read as another operator: every route compares with
    ``is``, so the string "left" used to pick the right side and the integer
    3 type II."""

    @pytest.mark.parametrize("at_end", [False, True])
    @pytest.mark.parametrize("kind", [3, 1, "TYPE_III", Side.LEFT, None])
    @pytest.mark.parametrize("route", KIND_ROUTES)
    def test_kind_must_be_a_kind(self, route, kind, at_end):
        with pytest.raises(ValueError, match=re.escape(f"kind must be a Kind, got {kind!r}")):
            _enum_routes(at_end)[route](kind, Side.LEFT)

    @pytest.mark.parametrize("at_end", [False, True])
    @pytest.mark.parametrize("side", ["left", "right", 0, Kind.TYPE_I, None])
    @pytest.mark.parametrize("route", SIDE_ROUTES)
    def test_side_must_be_a_side(self, route, side, at_end):
        with pytest.raises(ValueError, match=re.escape(f"side must be a Side, got {side!r}")):
            _enum_routes(at_end)[route](Kind.TYPE_II, side)


ORDER_T = affine_order(0.2, 0.3, (0.0, 2.0))


def _point_routes(side: Side) -> dict:
    """The four point routes on x = t^2 over [0, 2] under alpha = t/5 + 0.3,
    as t -> their floats: value and bound for ``approximate``."""
    x = power_function(2.0, 0.0, 2.0, side)

    def approx(t):
        r = approximate(Kind.TYPE_I, x, ORDER_T, t, side, ExpansionParams(1, 8))
        return r.value, r.error_bound

    return {
        "approximate": approx,
        "caputo_quadrature": lambda t: (caputo_quadrature(Kind.TYPE_II, x, ORDER_T, t, side),),
        "power_closed_form": lambda t: (power_closed_form(Kind.TYPE_I, side, 2.0, ORDER_T, t),),
        "rl_from_caputo": lambda t: (rl_from_caputo(Kind.TYPE_I, side, 1.25, 0.7, ORDER_T, t),),
    }


class TestEvaluationPoint:
    """Every point route computes at t as a Python float: NumPy's scalar
    promotion used to keep a float32 t in float32 through the route."""

    @pytest.mark.parametrize("t", [np.float32(0.5), np.float32(0.3), np.float64(0.3), 1,
                                   Fraction(3, 10)], ids=repr)
    @pytest.mark.parametrize("side", list(Side))
    @pytest.mark.parametrize("route", POINT_ROUTES)
    def test_real_t_gives_the_float_bits(self, route, side, t):
        fn = _point_routes(side)[route]
        got, want = fn(t), fn(float(t))
        assert all(type(v) is float for v in got + want), (got, want)
        assert [v.hex() for v in got] == [v.hex() for v in want]

    @pytest.mark.parametrize("t", ["0.5", Decimal("0.5"), 0.5 + 0j], ids=repr)
    @pytest.mark.parametrize("route", POINT_ROUTES + ["moments"])
    def test_non_real_t_rejected(self, route, t):
        x = power_function(2.0, 0.0, 2.0)
        fn = _point_routes(Side.LEFT).get(
            route, lambda t: moments(x, Side.LEFT, t, ExpansionParams(1, 6), p_max=13))
        with pytest.raises(ValueError, match=re.escape(f"t must be a real number, got {t!r}")):
            fn(t)
