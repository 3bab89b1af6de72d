"""Property tests of the certificate and of the left/right reflection.

Each case draws an affine order with alpha(0), alpha(1) in [0.02, 0.97], an
expansion depth n in {1, 2, 3}, a power law (t-a)^gamma or (b-t)^gamma with
gamma in [n+1, 5] (so x^(n+1) is bounded and the bound finite), a truncation
N in [n, 256], a point t anywhere in [0, 1] or within 1e-8..1e-1 of either
end, the kind and the side.
"""

import math

from hypothesis import given, settings, strategies as st

from varcaputo.expansion import ExpansionParams, approximate
from varcaputo.order import OrderFunction, affine_order
from varcaputo.reference import Kind, Side, caputo_quadrature, power_closed_form, power_function

# Fixed examples (no example database), sized to keep the module at a few
# seconds in the tier-1 suite.
PROPERTY_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@st.composite
def cases(draw):
    alpha0, alpha1 = draw(st.floats(0.02, 0.97)), draw(st.floats(0.02, 0.97))
    n = draw(st.integers(1, 3))
    gamma_exp = draw(st.floats(n + 1.0, 5.0))
    N = draw(st.integers(n, 256))
    near_end = st.floats(-8.0, -1.0).map(lambda e: 10.0**e)
    t = draw(st.one_of(st.floats(0.0, 1.0), near_end, near_end.map(lambda d: 1.0 - d)))
    kind, side = draw(st.sampled_from(Kind)), draw(st.sampled_from(Side))
    order = affine_order(alpha1 - alpha0, alpha0)
    return order, ExpansionParams(n, N), gamma_exp, t, kind, side


def _reflected(order: OrderFunction) -> OrderFunction:
    """alpha(1-s) on [0, 1], whose derivative is -alpha'(1-s)."""
    return OrderFunction(
        alpha=lambda s: order.alpha(1.0 - s),
        alpha_prime=lambda s: -order.alpha_prime(1.0 - s),
        a=0.0,
        b=1.0,
    )


def _assert_close(got: float, ref: float, rel: float) -> None:
    assert abs(got - ref) <= rel * max(1.0, abs(ref))


@PROPERTY_SETTINGS
@given(cases())
def test_certified_against_closed_form(case):
    order, params, gamma_exp, t, kind, side = case
    x = power_function(gamma_exp, 0.0, 1.0, side)
    res = approximate(kind, x, order, t, side, params)
    exact = power_closed_form(kind, side, gamma_exp, order, t)
    assert math.isfinite(res.value) and math.isfinite(res.error_bound)
    assert abs(res.value - exact) <= res.error_bound


@PROPERTY_SETTINGS
@given(cases())
def test_reflection_swaps_sides(case):
    # The operator on one side at t equals the operator on the other side at
    # 1 - t, applied to x(1-s) under alpha(1-s).
    order, params, gamma_exp, t, kind, side = case
    other = Side.RIGHT if side is Side.LEFT else Side.LEFT
    mirror = _reflected(order)
    x = power_function(gamma_exp, 0.0, 1.0, side)
    y = power_function(gamma_exp, 0.0, 1.0, other)
    s = 1.0 - t
    _assert_close(
        approximate(kind, x, order, t, side, params).value,
        approximate(kind, y, mirror, s, other, params).value,
        1e-12,
    )
    _assert_close(
        power_closed_form(kind, side, gamma_exp, order, t),
        power_closed_form(kind, other, gamma_exp, mirror, s),
        1e-12,
    )
    _assert_close(
        caputo_quadrature(kind, x, order, t, side),
        caputo_quadrature(kind, y, mirror, s, other),
        1e-9,
    )
