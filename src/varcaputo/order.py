"""Variable fractional order alpha(t) together with its derivative.

Every operator in this package differentiates to an order alpha(t) strictly
inside (0, 1); the derivative alpha'(t) enters the type I/II correction terms
explicitly, so it is carried alongside alpha.  alpha is assumed C^1 on the
domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "AdmissibilityError",
    "OrderFunction",
    "affine_order",
    "constant_order",
    "order_from_callables",
    "order_from_alpha",
    "check_admissible",
]

#: Margin keeping alpha away from 0 and 1 so 1/(1-alpha) and the Gamma
#: arguments 1-alpha, 2-alpha stay finite.
ADMISSIBILITY_MARGIN = 1e-9

#: Largest accepted gap between alpha' and the difference of alpha.
_FD_TOL = 1e-5
#: Points of the uniform grid on which ``check_admissible`` validates an order.
_ADMISSIBILITY_GRID = 101


class AdmissibilityError(ValueError):
    """The order function leaves the open interval (0, 1) on its domain."""


@dataclass(frozen=True)
class OrderFunction:
    """Fractional order alpha(t) in (0,1) with derivative alpha'(t) on [a, b]."""

    alpha: Callable[[float], float]
    alpha_prime: Callable[[float], float]
    a: float
    b: float


def affine_order(c1: float, c0: float, domain: tuple[float, float] = (0.0, 1.0)) -> OrderFunction:
    """Order alpha(t) = c1*t + c0 with alpha'(t) = c1.

    Raises :class:`AdmissibilityError` if the (affine, hence monotone) range
    leaves (0, 1) on the domain.
    """
    a, b = float(domain[0]), float(domain[1])
    if not a < b:
        raise AdmissibilityError(f"empty domain [{a}, {b}]")
    eps = ADMISSIBILITY_MARGIN
    for endpoint in (a, b):
        val = c1 * endpoint + c0
        if not eps < val < 1.0 - eps:
            raise AdmissibilityError(
                f"alpha({endpoint}) = {val} outside ({eps}, {1 - eps})"
            )
    return OrderFunction(alpha=lambda t: c1 * t + c0, alpha_prime=lambda t: c1, a=a, b=b)


def constant_order(c: float, domain: tuple[float, float] = (0.0, 1.0)) -> OrderFunction:
    """Constant order alpha(t) = c; all three Caputo types coincide."""
    return affine_order(0.0, c, domain)


def order_from_callables(
    alpha: Callable[[float], float],
    alpha_prime: Callable[[float], float],
    domain: tuple[float, float] = (0.0, 1.0),
) -> OrderFunction:
    """Generic constructor with analytic alpha'."""
    a, b = float(domain[0]), float(domain[1])
    if not a < b:
        raise AdmissibilityError(f"empty domain [{a}, {b}]")
    order = OrderFunction(alpha=alpha, alpha_prime=alpha_prime, a=a, b=b)
    if not check_admissible(order):
        raise AdmissibilityError("alpha(t) leaves (0,1) or alpha' is inconsistent")
    return order


def order_from_alpha(
    alpha: Callable[[float], float],
    domain: tuple[float, float] = (0.0, 1.0),
) -> OrderFunction:
    """Fallback constructor: alpha' by the first difference of ``_difference``,
    which calls alpha only inside the domain.  Its rounding sets its error: 5e-9
    on [0, 1], ends included, for 0.3 + 0.2 sin t, against 4e-11 inside for a
    central difference of step 1e-6 that reaches past the ends.

    alpha' is then the very difference ``check_admissible`` compares it
    with, so that check cannot reject it: an alpha with unbounded alpha' at
    an end, such as 0.3 + 0.4 sqrt(t), is accepted, with a finite alpha'(0)
    (3276.8) where the true one is infinite.  Pass the analytic alpha' to
    ``order_from_callables`` when it is known."""
    a, b = float(domain[0]), float(domain[1])
    return order_from_callables(alpha, _difference(alpha, 1, a, b), (a, b))


def check_admissible(order: OrderFunction) -> bool:
    """True iff alpha stays inside (eps, 1-eps) on a uniform grid of 101
    points and alpha' is within 1e-5 of the first difference of alpha
    (``_difference``, one-sided at the ends) there.
    """
    eps = ADMISSIBILITY_MARGIN
    ts = np.linspace(order.a, order.b, _ADMISSIBILITY_GRID)
    if not all(eps < order.alpha(t) < 1.0 - eps for t in map(float, ts)):
        return False
    fd = _difference(order.alpha, 1, order.a, order.b)
    return all(abs(fd(t) - order.alpha_prime(t)) <= _FD_TOL for t in map(float, ts))


def _difference(fn: Callable, k: int, a: float, b: float) -> Callable:
    """The k-th derivative of fn by one (k+1)-point binomial stencil, as a
    callable on a float or, elementwise, on an array of points in [a, b].

    The step h = eps^(1/(k+1)), at most (b-a)/k, balances the O(h)
    truncation of the stencil at an end against its eps/h^k rounding.  The
    stencil is centred on t where it fits in [a, b] and shifted inside at the
    ends.  Floats and arrays take the same arithmetic, so the same bits; a
    float is clamped by ``min``/``max``, which costs a tenth of the two NumPy
    ufunc calls that clamp an array, since quadrature calls it at every node.
    """
    h = min(np.finfo(float).eps ** (1.0 / (k + 1)), (b - a) / k)
    weights = [(-1) ** j * math.comb(k, j) for j in range(k + 1)]

    def dfn(t):
        if isinstance(t, np.ndarray):
            top = np.minimum(np.maximum(t + 0.5 * k * h, a + k * h), b)
        else:
            top = min(max(t + 0.5 * k * h, a + k * h), b)
        return sum(w * fn(top - j * h) for j, w in enumerate(weights)) / h**k

    return dfn
