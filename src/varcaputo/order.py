"""Variable fractional order alpha(t) together with its derivative.

Every operator in this package differentiates to an order alpha(t) strictly
inside (0, 1); the derivative alpha'(t) enters the type I/II correction terms
explicitly, so it is carried alongside alpha.  alpha is assumed C^1 on the
domain.
"""

from __future__ import annotations

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

#: Step for the central-difference consistency check of alpha_prime.
_FD_STEP = 1e-6
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
    """Fallback constructor: alpha' by central differences (step 1e-6).

    Analytic alpha' is preferred; the numeric fallback loses ~1e-10 of
    accuracy and assumes alpha extends smoothly slightly past the endpoints.
    """
    h = _FD_STEP

    def alpha_prime(t: float) -> float:
        return (alpha(t + h) - alpha(t - h)) / (2.0 * h)

    return order_from_callables(alpha, alpha_prime, domain)


def check_admissible(order: OrderFunction) -> bool:
    """True iff alpha stays inside (eps, 1-eps) on a uniform grid of 101
    points and alpha' matches a central finite difference of alpha within 1e-5
    there.
    """
    eps = ADMISSIBILITY_MARGIN
    ts = np.linspace(order.a, order.b, _ADMISSIBILITY_GRID)
    for t in ts:
        val = order.alpha(float(t))
        if not eps < val < 1.0 - eps:
            return False
    h = _FD_STEP
    for t in ts:
        t = float(min(max(t, order.a + h), order.b - h))
        fd = (order.alpha(t + h) - order.alpha(t - h)) / (2.0 * h)
        if abs(fd - order.alpha_prime(t)) > _FD_TOL:
            return False
    return True
