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
]

#: Margin keeping alpha away from 0 and 1 so 1/(1-alpha) and the Gamma
#: arguments 1-alpha, 2-alpha stay finite.
ADMISSIBILITY_MARGIN = 1e-9

#: Largest gap between alpha' and alpha's difference, beyond that one's rounding.
_FD_TOL = 1e-5
#: Points of the uniform grid on which an order is admitted.
_ADMISSIBILITY_GRID = 101


class AdmissibilityError(ValueError):
    """An order fails a test of ``order_from_callables``; the message says which, where."""


@dataclass(frozen=True)
class OrderFunction:
    """Fractional order alpha(t) in (0,1) with derivative alpha'(t) on [a, b]."""

    alpha: Callable[[float], float]
    alpha_prime: Callable[[float], float]
    a: float
    b: float


def affine_order(c1: float, c0: float, domain: tuple[float, float] = (0.0, 1.0)) -> OrderFunction:
    """Order alpha(t) = c1*t + c0 with alpha'(t) = c1, by ``order_from_callables``.
    c1*t + c0 is monotone in floating point too, so it is admitted exactly
    when both ends lie in (1e-9, 1 - 1e-9): alpha' passes with its allowance."""
    return order_from_callables(lambda t: c1 * t + c0, lambda t: c1, domain)


def constant_order(c: float, domain: tuple[float, float] = (0.0, 1.0)) -> OrderFunction:
    """Constant order alpha(t) = c; all three Caputo types coincide."""
    return affine_order(0.0, c, domain)


def order_from_callables(
    alpha: Callable[[float], float],
    alpha_prime: Callable[[float], float],
    domain: tuple[float, float] = (0.0, 1.0),
) -> OrderFunction:
    """The order (alpha, alpha') on domain, the one admission path of every constructor.
    It is admitted iff a < b, b - a is finite and, on a uniform grid of 101 points, alpha
    stays in (1e-9, 1 - 1e-9) and alpha' is finite and within 1e-5 of alpha's first
    difference (``_difference``) plus its rounding, 4 eps (1 + |t alpha'|)/h for the
    machine eps and the stencil's step h = min(sqrt(eps), b - a), without which an exact
    alpha' fails on short or far domains.  Otherwise it raises :class:`AdmissibilityError`
    naming the first failed test and its first failing t."""
    a, b = float(domain[0]), float(domain[1])
    if not (a < b and math.isfinite(b - a)):
        raise AdmissibilityError(f"domain [{a}, {b}] is empty or unbounded: b - a = {b - a}")
    lo, hi = ADMISSIBILITY_MARGIN, 1.0 - ADMISSIBILITY_MARGIN
    ts = np.linspace(a, b, _ADMISSIBILITY_GRID).tolist()
    for t in ts:
        if not lo < (val := alpha(t)) < hi:
            raise AdmissibilityError(f"alpha({t}) = {val} outside ({lo}, {hi})")
    eps = np.finfo(float).eps
    fd, h = _difference(alpha, 1, a, b), min(math.sqrt(eps), b - a)  # h: fd's step
    for t in ts:
        if not math.isfinite(ap := alpha_prime(t)):
            raise AdmissibilityError(f"alpha'({t}) = {ap} is not finite")
        diff = fd(t)
        tol = _FD_TOL + 4.0 * eps * (1.0 + abs(t * ap)) / h
        if not abs(diff - ap) <= tol:
            raise AdmissibilityError(
                f"alpha'({t}) = {ap} is not within {tol:.3g} of alpha's difference {diff}")
    return OrderFunction(alpha, alpha_prime, a, b)


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
