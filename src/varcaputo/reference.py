"""Ground-truth evaluators for variable-order Caputo derivatives.

Three routes are provided:

* exact closed forms for power functions (``power_closed_form``),
* adaptive quadrature of the defining integrals for all six operators
  (types I/II/III, left and right), and
* boundary-term conversions from Caputo to Riemann-Liouville values.

The type III kernel (t-tau)^(-alpha) is weakly singular; the substitution
u = (t-tau)^(1-alpha) turns it into a bounded integrand, after which ordinary
adaptive Gauss-Kronrod quadrature (scipy's QUADPACK) converges quickly.
Types I and II are evaluated through the relation formulas tying them to
type III -- differentiating a parameter-dependent singular integral in t
numerically would be far worse conditioned.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.integrate import quad

from .order import OrderFunction
from .special import DomainError, digamma, gamma, gamma_ratio

__all__ = [
    "Kind",
    "Side",
    "ScalarFunction",
    "QuadratureError",
    "SingularityError",
    "power_function",
    "caputo_quadrature",
    "caputo_type1_quadrature",
    "caputo_type2_quadrature",
    "caputo_type3_quadrature",
    "power_closed_form",
    "rl_from_caputo",
    "DEFAULT_TOL",
    "SUBDIVISION_BUDGET",
]

DEFAULT_TOL = 1e-8
SUBDIVISION_BUDGET = 10_000

_FD_STEP = 1e-7
_LOG_CLAMP = 1e-300

#: A real function of one variable, applied to a float or elementwise to an array.
RealFn = Callable[[float | np.ndarray], float | np.ndarray]


class Kind(enum.Enum):
    """The three inequivalent variable-order Caputo definitions."""

    TYPE_I = 1
    TYPE_II = 2
    TYPE_III = 3


class Side(enum.Enum):
    LEFT = "left"
    RIGHT = "right"


class QuadratureError(RuntimeError):
    """Adaptive quadrature could not reach the requested tolerance."""


class SingularityError(ValueError):
    """Evaluation requested at a point where the expression diverges."""


@dataclass(frozen=True)
class ScalarFunction:
    """A real C^1 function on [a, b] with optional analytic derivatives.

    ``derivatives[k]`` is the (k+1)-th derivative.  Every callable should
    accept a float or an ndarray of points: a float gives a float, and an
    array gives the values elementwise (or one constant, which callers
    broadcast).  The quadrature routines call them one point at a time; the
    expansion samples them on whole arrays, and calls a float-only callable
    (one that raises TypeError or ValueError on an array) point by point
    instead, at a Python call per sample.  When no analytic first derivative is supplied, a
    central finite difference with step 1e-7 (one-sided at the endpoints)
    stands in, at a documented accuracy loss of roughly 1e-7.  Numeric
    higher derivatives are limited to order 3.
    """

    value: RealFn
    a: float
    b: float
    derivatives: tuple[RealFn, ...] = field(default=())

    def deriv(self, p: int = 1) -> RealFn:
        if p < 1:
            raise ValueError("derivative order must be >= 1")
        if p <= len(self.derivatives):
            return self.derivatives[p - 1]
        if p > 3:
            raise DomainError(
                f"numeric derivative fallback limited to order 3, requested {p}"
            )
        base = self.derivatives[-1] if self.derivatives else self.value
        fn = base
        for _ in range(p - len(self.derivatives)):
            fn = self._numeric_derivative(fn)
        return fn

    def _numeric_derivative(self, fn: RealFn) -> RealFn:
        h = _FD_STEP
        a, b = self.a, self.b

        def dfn(t):
            if isinstance(t, np.ndarray):
                # The same three stencils as the scalar branch, chosen per point.
                forward = t - h < a
                backward = ~forward & (t + h > b)
                upper = np.where(backward, t, t + h)
                lower = np.where(forward, t, t - h)
                return (fn(upper) - fn(lower)) / np.where(forward | backward, h, 2.0 * h)
            if t - h < a:
                return (fn(t + h) - fn(t)) / h
            if t + h > b:
                return (fn(t) - fn(t - h)) / h
            return (fn(t + h) - fn(t - h)) / (2.0 * h)

        return dfn


def power_function(gamma_exp: float, a: float, b: float, side: Side = Side.LEFT) -> ScalarFunction:
    """(t-a)^gamma for the left side, (b-t)^gamma for the right, with analytic
    derivatives up to order 4 (enough for expansions with n <= 3).

    The callables take floats or arrays; the float path stays free of NumPy
    because the quadrature routines call it point by point.
    """
    if gamma_exp <= 0:
        raise DomainError(f"power exponent must be positive, got {gamma_exp}")

    left = side is Side.LEFT
    ndarray = np.ndarray  # bound once: quad calls the float path at every node

    def make_deriv(p: int) -> RealFn:
        scale = (1.0 if left else (-1.0) ** p) * gamma_ratio(gamma_exp + 1.0, gamma_exp + 1.0 - p)
        exponent = gamma_exp - p
        at_end = 0.0 if exponent > 0.0 else (scale if exponent == 0.0 else math.inf)

        def dfn(t):
            dist = (t - a) if left else (b - t)
            if isinstance(dist, ndarray):
                with np.errstate(divide="ignore"):  # 0 ** negative, replaced by at_end
                    return np.where(dist == 0.0, at_end, scale * dist**exponent)
            if dist == 0.0:
                return at_end
            return scale * dist**exponent

        return dfn

    if left:
        value = lambda t: (t - a) ** gamma_exp
    else:
        value = lambda t: (b - t) ** gamma_exp
    n_derivs = 4 if gamma_exp != math.floor(gamma_exp) else min(4, int(gamma_exp))
    derivs = tuple(make_deriv(p) for p in range(1, n_derivs + 1))
    if n_derivs < 4:
        # Derivatives beyond the polynomial degree vanish identically.
        derivs = derivs + tuple(lambda t: 0.0 for _ in range(4 - n_derivs))
    return ScalarFunction(value=value, a=a, b=b, derivatives=derivs)


def _adaptive_quad(fn: Callable[[float], float], lo: float, hi: float, tol: float) -> float:
    if hi <= lo:
        return 0.0
    value, abserr = quad(fn, lo, hi, epsabs=tol, epsrel=1e-12, limit=SUBDIVISION_BUDGET)
    if abserr > max(100.0 * tol, 1e-10 * abs(value)):
        raise QuadratureError(
            f"quadrature error estimate {abserr:.3e} exceeds tolerance {tol:.3e}"
        )
    return value


def caputo_type3_quadrature(
    x: ScalarFunction,
    order: OrderFunction,
    t: float,
    side: Side = Side.LEFT,
    tol: float = DEFAULT_TOL,
) -> float:
    """Type III derivative by quadrature of its defining integral.

    The weak singularity is removed by u = (t-tau)^(1-alpha) (mirrored for
    the right operator), under which the kernel contributes a constant and
    only x' is sampled.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    _check_eval_point(x, t, side)
    if (side is Side.LEFT and t == x.a) or (side is Side.RIGHT and t == x.b):
        return 0.0
    alpha = order.alpha(t)
    oma = 1.0 - alpha
    dx = x.deriv(1)
    if side is Side.LEFT:
        upper = (t - x.a) ** oma
        integrand = lambda u: dx(t - u ** (1.0 / oma))
        return _adaptive_quad(integrand, 0.0, upper, tol) / gamma(2.0 - alpha)
    upper = (x.b - t) ** oma
    integrand = lambda u: dx(t + u ** (1.0 / oma))
    return -_adaptive_quad(integrand, 0.0, upper, tol) / gamma(2.0 - alpha)


def caputo_type1_quadrature(
    x: ScalarFunction,
    order: OrderFunction,
    t: float,
    side: Side = Side.LEFT,
    tol: float = DEFAULT_TOL,
) -> float:
    """Type I derivative: type III plus the alpha'-weighted log-kernel
    correction integral.  The correction kernel is bounded; only the log
    factor needs clamping at tau -> t.
    """
    base = caputo_type3_quadrature(x, order, t, side, tol / 2.0)
    if (side is Side.LEFT and t == x.a) or (side is Side.RIGHT and t == x.b):
        return 0.0
    ap = order.alpha_prime(t)
    if ap == 0.0:
        return base
    alpha = order.alpha(t)
    inv = 1.0 / (1.0 - alpha)
    dx = x.deriv(1)
    if side is Side.LEFT:
        def integrand(tau: float) -> float:
            s = max(t - tau, _LOG_CLAMP)
            return s ** (1.0 - alpha) * dx(tau) * (inv - math.log(s))

        corr = _adaptive_quad(integrand, x.a, t, tol / 2.0)
    else:
        def integrand(tau: float) -> float:
            s = max(tau - t, _LOG_CLAMP)
            return s ** (1.0 - alpha) * dx(tau) * (inv - math.log(s))

        corr = _adaptive_quad(integrand, t, x.b, tol / 2.0)
    return base + ap / gamma(2.0 - alpha) * corr


def caputo_type2_quadrature(
    x: ScalarFunction,
    order: OrderFunction,
    t: float,
    side: Side = Side.LEFT,
    tol: float = DEFAULT_TOL,
) -> float:
    """Type II derivative via the digamma-weighted relation to type I.

    The correction integrand is weakly singular and handled with the same
    substitution as the type III kernel.
    """
    base = caputo_type1_quadrature(x, order, t, side, tol / 2.0)
    if (side is Side.LEFT and t == x.a) or (side is Side.RIGHT and t == x.b):
        return 0.0
    ap = order.alpha_prime(t)
    if ap == 0.0:
        return base
    alpha = order.alpha(t)
    oma = 1.0 - alpha
    factor = ap * digamma(1.0 - alpha) / gamma(1.0 - alpha)
    if side is Side.LEFT:
        xa = x.value(x.a)
        upper = (t - x.a) ** oma
        integrand = lambda u: x.value(t - u ** (1.0 / oma)) - xa
        integral = _adaptive_quad(integrand, 0.0, upper, tol / 2.0) / oma
        return base + factor * integral
    xb = x.value(x.b)
    upper = (x.b - t) ** oma
    integrand = lambda u: x.value(t + u ** (1.0 / oma)) - xb
    integral = _adaptive_quad(integrand, 0.0, upper, tol / 2.0) / oma
    return base - factor * integral


def caputo_quadrature(
    kind: Kind,
    x: ScalarFunction,
    order: OrderFunction,
    t: float,
    side: Side = Side.LEFT,
    tol: float = DEFAULT_TOL,
) -> float:
    """Dispatch to the quadrature evaluator for the requested kind."""
    if kind is Kind.TYPE_I:
        return caputo_type1_quadrature(x, order, t, side, tol)
    if kind is Kind.TYPE_II:
        return caputo_type2_quadrature(x, order, t, side, tol)
    return caputo_type3_quadrature(x, order, t, side, tol)


def power_closed_form(
    kind: Kind,
    side: Side,
    gamma_exp: float,
    order: OrderFunction,
    t: float,
) -> float:
    """Exact derivative of (t-a)^gamma (left) or (b-t)^gamma (right).

    All three kinds share the leading term Gamma(gamma+1)/Gamma(gamma-alpha+1)
    * dist^(gamma-alpha); types I and II add an alpha'-weighted term carrying
    ln(dist) - Psi(gamma-alpha+2), with Psi(1-alpha) appearing for type I
    only.  The correction enters with a minus sign on the left and a plus
    sign on the right.
    """
    if gamma_exp <= 0:
        raise DomainError(f"power exponent must be positive, got {gamma_exp}")
    dist = (t - order.a) if side is Side.LEFT else (order.b - t)
    if dist == 0.0:
        return 0.0
    if dist < 0.0:
        raise SingularityError(f"t = {t} outside the operator's range")
    alpha = order.alpha(t)
    base = gamma_ratio(gamma_exp + 1.0, gamma_exp - alpha + 1.0) * dist ** (gamma_exp - alpha)
    if kind is Kind.TYPE_III:
        return base
    bracket = math.log(dist) - digamma(gamma_exp - alpha + 2.0)
    if kind is Kind.TYPE_I:
        bracket += digamma(1.0 - alpha)
    corr = (
        order.alpha_prime(t)
        * gamma_ratio(gamma_exp + 1.0, gamma_exp - alpha + 2.0)
        * dist ** (gamma_exp - alpha + 1.0)
        * bracket
    )
    return base - corr if side is Side.LEFT else base + corr


def rl_from_caputo(
    kind: Kind,
    side: Side,
    caputo_value: float,
    boundary_value: float,
    order: OrderFunction,
    t: float,
) -> float:
    """Riemann-Liouville value from a Caputo value and the boundary value
    x(a) (left) or x(b) (right).

    The boundary corrections differ between types only in the bracket:
    1/(1-alpha) for type I, Psi(2-alpha) for type II.  Type III has no
    Riemann-Liouville counterpart here.
    """
    if kind is Kind.TYPE_III:
        raise DomainError("RL conversion is defined for types I and II only")
    if boundary_value == 0.0:
        return caputo_value
    dist = (t - order.a) if side is Side.LEFT else (order.b - t)
    if dist <= 0.0:
        raise SingularityError(
            "RL correction diverges at the endpoint for nonzero boundary value"
        )
    alpha = order.alpha(t)
    ap = order.alpha_prime(t)
    if kind is Kind.TYPE_I:
        bracket = 1.0 / (1.0 - alpha) - math.log(dist)
    else:
        bracket = digamma(2.0 - alpha) - math.log(dist)
    static = boundary_value / gamma(1.0 - alpha) * dist ** (-alpha)
    moving = boundary_value * ap / gamma(2.0 - alpha) * dist ** (1.0 - alpha) * bracket
    if side is Side.LEFT:
        return caputo_value + static + moving
    return caputo_value + static - moving


def _check_eval_point(x: ScalarFunction, t: float, side: Side) -> None:
    if not x.a <= t <= x.b:
        raise SingularityError(f"t = {t} outside [{x.a}, {x.b}]")
