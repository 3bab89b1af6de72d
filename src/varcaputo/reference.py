"""Ground-truth evaluators for variable-order Caputo derivatives.

Three routes are provided:

* exact closed forms for power functions (``power_closed_form``),
* one adaptive quadrature of the defining integrals for all six operators,
  types I/II/III, left and right (``caputo_quadrature(kind, ...)``), and
* boundary-term conversions from Caputo to Riemann-Liouville values.

Every route works in the signed frame (sgn, end, dist) of ``_frame``: the
left operators integrate from end = a with sgn = +1, the right ones from
end = b with sgn = -1, and dist = sgn (t - end).  The right-sided operator of
x under alpha is the left-sided one of x(a+b-s) under alpha(a+b-s), so a side
changes only that endpoint and sign.  Every point route, ``approximate``
included, takes t as a float, the frame, alpha(t) and alpha'(t) from ``_admit``.

The type III kernel |t-tau|^(-alpha) is weakly singular; the substitution
u = |t-tau|^(1-alpha) turns it into a bounded integrand, after which ordinary
adaptive Gauss-Kronrod quadrature (scipy's QUADPACK) converges quickly.
Types I and II add one alpha'-weighted log-kernel integral of x': the kinds
differ only in alpha' (0 for type III) and its constant (``_log_bracket``).
No singular integral is differentiated in t numerically.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .order import OrderFunction, _difference
from .special import DomainError, _digamma, gamma

__all__ = [
    "Kind",
    "Side",
    "ScalarFunction",
    "QuadratureError",
    "SingularityError",
    "power_function",
    "caputo_quadrature",
    "power_closed_form",
    "rl_from_caputo",
    "DEFAULT_TOL",
]

DEFAULT_TOL = 1e-8
_SUBDIVISION_BUDGET = 10_000

_LOG_CLAMP = 1e-300
#: The log kernel's singular part x'(t) J is kept when |x'(t) J| is at most
#: this many times |x'(t) J + remainder| (``caputo_quadrature``).
_MAX_CANCELLATION = 16.0

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


#: Members bound once: on Python 3.11 each ``Kind.X``/``Side.X`` lookup costs
#: about 0.1 us, and every point route tests its kind and side.
_LEFT, _TYPE_I, _TYPE_III = Side.LEFT, Kind.TYPE_I, Kind.TYPE_III


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
    instead, at a Python call per sample.  An order p beyond the analytic
    ones is the (p - len(derivatives))-th difference of the last analytic
    derivative (of the value if there is none) by the one stencil of
    ``order._difference``, which stays inside [a, b].  On e^t, sin 3t and
    t^2(1-t)+t/2 over [0, 1], ends included, a value-only function's x' is
    within 3e-8 (also inside, ten times a central difference of step 1e-7),
    x'' within 1.6e-4 and x''' within 2.1e-3.  Numeric derivatives are
    limited to order 3.

    ``monotone_derivatives`` declares that each callable in ``derivatives``
    has monotone |x^(p)| on [a, b], so its maximum over a subinterval is at
    an end; the expansion's bound then evaluates the two ends instead of
    sampling.  It says nothing about numeric-fallback orders.
    """

    value: RealFn
    a: float
    b: float
    derivatives: tuple[RealFn, ...] = field(default=())
    monotone_derivatives: bool = False

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
        return _difference(base, p - len(self.derivatives), self.a, self.b)


def power_function(gamma_exp: float, a: float, b: float, side: Side = Side.LEFT) -> ScalarFunction:
    """(t-a)^gamma for the left side, (b-t)^gamma for the right, with analytic
    derivatives up to order 4 (enough for expansions with n <= 3).

    The value and every derivative come from one closure: the p-th
    derivative is the falling factorial gamma (gamma-1) ... (gamma-p+1)
    times dist^(gamma-p), with the sign (-1)^p on the right, and the value is
    its p = 0 case.  The factor is exactly 0 once p exceeds an integer gamma,
    and the exponent is then 0, so the derivative is 0 everywhere, endpoints
    included.  The callables take floats or arrays.  They test for a float
    first, ahead of the ndarray test, and the float path stays free of NumPy,
    because QUADPACK calls x' once per node; an np.float64 (a float subclass)
    and a 0-d array (whose distance is an np.float64) take the same scalar
    arithmetic, so every scalar input gives the float path's bits.
    |x^(p)| = |gamma (gamma-1) ... (gamma-p+1)| dist^(gamma-p) is increasing,
    constant or decreasing in dist with the sign of gamma - p, so it is
    monotone in t and the function declares ``monotone_derivatives``; at a
    singular end the derivative is inf, which is then its maximum.

    gamma must be positive and finite, and so must the falling factorials up
    to order 4 (gamma^4 overflows once gamma exceeds about 1.16e77); any
    other exponent raises ``DomainError``.
    """
    if not (gamma_exp > 0 and math.isfinite(math.prod(gamma_exp - j for j in range(4)))):
        raise DomainError(f"power exponent must be positive with finite derivative factors, "
                          f"got {gamma_exp}")

    if not isinstance(side, Side):
        raise ValueError(f"side must be a Side, got {side!r}")
    left = side is Side.LEFT
    ndarray = np.ndarray

    def make_deriv(p: int) -> RealFn:
        factor = math.prod(gamma_exp - j for j in range(p))
        scale = factor if left else (-1.0) ** p * factor
        exponent = gamma_exp - p if factor != 0.0 else 0.0  # no 0 * inf at the end
        at_end = 0.0 if exponent > 0.0 else (scale if exponent == 0.0 else math.inf)

        def dfn(t):
            dist = (t - a) if left else (b - t)
            if not isinstance(dist, float) and isinstance(dist, ndarray):  # float first: per node
                if dist.all():  # no node on the end: nothing to replace
                    return scale * dist**exponent
                with np.errstate(divide="ignore"):  # 0 ** negative, replaced by at_end
                    return np.where(dist == 0.0, at_end, scale * dist**exponent)
            if dist == 0.0:
                return at_end
            return scale * dist**exponent

        return dfn

    return ScalarFunction(value=make_deriv(0), a=a, b=b,
                          derivatives=tuple(map(make_deriv, range(1, 5))),
                          monotone_derivatives=True)


def _adaptive_quad(fn: Callable[[float], float], lo: float, hi: float, tol: float,
                   what: str = "quadrature") -> float:
    """QUADPACK integral of fn over [lo, hi].  A value that is not finite, or
    an error estimate that is not at most max(100 tol, 1e-10 |value|) (a nan
    estimate included), raises ``QuadratureError`` labelled ``what``;
    QUADPACK's message, returned rather than warned under ``full_output``,
    goes into its text and is otherwise dropped.  SciPy is imported here, on
    the first call, so that importing the package does not load it."""
    from scipy.integrate import quad

    value, abserr, _, *message = quad(fn, lo, hi, epsabs=tol, epsrel=1e-12,
                                      limit=_SUBDIVISION_BUDGET, full_output=1)
    if not (math.isfinite(value) and abserr <= max(100.0 * tol, 1e-10 * abs(value))):
        detail = "".join(f"; {' '.join(m.split()).split('.')[0]}" for m in message)
        raise QuadratureError(f"{what} value {value:.3e} with error estimate {abserr:.3e} "
                              f"misses tolerance {tol:.3e}{detail}")
    return value


def caputo_quadrature(
    kind: Kind,
    x: ScalarFunction,
    order: OrderFunction,
    t: float,
    side: Side = Side.LEFT,
    tol: float = DEFAULT_TOL,
) -> float:
    """The requested Caputo derivative by quadrature of its defining integrals.

    Only x' is sampled.  Type III: u = dist^(1-alpha) in the signed frame
    removes the weak singularity, and the kernel contributes a constant.
    Types I and II add, when alpha' != 0, alpha'/Gamma(2-alpha) times the
    log-kernel integral of s^(1-alpha) x'(t - sgn s) (c - ln s) over s in
    [0, dist], with c = 1/(1-alpha) or Psi(2-alpha) from ``_log_bracket``;
    type II's own term, an integral of x, takes this form after an
    integration by parts.  The kinds differ only in alpha' and c.  Each
    integral gets tol when it runs alone and tol/2 when both run.  t and tol
    are admitted on [x.a, x.b] by ``_admit``, which raises its errors.

    The log kernel's singular part is subtracted (Davis & Rabinowitz,
    Methods of Numerical Integration, 2.12).  With p = 2 - alpha,

        int_0^dist s^(p-1) (c - ln s) x'(t - sgn s) ds
            = x'(t) J + int_0^dist s^(p-1) (c - ln s) (x'(t - sgn s) - x'(t)) ds,
        J = int_0^dist s^(p-1) (c - ln s) ds = dist^p / p (c - ln dist + 1/p),

    and QUADPACK takes only the remainder, which vanishes at s = 0 like
    s^p ln s, one order smoother than the plain integrand.  The plain
    integrand is used instead when x'(t) J is not finite (x'(t) inf or nan
    included), when the remainder's run raises ``QuadratureError``, or when
    the two parts cancel by more than ``_MAX_CANCELLATION`` = 16,
    |x'(t) J| > 16 |x'(t) J + remainder| (a huge x'(t) next to a singular
    end, such as t = 1e-300 for the right operator on t^0.5).

    QUADPACK calls each integrand 20-370 times per point, so everything that
    does not depend on the node is bound once per call: 1/(1-alpha), c,
    x'(t), ``math.log`` and the clamp, tested with ``<`` rather than ``max``.
    The clamp stays because deep bisection can reach s = 0.
    """
    if (admitted := _admit(kind, order, t, side, x.a, x.b, tol)) is None:
        return 0.0
    t, sgn, _, dist, alpha, ap = admitted
    oma = 1.0 - alpha
    tol_each = tol if ap == 0.0 else tol / 2.0
    dx = x.deriv(1)
    inv_oma = 1.0 / oma
    value = sgn * _adaptive_quad(lambda u: dx(t - sgn * u**inv_oma), 0.0, dist**oma, tol_each)
    if ap != 0.0:
        value += ap * _log_kernel_integral(dx, t, sgn, dist, oma, _log_bracket(kind, alpha, 1.0),
                                           tol_each)
    return value / gamma(2.0 - alpha)


def _log_kernel_integral(dx: RealFn, t: float, sgn: float, dist: float, oma: float, c: float,
                         tol: float) -> float:
    """int_0^dist s^oma (c - ln s) x'(t - sgn s) ds, as x'(t) J plus the
    remainder's quadrature, or by the plain integrand where the rule of
    ``caputo_quadrature`` says so; a plain run that fails raises its
    ``QuadratureError``."""
    log, clamp = math.log, _LOG_CLAMP

    def integrand(d0: float) -> Callable[[float], float]:
        def log_kernel(s: float) -> float:
            if s < clamp:  # deep bisection can reach s = 0
                s = clamp
            return s**oma * (dx(t - sgn * s) - d0) * (c - log(s))

        return log_kernel

    d0, p = float(dx(t)), 1.0 + oma
    singular = d0 * (dist * dist**oma) / p * (c - log(dist) + 1.0 / p)  # dist^p: no OverflowError
    if math.isfinite(singular):  # x'(t) inf or nan too
        try:
            rest = _adaptive_quad(integrand(d0), 0.0, dist, tol)
        except QuadratureError:
            pass
        else:
            if abs(singular) <= _MAX_CANCELLATION * abs(singular + rest):
                return singular + rest
    return _adaptive_quad(integrand(0.0), 0.0, dist, tol)  # x' - 0.0 is x', bit for bit


def power_closed_form(
    kind: Kind,
    side: Side,
    gamma_exp: float,
    order: OrderFunction,
    t: float,
) -> float:
    """Exact derivative of (t-a)^gamma (left) or (b-t)^gamma (right).

    All three kinds share the leading term Gamma(gamma+1)/Gamma(gamma-alpha+1)
    * dist^(gamma-alpha); where alpha' != 0, types I and II add an
    alpha'-weighted term carrying ln(dist) - Psi(gamma-alpha+2), with
    Psi(1-alpha) appearing for type I only.  The correction enters with the
    sign -sgn of the signed frame: minus on the left, plus on the right.  t
    is admitted on the order's [a, b] by ``_admit``, which raises its errors;
    a gamma that is not positive and finite raises ``DomainError`` first.

    Both Gamma ratios have arguments gamma + 1 > gamma - alpha + 1 > 0, so
    they are ``special.gamma_ratio``'s exp(lgamma(num) - lgamma(den)), bit
    for bit, without its finiteness, pole and sign work.  The digammas'
    arguments gamma - alpha + 2 and 1 - alpha are positive too, so they are
    ``special._digamma``, ``digamma`` without its checks.
    """
    if not 0.0 < gamma_exp < math.inf:
        raise DomainError(f"power exponent must be positive and finite, got {gamma_exp}")
    if (admitted := _admit(kind, order, t, side, order.a, order.b)) is None:
        return 0.0
    _, sgn, _, dist, alpha, ap = admitted
    lgamma_num = math.lgamma(gamma_exp + 1.0)
    base = math.exp(lgamma_num - math.lgamma(gamma_exp - alpha + 1.0)) * dist ** (gamma_exp - alpha)
    if ap == 0.0:
        return base
    bracket = math.log(dist) - _digamma(gamma_exp - alpha + 2.0)
    if kind is _TYPE_I:
        bracket += _digamma(1.0 - alpha)
    corr = (
        ap
        * math.exp(lgamma_num - math.lgamma(gamma_exp - alpha + 2.0))
        * dist ** (gamma_exp - alpha + 1.0)
        * bracket
    )
    return base - sgn * corr


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
    Riemann-Liouville counterpart here and raises ``DomainError``.  t is
    admitted on the order's [a, b] by ``_admit``, which raises its errors
    (an alpha(t) outside (0, 1) ``DomainError``) whatever the boundary value.
    """
    if kind is Kind.TYPE_III:
        raise DomainError("RL conversion is defined for types I and II only")
    admitted = _admit(kind, order, t, side, order.a, order.b)
    if boundary_value == 0.0:
        return caputo_value
    if admitted is None:
        raise SingularityError("RL correction diverges at the endpoint for nonzero boundary value")
    _, sgn, _, dist, alpha, ap = admitted
    static = boundary_value / gamma(1.0 - alpha) * dist ** (-alpha)
    moving = (
        boundary_value * ap / gamma(2.0 - alpha) * dist ** (1.0 - alpha)
        * _log_bracket(kind, alpha, dist)
    )
    return caputo_value + static + sgn * moving


def _frame(a: float, b: float, t: float, side: Side) -> tuple[float, float, float, float]:
    """(t, sgn, end, dist): t as a Python float (a NumPy float32 would keep its
    precision) and the signed frame of a one-sided operator at t.

    sgn = +1 and end = a on the left, sgn = -1 and end = b on the right, and
    dist = sgn (t - end) >= 0 is the length of the integration range.  The
    right-sided operators are the left-sided ones reflected through
    s -> a + b - s, so a side changes only the endpoint and this sign.  A side
    or t that is not a ``Side`` or ``numbers.Real`` raises ``ValueError``.
    """
    if not isinstance(side, Side):
        raise ValueError(f"side must be a Side, got {side!r}")
    if not isinstance(t, (float, numbers.Real)):  # float first: it skips the slow ABC check
        raise ValueError(f"t must be a real number, got {t!r}")
    if not a <= t <= b:
        raise SingularityError(f"t = {t} outside [{a}, {b}]")
    t = float(t)
    sgn, end = (1.0, a) if side is _LEFT else (-1.0, b)
    return t, sgn, end, abs(t - end)


def _admit(kind: Kind, order: OrderFunction, t: float, side: Side, a: float, b: float,
           tol: float = DEFAULT_TOL) -> tuple[float, float, float, float, float, float] | None:
    """(t, sgn, end, dist, alpha(t), alpha'(t)) of a point route at the float
    t of ``_frame`` on [a, b], x's range (the order's where there is no x),
    or None at dist = 0, before alpha is evaluated.  It is the one place where
    the point routes admit alpha(t) and alpha'(t); alpha' is 0 for type III,
    with no ``alpha_prime`` call, so a route has an alpha' term iff alpha' != 0.
    A kind, side or t that is not a ``Kind``, ``Side`` or real, a tol that is
    not positive and finite, or a non-finite alpha'(t) raises ``ValueError``,
    a t outside the order's domain or [a, b] ``SingularityError``, and an
    alpha(t) outside (0, 1) ``DomainError``.  Where [a, b] is the order's,
    as for the closed form and the RL conversion, one ``_frame`` call serves
    both.
    """
    if not isinstance(kind, Kind):
        raise ValueError(f"kind must be a Kind, got {kind!r}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    frame = _frame(order.a, order.b, t, side)
    if a != order.a or b != order.b:  # x's range: admit t there too
        frame = _frame(a, b, t, side)
    t, sgn, end, dist = frame
    if dist == 0.0:
        return None
    alpha = order.alpha(t)
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0,1), got alpha({t}) = {alpha}")
    ap = 0.0 if kind is _TYPE_III else order.alpha_prime(t)
    if not math.isfinite(ap):
        raise ValueError(f"alpha' must be finite, got alpha'({t}) = {ap}")
    return t, sgn, end, dist, alpha, ap


def _log_bracket(kind: Kind, alpha: float, dist: float) -> float:
    """The bracket of every alpha' term of types I and II: 1/(1-alpha) for
    type I, Psi(2-alpha) for type II (``special._digamma``: 2 - alpha > 1),
    minus ln dist."""
    return (1.0 / (1.0 - alpha) if kind is _TYPE_I else _digamma(2.0 - alpha)) - math.log(dist)
