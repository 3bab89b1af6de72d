"""Integer-order expansion of variable-order Caputo derivatives with
computable error bounds.

The six operators (types I/II/III, left and right) are rewritten as a finite
sum of classical derivatives of x at the evaluation point plus a finite sum
over running moment integrals of x', truncated at level N.  The truncation
error admits an explicit bound in terms of the maxima of |x'| and |x^(n+1)|
on the integration range; the bound is returned alongside the value so every
result is a certificate, not just a number.

The moments are taken in the scaled variable s = |tau - endpoint| / dist in
[0, 1]: W_k = int_0^1 s^k x'(endpoint -+ s dist) ds, so V_p = dist^(k+1) W_k
with k = p - n.  The expansion combines the O(1) numbers W_k with no
dist^(-p) factors, so it neither underflows nor overflows as dist -> 0.  One
vectorised Gauss-Kronrod (G10/K21) pass over a fixed panel set, graded
geometrically towards the endpoint s = 0, evaluates x' once and yields every
W_k with QUADPACK's qk21 error estimate; a W_k whose estimate misses the
tolerance (an endpoint-singular x', say) is recomputed by adaptive QUADPACK
quadrature alone.  The derivative maxima behind the bound are sampled in one
array call per derivative order.

Coefficient arrays are recomputed on every call because alpha depends on the
evaluation point; there is no shared cache.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .order import OrderFunction
from .reference import (
    DEFAULT_TOL,
    Kind,
    QuadratureError,
    ScalarFunction,
    Side,
    SUBDIVISION_BUDGET,
)
from .special import DomainError, digamma, gamma, gamma_ratio, signed_binomial

__all__ = [
    "ExpansionParams",
    "ExpansionCoefficients",
    "MomentVector",
    "DerivativeBound",
    "ApproxResult",
    "MissingBoundError",
    "coefficients_left",
    "coefficients_right",
    "moments",
    "derivative_bound",
    "error_bound",
    "approximate",
    "approx_type1",
    "approx_type2",
    "approx_type3",
]

#: Sample count for derivative-maximum estimation.
_BOUND_SAMPLES = 1001
#: Safety factor applied to sampled maxima of numeric (non-analytic)
#: derivatives.
_BOUND_SAFETY = 1.05


def _gauss_kronrod_panels(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 21-point Gauss-Kronrod rule on each panel between ``edges``.

    Returns the nodes (shape P*21, panel by panel), the reference rule on
    [-1, 1] as a (21, 2) array of Kronrod and Gauss weights (the Gauss
    weights are zero at the Kronrod-only nodes) and the panel half-lengths.
    The constants are QUADPACK's qk21 abscissae and weights.
    """
    xk = np.array([
        0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
        0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
        0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
        0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
        0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
        0.0,
    ])
    wk = np.array([
        0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077208745147347, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
        0.149445554002916905664936468389821,
    ])
    wg = np.zeros(11)
    wg[1:10:2] = [
        0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
        0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
        0.295524224714752870173892994651338,
    ]
    mirror = lambda v, sign: np.concatenate([sign * v[:-1], v[::-1]])
    centre = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    nodes = (centre[:, None] + half[:, None] * mirror(xk, -1.0)).ravel()
    return nodes, np.stack([mirror(wk, 1.0), mirror(wg, 1.0)], axis=1), half


#: Panels of the shared moment pass on [0, 1]: ten panels halving towards
#: s = 0, where x' of a power law is singular, and seven equal panels on
#: [1/2, 1], where s^k concentrates for the high moments (k up to 2N).
_PANEL_EDGES = np.concatenate([[0.0], 2.0 ** np.arange(-10, 0), np.linspace(0.5, 1.0, 8)[1:]])
_GK_NODES, _GK_RULE, _GK_HALF = _gauss_kronrod_panels(_PANEL_EDGES)
_EPS = np.finfo(float).eps


class MissingBoundError(ValueError):
    """A derivative bound required by the error formula is unavailable."""


@dataclass(frozen=True)
class ExpansionParams:
    """Expansion depth: n = highest classical derivative, N = truncation."""

    n: int
    N: int

    def __post_init__(self) -> None:
        if not (isinstance(self.n, int) and isinstance(self.N, int)):
            raise ValueError("n and N must be integers")
        if not 1 <= self.n <= self.N:
            raise ValueError(f"need N >= n >= 1, got n={self.n}, N={self.N}")


@dataclass(frozen=True)
class ExpansionCoefficients:
    """Coefficient arrays at a fixed alpha value.

    ``head[p-1]`` multiplies the p-th classical derivative (p = 1..n);
    ``tail[p-n]`` multiplies the p-th moment integral (p = n..N).  For the
    left operators these are the A_p/B_p arrays; ``coefficients_right``
    returns the sign-adjusted right-sided C_p/D_p in the same slots.
    """

    head: np.ndarray
    tail: np.ndarray
    side: Side


@dataclass(frozen=True)
class MomentVector:
    """Moment integrals V_p for p = n..p_max.

    V_p(t) = integral over (a, t) of (tau-a)^(p-n) x'(tau) on the left, and
    of (b-tau)^(p-n) x'(tau) over (t, b) on the right.  All vanish when the
    integration range is empty.
    """

    n: int
    values: np.ndarray
    side: Side

    def __getitem__(self, p: int) -> float:
        idx = p - self.n
        if idx < 0 or idx >= len(self.values):
            raise IndexError(f"moment index p={p} outside n..{self.n + len(self.values) - 1}")
        return float(self.values[idx])


@dataclass(frozen=True)
class DerivativeBound:
    """Upper bounds on |x^(p)| over the integration range, keyed by p."""

    values: dict[int, float]
    estimated: bool = False

    def __getitem__(self, p: int) -> float:
        try:
            return self.values[p]
        except KeyError:
            raise MissingBoundError(f"no bound for derivative order {p}") from None


@dataclass(frozen=True)
class ApproxResult:
    """Approximate derivative value plus the certified truncation bound.

    ``error_bound`` is the evaluated analytic bound, not an observed error;
    ``bound_kind`` records whether the derivative maxima behind it came from
    analytic derivatives ("analytic") or a sampled numeric fallback
    ("estimated").
    """

    value: float
    error_bound: float
    params: ExpansionParams
    bound_kind: str = "analytic"


def coefficients_left(alpha_val: float, params: ExpansionParams) -> ExpansionCoefficients:
    """A_p (p = 1..n) and B_p (p = n..N) for the left operators.

    A_p = (1/Gamma(p+1-alpha)) [1 + sum_{l=n-p+1}^{N}
          Gamma(alpha-n+l) / (Gamma(alpha-p) (l-n+p)!)],
    B_p = Gamma(alpha-n+p) / (Gamma(1-alpha) Gamma(alpha) (p-n)!).

    All Gamma ratios go through log-space with sign tracking since
    alpha - p < 0 throughout; the factorials join the log-space difference,
    so N > 170 stays finite.
    """
    if not 0.0 < alpha_val < 1.0:
        raise DomainError(f"alpha must lie in (0,1), got {alpha_val}")
    n, N = params.n, params.N
    head = np.empty(n)
    for p in range(1, n + 1):
        terms = [
            gamma_ratio(alpha_val - n + l, alpha_val - p, l - n + p)
            for l in range(n - p + 1, N + 1)
        ]
        head[p - 1] = (1.0 + math.fsum(terms)) / gamma(p + 1.0 - alpha_val)
    inv_g1ma = 1.0 / gamma(1.0 - alpha_val)
    tail = np.empty(N - n + 1)
    for p in range(n, N + 1):
        tail[p - n] = gamma_ratio(alpha_val - n + p, alpha_val, p - n) * inv_g1ma
    return ExpansionCoefficients(head=head, tail=tail, side=Side.LEFT)


def coefficients_right(alpha_val: float, params: ExpansionParams) -> ExpansionCoefficients:
    """C_p = (-1)^p A_p and D_p = -B_p for the right operators."""
    left = coefficients_left(alpha_val, params)
    signs = np.array([(-1.0) ** p for p in range(1, params.n + 1)])
    return ExpansionCoefficients(head=left.head * signs, tail=-left.tail, side=Side.RIGHT)


def _sample(fn, ts: np.ndarray) -> np.ndarray:
    """fn on the points ts as a float array of their shape.  A callable that
    returns one constant is broadcast, and one that takes only floats (it
    raises TypeError or ValueError on an array) is called point by point."""
    try:
        values = fn(ts)
    except (TypeError, ValueError):
        values = [fn(float(t)) for t in ts]
    return np.broadcast_to(np.asarray(values, dtype=float), ts.shape)


def _scaled_moments(x: ScalarFunction, side: Side, dist: float, count: int, tol: float) -> np.ndarray:
    """W_k = int_0^1 s^k x'(root + s*step) ds for k = 0..count-1, where
    (root, step) is (a, dist) on the left and (b, -dist) on the right.

    One Gauss-Kronrod pass over the fixed panels gives every W_k and its
    qk21 error estimate (summed over panels); W_k is kept when the estimate
    is at most max(tol, 1e-12 |W_k|), and recomputed by adaptive quadrature
    otherwise.
    """
    root, step = (x.a, dist) if side is Side.LEFT else (x.b, -dist)
    dx = x.deriv(1)
    # Row k of g holds s^k x' on the nodes; the rows are filled by doubling,
    # rows m..2m-1 being rows 0..m-1 times s^m.
    g = np.empty((count, _GK_NODES.size))
    g[0] = _sample(dx, root + _GK_NODES * step)
    filled, s_m = 1, _GK_NODES
    while filled < count:
        m = min(filled, count - filled)
        np.multiply(g[:m], s_m, out=g[filled : filled + m])
        filled += m
        s_m = s_m * s_m
    panels = g.reshape(count, -1, _GK_RULE.shape[0])
    sums = panels @ _GK_RULE
    kronrod = sums[..., 0]
    abserr = np.abs(kronrod - sums[..., 1])
    resabs = np.abs(panels) @ _GK_RULE[:, 0]
    dev = panels - 0.5 * kronrod[..., None]
    resasc = np.abs(dev, out=dev) @ _GK_RULE[:, 0]
    # QUADPACK's qk21 estimate: scale |K21 - G10| by the panel's variation,
    # and never claim less than 50 eps of its absolute integral.
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * abserr / resasc) ** 1.5)
    err = np.maximum(50.0 * _EPS * resabs, np.where(resasc > 0.0, scaled, abserr)) @ _GK_HALF
    w = kronrod @ _GK_HALF
    # Negated so that a nan estimate also falls back.
    for k in np.flatnonzero(~(err <= np.maximum(tol, 1e-12 * np.abs(w)))):
        w[k] = _quad_moment(dx, root, step, int(k), tol)
    return w


def _quad_moment(dx, root: float, step: float, k: int, tol: float) -> float:
    """W_k by adaptive QUADPACK quadrature, its warnings kept for the error."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        val, abserr = quad(
            lambda s: s**k * dx(root + s * step),
            0.0, 1.0, epsabs=tol, epsrel=1e-12, limit=SUBDIVISION_BUDGET,
        )
    if abserr > max(100.0 * tol, 1e-10 * abs(val)):
        detail = "".join(f"; {' '.join(str(w.message).split()).split('.')[0]}" for w in caught)
        raise QuadratureError(f"scaled moment k={k} did not converge (err {abserr:.3e}){detail}")
    return val


def moments(
    x: ScalarFunction,
    side: Side,
    t: float,
    params: ExpansionParams,
    p_max: int,
    tol: float = DEFAULT_TOL,
) -> MomentVector:
    """Moment integrals for p = n..p_max, as dist^(k+1) W_k with k = p - n.

    The scaled moments W_k come from one shared Gauss-Kronrod pass, with
    adaptive quadrature at tolerance ``tol`` for any W_k it cannot certify.
    """
    n = params.n
    if p_max < params.N:
        raise ValueError(f"p_max = {p_max} must cover the truncation N = {params.N}")
    dist = (t - x.a) if side is Side.LEFT else (x.b - t)
    count = p_max - n + 1
    if dist <= 0.0:
        return MomentVector(n=n, values=np.zeros(count), side=side)
    w = _scaled_moments(x, side, dist, count, tol)
    return MomentVector(n=n, values=w * dist ** np.arange(1.0, count + 1.0), side=side)


def derivative_bound(
    x: ScalarFunction,
    orders: tuple[int, ...],
    lo: float,
    hi: float,
) -> DerivativeBound:
    """Sampled maxima of |x^(p)| on [lo, hi] for the requested orders.

    Each derivative is evaluated once on the whole sample array.  Analytic
    derivatives are sampled as-is; numeric fallbacks get a 5% safety factor
    and flag the bound as estimated.
    """
    ts = np.linspace(lo, hi, _BOUND_SAMPLES)
    values: dict[int, float] = {}
    estimated = False
    for p in orders:
        analytic = p <= len(x.derivatives)
        m = float(np.max(np.abs(_sample(x.deriv(p), ts))))
        if not analytic:
            m *= _BOUND_SAFETY
            estimated = True
        values[p] = m
    return DerivativeBound(values=values, estimated=estimated)


def error_bound(
    kind: Kind,
    params: ExpansionParams,
    alpha_val: float,
    alpha_prime_val: float,
    dist: float,
    L_bounds: DerivativeBound,
) -> float:
    """Evaluate the truncation-error bound for the requested operator kind.

    The shared first term scales like N^(alpha-n); types I and II add an
    |alpha'|-weighted second term whose bracket carries 1/(1-alpha) or
    Psi(2-alpha) respectively.  Monotone decreasing in N; zero at dist = 0.
    """
    if dist < 0:
        raise ValueError("dist must be non-negative")
    if dist == 0.0:
        return 0.0
    n, N = params.n, params.N
    a = alpha_val
    Lnp1 = L_bounds[n + 1]
    first = (
        Lnp1
        * math.exp((n - a) ** 2 + n - a)
        / (gamma(n + 1.0 - a) * N ** (n - a) * (n - a))
        * dist ** (n + 1.0 - a)
    )
    if kind is Kind.TYPE_III or alpha_prime_val == 0.0:
        return first
    L1 = L_bounds[1]
    if kind is Kind.TYPE_I:
        bracket_const = 1.0 / (1.0 - a)
    else:
        bracket_const = digamma(2.0 - a)
    second = (
        abs(alpha_prime_val)
        * L1
        * math.exp((1.0 - a) ** 2 + 1.0 - a)
        / (gamma(2.0 - a) * N ** (1.0 - a) * (1.0 - a))
        * (abs(bracket_const - math.log(dist)) + 1.0 / N)
        * dist ** (2.0 - a)
    )
    return first + second


def approximate(
    kind: Kind,
    x: ScalarFunction,
    order: OrderFunction,
    t: float,
    side: Side = Side.LEFT,
    params: ExpansionParams = ExpansionParams(1, 6),
    tol: float = DEFAULT_TOL,
) -> ApproxResult:
    """Integer-order expansion of the requested Caputo derivative at t.

    The value is the truncated expansion; ``error_bound`` certifies the
    truncation error.  With alpha' = 0 the three kinds produce bitwise-equal
    values because the correction terms are skipped outright.
    """
    dist = (t - x.a) if side is Side.LEFT else (x.b - t)
    if dist < 0:
        raise ValueError(f"t = {t} outside the operator's range")
    if dist == 0.0:
        return ApproxResult(0.0, 0.0, params, "analytic")
    n, N = params.n, params.N
    alpha = order.alpha(t)
    ap = order.alpha_prime(t)
    needs_correction = kind is not Kind.TYPE_III and ap != 0.0

    coeffs = coefficients_left(alpha, params) if side is Side.LEFT else coefficients_right(alpha, params)
    p_max = n + 2 * N if needs_correction else N
    w = _scaled_moments(x, side, dist, p_max - n + 1, tol)

    head_terms = [
        float(coeffs.head[p - 1]) * dist ** (p - alpha) * x.deriv(p)(t)
        for p in range(1, n + 1)
    ]
    tail_terms = coeffs.tail * dist ** (1.0 - alpha) * w[: N - n + 1]
    value = math.fsum(head_terms + tail_terms.tolist())

    if needs_correction:
        value += _order_variation_correction(kind, alpha, ap, dist, w, N)

    orders_needed = (1, n + 1) if kind is not Kind.TYPE_III else (n + 1,)
    lo, hi = (x.a, t) if side is Side.LEFT else (t, x.b)
    bounds = derivative_bound(x, orders_needed, lo, hi)
    eb = error_bound(kind, params, alpha, ap, dist, bounds)
    return ApproxResult(
        value=value,
        error_bound=eb,
        params=params,
        bound_kind="estimated" if bounds.estimated else "analytic",
    )


def _order_variation_correction(
    kind: Kind,
    alpha: float,
    ap: float,
    dist: float,
    w: np.ndarray,
    N: int,
) -> float:
    """alpha'-weighted correction distinguishing types I and II from III.

    In scaled moments the single sum is dist * sum_p sb_p W_p and the double
    sum dist * sum_{p,r} sb_p W_(p+r) / r (p = 0..N, r = 1..N).  Terms
    alternate in sign through the signed binomial, so they are accumulated
    with exact summation (math.fsum) to control cancellation.
    """
    sb = np.array([signed_binomial(1.0 - alpha, p) for p in range(N + 1)])
    bracket = (1.0 / (1.0 - alpha) if kind is Kind.TYPE_I else digamma(2.0 - alpha)) - math.log(dist)
    r = np.arange(1, N + 1)
    single = math.fsum((sb * w[: N + 1]).tolist())
    double = math.fsum((sb[:, None] * w[np.add.outer(np.arange(N + 1), r)] / r).ravel().tolist())
    return ap * dist ** (2.0 - alpha) / gamma(2.0 - alpha) * (bracket * single + double)


def approx_type1(
    x: ScalarFunction,
    order: OrderFunction,
    t: float,
    side: Side = Side.LEFT,
    params: ExpansionParams = ExpansionParams(1, 6),
    tol: float = DEFAULT_TOL,
) -> ApproxResult:
    return approximate(Kind.TYPE_I, x, order, t, side, params, tol)


def approx_type2(
    x: ScalarFunction,
    order: OrderFunction,
    t: float,
    side: Side = Side.LEFT,
    params: ExpansionParams = ExpansionParams(1, 6),
    tol: float = DEFAULT_TOL,
) -> ApproxResult:
    return approximate(Kind.TYPE_II, x, order, t, side, params, tol)


def approx_type3(
    x: ScalarFunction,
    order: OrderFunction,
    t: float,
    side: Side = Side.LEFT,
    params: ExpansionParams = ExpansionParams(1, 6),
    tol: float = DEFAULT_TOL,
) -> ApproxResult:
    return approximate(Kind.TYPE_III, x, order, t, side, params, tol)
