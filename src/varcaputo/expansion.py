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
W_k with an upper bound on QUADPACK's qk21 error estimate; a W_k whose
bound misses the tolerance (an endpoint-singular x', say) is recomputed by
adaptive QUADPACK quadrature alone.  The pass is one batched product of a
shared power table s_j^k on the fixed nodes with three weighted columns of
x' (Kronrod and Gauss weights times x', Kronrod weights times |x'|); the
array x' returns is used without a copy and only read.  The table does not
depend on x, t or alpha: it is built on first use, rebuilt when a larger
count is asked for, and read-only.  The derivative maxima behind the error
bound come from the two ends of the range where the function declares
monotone |x^(p)|, and are sampled in one array call per derivative order
otherwise.

Coefficient arrays are recomputed on every call because alpha depends on the
evaluation point; the power table is the only state shared between calls.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .order import OrderFunction
from .reference import (
    DEFAULT_TOL,
    Kind,
    QuadratureError,
    ScalarFunction,
    Side,
    SingularityError,
    _adaptive_quad,
    _admit,
    _frame,
    _log_bracket,
)
from .special import DomainError, _signed_binomials, signed_binomial

__all__ = [
    "ExpansionParams",
    "DerivativeBound",
    "ApproxResult",
    "MissingBoundError",
    "coefficients_left",
    "coefficients_right",
    "moments",
    "derivative_bound",
    "error_bound",
    "approximate",
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
#: The Kronrod, Gauss and Kronrod weights of each panel, scaled by its
#: half-length: shape (panel, node, 3), C-contiguous, as the moment pass's
#: batched product sums in an order that depends on the layout.
_GK_WEIGHTS = np.ascontiguousarray(_GK_HALF[:, None, None] * _GK_RULE[:, [0, 1, 0]])
#: The shared power table of ``_power_table``, empty until its first use.
_POWERS = np.empty((_GK_HALF.size, 0, _GK_RULE.shape[0]))
_EPS = math.ulp(1.0)
#: The W_0 identity's allowance, per unit of dist and before its factor 100,
#: on |x(t)| + |x(end)| for an x' that is a difference (``order._difference``,
#: off by about sqrt(eps) |x| times the curvature of x).  On value-only e^t,
#: e^10t, sin 3t, cos 50t, cos 100t, sin 200t, powers and cubics, both sides,
#: t from 1e-9 to 1 - 1e-9, gap / (100 dist (|x(t)| + |x(end)|)) reached
#: 92 sqrt(eps), for sin 200t near b.
_DIFFERENCE_SLACK = 200.0 * _EPS**0.5
#: ``approximate`` allows (this + m) eps sum |terms| for the rounding of its
#: m terms.  Against mpmath for x = t, 1 - t (no truncation error), six
#: orders, t from 1e-9 to 1 - 1e-9 and N up to 256, it needed 5.5 + m/7.
_ROUNDING_TERMS = 16


class MissingBoundError(ValueError):
    """A derivative bound required by the error formula is unavailable."""


@dataclass(frozen=True)
class ExpansionParams:
    """Expansion depth: n = highest classical derivative, N = truncation."""

    n: int
    N: int

    def __post_init__(self) -> None:
        if not (isinstance(self.n, numbers.Integral) and isinstance(self.N, numbers.Integral)):
            raise ValueError("n and N must be integers")
        if not 1 <= self.n <= self.N:
            raise ValueError(f"need N >= n >= 1, got n={self.n}, N={self.N}")


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

    Three fields: ``value`` is the truncated expansion; ``error_bound`` is
    the evaluated analytic bound plus a rounding allowance, not an observed
    error; ``bound_kind`` records whether the derivative maxima behind it came from analytic
    derivatives ("analytic") or a sampled numeric fallback ("estimated").
    """

    value: float
    error_bound: float
    bound_kind: str = "analytic"


def coefficients_left(alpha_val: float, params: ExpansionParams) -> tuple[np.ndarray, np.ndarray]:
    """(head, tail) = (A_p for p = 1..n, B_p for p = n..N), the coefficient
    arrays of the left operators at a fixed alpha value: ``head[p-1]``
    multiplies dist^(p-alpha) x^(p)(t) and ``tail[p-n]`` the moment V_p.

    The paper's A_p = (1/Gamma(p+1-alpha)) [1 + sum_{l=n-p+1}^{N}
    Gamma(alpha-n+l) / (Gamma(alpha-p) (l-n+p)!)] and
    B_p = Gamma(alpha-n+p) / (Gamma(1-alpha) Gamma(alpha) (p-n)!) are signed
    binomials sb(nu, k) = (-1)^k C(nu, k): B_p = sb(-alpha, p-n) / Gamma(1-alpha),
    and the partial-sum identity sum_{j=0}^{M} sb(nu, j) = sb(nu-1, M) turns
    the bracket of A_p into sb(p-1-alpha, M), M = N-n+p.  One row
    sb(-alpha, 0..N-n+1) gives the tail and A_1; A_p for p >= 2 takes its own
    row.  No sum cancels, and no factorial overflows for N > 170.
    """
    if not 0.0 < alpha_val < 1.0:
        raise DomainError(f"alpha must lie in (0,1), got {alpha_val}")
    n, N = params.n, params.N
    row = _signed_binomials(-alpha_val, N - n + 2)
    head = np.empty(n)
    head[0] = row[-1] / math.gamma(2.0 - alpha_val)
    for p in range(2, n + 1):
        head[p - 1] = signed_binomial(p - 1 - alpha_val, N - n + p) / math.gamma(p + 1 - alpha_val)
    return head, row[:-1] / math.gamma(1.0 - alpha_val)


def coefficients_right(alpha_val: float, params: ExpansionParams) -> tuple[np.ndarray, np.ndarray]:
    """(head, tail) = (C_p, D_p) = ((-1)^p A_p, -B_p) for the right operators."""
    head, tail = coefficients_left(alpha_val, params)
    return head * (-1.0) ** np.arange(1, params.n + 1), -tail


def _sample(fn, ts: np.ndarray) -> np.ndarray:
    """fn on the points ts as a float array of their shape: fn's own array,
    without a copy (so callers treat it as read-only), a broadcast constant,
    or, for a callable that takes only floats (it raises TypeError or
    ValueError on an array), the values of one call per point."""
    try:
        values = fn(ts)
    except (TypeError, ValueError):
        values = [fn(float(t)) for t in ts]
    values = np.asarray(values, dtype=float)
    return values if values.shape == ts.shape else np.broadcast_to(values, ts.shape)


def _power_table(count: int) -> np.ndarray:
    """s_j^k for k = 0..count-1 on the fixed nodes, shaped (panel, k, node).

    A view of one shared, read-only table that is built on first use and
    rebuilt, never mutated, when a larger count is asked for.  Each entry is
    one power s_j ** k, so row k has the same bits at any table size.
    """
    global _POWERS
    if _POWERS.shape[1] < count:
        with np.errstate(under="ignore"):
            rows = _GK_NODES ** np.arange(count)[:, None]
        table = np.ascontiguousarray(rows.reshape(count, *_GK_WEIGHTS.shape[:2]).transpose(1, 0, 2))
        table.flags.writeable = False
        _POWERS = table
    return _POWERS[:, :count]


def _scaled_moments(x: ScalarFunction, t: float, end: float, step: float, count: int,
                    tol: float) -> np.ndarray:
    """W_k = int_0^1 s^k x'(end + s*step) ds for k = 0..count-1, where
    step = sgn dist = t - end in the signed frame: (a, dist) on the left,
    (b, -dist) on the right.

    x' is sampled once on the fixed nodes by ``_sample``, whose array is
    only read.  One product of x' with ``_GK_WEIGHTS`` and |.| of the third
    column in place give the columns K x', G x' and K |x'| (the Kronrod
    weights K are positive).  One batched product of the shared power table
    s_j^k (``_power_table``) with them gives, per panel and k, the Kronrod
    sum (summed over panels, W_k), the Gauss sum and resabs.  On a panel,
    max(50 eps resabs, 200 |K21 - G10|) bounds QUADPACK's qk21 error
    estimate.  W_k is kept exactly when this bound, summed over panels, is
    at most max(tol, 1e-12 |W_k|), and recomputed by adaptive quadrature
    otherwise, a nan bound included; when every sum is at most tol, that
    per-row test is skipped, as it would keep every row.

    The result is checked against the exact identity
    sgn dist W_0 = x(t) - x(end) (two calls of x): a gap above
    100 (dist max(tol, 1e-12 |W_0|) + e (|x(t)| + |x(end)|)) raises
    ``QuadratureError``, since the pass then missed where x' lives (x = t^gamma
    with gamma ~ 1e-12 puts nearly all of W_0 below s = e^(-1/gamma)).  Here
    e = eps for an analytic x', and e = eps + ``_DIFFERENCE_SLACK`` dist for
    an x' that is a difference of the values, which is itself off by a
    multiple of sqrt(eps) |x|.
    """
    dx = x.deriv(1)
    f = _sample(dx, end + _GK_NODES * step).reshape(_GK_WEIGHTS.shape[:2])
    with np.errstate(all="ignore"):  # an inf in x' gives nan rows, which fall back
        v = _GK_WEIGHTS * f[..., None]
        np.abs(v[..., 2], out=v[..., 2])
        sums = _power_table(count) @ v
        kronrod = sums[..., 0]
        w = kronrod.sum(axis=0)
        bound = np.maximum(50.0 * _EPS * sums[..., 2], 200.0 * np.abs(kronrod - sums[..., 1]))
        total = bound.sum(axis=0)
        # No row's limit max(tol, 1e-12 |W_k|) is below tol; negated, a nan total falls back.
        rows = [] if total.max() <= tol else \
            np.flatnonzero(~(total <= np.maximum(tol, 1e-12 * np.abs(w))))
    for k in map(int, rows):
        w[k] = _adaptive_quad(
            lambda s: s**k * dx(end + s * step), 0.0, 1.0, tol, what=f"scaled moment k={k}"
        )
    w0, xt, xe = float(w[0]), float(x.value(t)), float(x.value(end))
    gap = abs(step * w0 - (xt - xe))
    slack = _EPS + (0.0 if x.derivatives else _DIFFERENCE_SLACK * abs(step))
    if not gap <= 100.0 * (abs(step) * max(tol, 1e-12 * abs(w0)) + slack * (abs(xt) + abs(xe))):
        raise QuadratureError(f"scaled moment W_0 = {w0:.3e} misses x(t) - x(end) by {gap:.3e} "
                              f"over dist {abs(step):.3e}")
    return w


def moments(
    x: ScalarFunction,
    side: Side,
    t: float,
    params: ExpansionParams,
    p_max: int,
    tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """Moment integrals V, with V[p-n] = V_p for p = n..p_max.

    V_p is the integral of (tau-a)^(p-n) x'(tau) over (a, t) on the left and
    of (b-tau)^(p-n) x'(tau) over (t, b) on the right, computed as
    dist^(k+1) W_k with k = p - n; all vanish at the endpoint.  The scaled
    moments W_k come from one shared Gauss-Kronrod pass, with adaptive
    quadrature at tolerance ``tol`` for any W_k it cannot certify; a pass
    that fails the W_0 identity of ``_scaled_moments`` raises ``QuadratureError``
    and a p_max that is not an integer >= N ``ValueError``.
    """
    if not (isinstance(p_max, numbers.Integral) and p_max >= params.N):
        raise ValueError(f"p_max must be an integer of at least N = {params.N}, got {p_max!r}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    t, sgn, end, dist = _frame(x.a, x.b, t, side)
    count = p_max - params.n + 1
    if dist == 0.0:
        return np.zeros(count)
    w = _scaled_moments(x, t, end, sgn * dist, count, tol)
    return w * dist ** np.arange(1.0, count + 1.0)


def derivative_bound(
    x: ScalarFunction,
    orders: tuple[int, ...],
    lo: float,
    hi: float,
) -> DerivativeBound:
    """Maxima of |x^(p)| on [lo, hi] for the requested orders.

    An analytic derivative of a function that declares
    ``monotone_derivatives`` takes its maximum at an end, so it is called
    once at lo and once at hi, as floats.  Every other order is evaluated
    once on a whole array of samples: analytic derivatives as-is, numeric
    fallbacks with a 5% safety factor, which flag the bound as estimated.
    A range that is not inside [x.a, x.b] raises ``SingularityError``.
    """
    if not x.a <= lo <= hi <= x.b:
        raise SingularityError(f"range [{lo}, {hi}] not inside [{x.a}, {x.b}]")
    values: dict[int, float] = {}
    estimated = False
    ts = None
    for p in orders:
        fn = x.deriv(p)
        analytic = p <= len(x.derivatives)
        if analytic and x.monotone_derivatives:
            ends = (abs(float(fn(lo))), abs(float(fn(hi))))
            values[p] = math.nan if math.isnan(sum(ends)) else max(ends)  # nan-aware, as np.max
            continue
        if ts is None:
            ts = np.linspace(lo, hi, _BOUND_SAMPLES)
        m = float(np.max(np.abs(_sample(fn, ts))))
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
    A negative or non-finite dist, a non-finite alpha' or a kind that is not
    a ``Kind`` raises ``ValueError``, an alpha outside (0, 1) ``DomainError``.
    """
    if not 0.0 <= dist < math.inf:
        raise ValueError(f"dist must be finite and non-negative, got {dist}")
    if not isinstance(kind, Kind):
        raise ValueError(f"kind must be a Kind, got {kind!r}")
    if not 0.0 < alpha_val < 1.0:
        raise DomainError(f"alpha must lie in (0,1), got {alpha_val}")
    if not math.isfinite(alpha_prime_val):
        raise ValueError(f"alpha' must be finite, got {alpha_prime_val}")
    if dist == 0.0:
        return 0.0
    second = kind is not Kind.TYPE_III and alpha_prime_val != 0.0
    return _error_bound(params, alpha_val, alpha_prime_val, dist, L_bounds,
                        _log_bracket(kind, alpha_val, dist) if second else None)


def _error_bound(params: ExpansionParams, alpha: float, ap: float, dist: float,
                 L_bounds: DerivativeBound, bracket: float | None) -> float:
    """``error_bound``'s formula at dist > 0; bracket is ``_log_bracket``'s or None."""
    n, N = params.n, params.N
    first = _bound_term(n, L_bounds[n + 1], alpha, N, dist)
    if bracket is None:
        return first
    return first + _bound_term(1, abs(ap) * L_bounds[1], alpha, N, dist) * (abs(bracket) + 1.0 / N)


def _bound_term(m: int, L: float, alpha: float, N: int, dist: float) -> float:
    """L e^((m-alpha)^2+m-alpha) dist^(m+1-alpha) / (Gamma(m+1-alpha)
    N^(m-alpha) (m-alpha)): the bound's term for a derivative maximum L,
    with (m, L) = (n, L_(n+1)) for the first term and (1, |alpha'| L_1) for
    the second."""
    k = m - alpha
    return L * math.exp(k * k + k) / (math.gamma(k + 1.0) * N**k * k) * dist ** (k + 1.0)


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

    The value is one exact sum of the m terms: weighted x^(p)(t) and scaled
    moments W.  ``error_bound`` certifies its error: the truncation bound of
    ``error_bound()`` plus (16 + m) eps times the sum of the terms' absolute
    values, for the rounding in the terms themselves.  The alpha' weight is 0
    for type III and alpha'(t) for types I and II; where it is 0 the alpha'
    weights, their extra moments and the bound's x' maximum are skipped
    outright, so with alpha' = 0 the three kinds produce bitwise-equal
    values; otherwise one ``_log_bracket`` serves the weights and the bound.
    t and tol are admitted on [x.a, x.b] by ``reference._admit``, which raises
    its errors, so the bound skips ``error_bound``'s checks; a non-finite
    alpha'(t) raises ``ValueError``.  A moment pass that fails the W_0
    identity of ``_scaled_moments`` raises ``QuadratureError``.
    """
    if (admitted := _admit(kind, order, t, side, x.a, x.b, tol)) is None:
        return ApproxResult(0.0, 0.0, "analytic")
    t, sgn, end, dist, alpha, ap = admitted
    if not math.isfinite(ap):
        raise ValueError(f"alpha' must be finite, got {ap}")
    n, N = params.n, params.N
    bracket = _log_bracket(kind, alpha, dist) if kind is not Kind.TYPE_III and ap != 0.0 else None

    # Weights sgn^p A_p dist^(p-alpha) on x^(p)(t) and c on W_0..W_(c.size-1);
    # the right side is the left one reflected, which changes only sgn.
    head, tail = coefficients_left(alpha, params)
    c = sgn * dist ** (1.0 - alpha) * tail
    if bracket is not None:
        c_ap = _alpha_prime_weights(bracket, alpha, ap, dist, N)
        c_ap[: c.size] += c
        c = c_ap
    w = _scaled_moments(x, t, end, sgn * dist, c.size, tol)
    terms = [sgn**p * float(h) * dist ** (p - alpha) * x.deriv(p)(t) for p, h in enumerate(head, 1)]
    terms += (c * w).tolist()
    # The signed binomials alternate in sign: sum exactly to avoid cancellation.
    value = math.fsum(terms)
    rounding = (_ROUNDING_TERMS + len(terms)) * _EPS * math.fsum(map(abs, terms))
    bounds = derivative_bound(x, (n + 1,) if bracket is None else (1, n + 1), *sorted((end, t)))
    return ApproxResult(value, _error_bound(params, alpha, ap, dist, bounds, bracket) + rounding,
                        "estimated" if bounds.estimated else "analytic")


def _alpha_prime_weights(bracket: float, alpha: float, ap: float, dist: float, N: int) -> np.ndarray:
    """Weights on W_0..W_2N of the alpha' term of types I and II:
    K (bracket sum_p sb_p W_p + sum_{p,r} sb_p W_(p+r) / r), p = 0..N, r = 1..N,
    with K = alpha' dist^(2-alpha) / Gamma(2-alpha), sb_p = (-1)^p C(1-alpha, p)
    and the bracket ``_log_bracket(kind, alpha, dist)``.  Gathered by q = p + r,
    the double sum weights W_q by entry q-1 of the convolution of sb with 1/r."""
    sb = _signed_binomials(1.0 - alpha, N + 1)
    c = np.zeros(2 * N + 1)
    c[: N + 1] = bracket * sb
    c[1:] += np.convolve(sb, 1.0 / np.arange(1, N + 1))
    return np.multiply(c, ap * dist ** (2.0 - alpha) / math.gamma(2.0 - alpha), out=c)
