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
with k = p - n, and nothing underflows or overflows as dist -> 0.  The value
needs only sum_k c_k W_k = int_0^1 K(s) x' ds, K = sum_k c_k s^k: one product
of the coefficient rows with a read-only power table s_j^k on fixed
Gauss-Kronrod (G10/K21) nodes, shared and grown on demand; the alpha' double
sum of types I and II factors as P(s) (bracket + L(s)).  One pass integrates
K x' and x' itself (W_0, checked against x(t) - x(end)), keeps K when its
per-panel estimate is at most tol sum |c_k|, retries a miss once on panels
graded towards s = 1, where s^k lives at large k, and only then runs
QUADPACK once; ``moments`` runs it on the rows s^k.  Derivative maxima come
from the ends of the range where |x^(p)| is declared monotone, and from one
array call per order otherwise.  The tables are all the state shared.
"""

from __future__ import annotations

import contextlib
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
from .special import _K, DomainError, _signed_binomials, signed_binomial

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
#: Safety factor applied to sampled maxima of numeric (non-analytic) derivatives.
_BOUND_SAFETY = 1.05
_EPS = math.ulp(1.0)


#: QUADPACK's qk21 abscissae in [0, 1), Kronrod and Gauss weights (0 at Kronrod-only nodes).
_XK = np.array([0.9956571630258081, 0.9739065285171717, 0.9301574913557082, 0.8650633666889845,
                0.7808177265864169, 0.6794095682990244, 0.5627571346686047, 0.4333953941292472,
                0.2943928627014602, 0.14887433898163122, 0.0])
_WK = np.array([0.011694638867371874, 0.032558162307964725, 0.054755896574351995, 0.07503967481091996,
                0.0931254545836976, 0.10938715880229764, 0.12349197626206584, 0.13470921731147334,
                0.14277593857706009, 0.14773910490133849, 0.1494455540029169])
_WG = np.array([0.0, 0.06667134430868814, 0.0, 0.1494513491505806, 0.0, 0.21908636251598204, 0.0,
                0.26926671930999635, 0.0, 0.29552422471475287, 0.0])


class _NodeSet:
    """The 21-point rule on the panels between ``edges`` in [0, 1] (nodes,
    half-lengths, (Kronrod, Gauss) weights on [-1, 1]).  For values F on the
    nodes, a row per integrand, F @ ``spread`` is 200 (K21 - G10) and F @
    ``kronrod`` 50 eps K21 per panel, integral last; @ ``panels`` sums panels."""

    def __init__(self, edges: np.ndarray) -> None:
        mirror = lambda v, sign: np.concatenate([sign * v[:-1], v[::-1]])
        self.half, centre = 0.5 * np.diff(edges), 0.5 * (edges[:-1] + edges[1:])
        self.nodes = (centre[:, None] + self.half[:, None] * mirror(_XK, -1.0)).ravel()
        self.rule = np.stack([mirror(_WK, 1.0), mirror(_WG, 1.0)], axis=1)
        panel = np.repeat(np.eye(self.half.size), 21, axis=0)  # node by panel
        kronrod, gauss = (np.tile(w, len(self.half)) * np.repeat(self.half, 21) for w in self.rule.T)
        self.spread = np.hstack([200.0 * (kronrod - gauss)[:, None] * panel, kronrod[:, None]])
        self.kronrod = np.hstack([50.0 * _EPS * kronrod[:, None] * panel, kronrod[:, None]])
        self.panels, self.powers = np.r_[np.ones(len(self.half)), 0.0], np.empty((0, len(self.nodes)))

    def table(self, count: int) -> np.ndarray:
        """s_j^k (k < count) by row, one power each or 0 below 1e-200 (slow in the
        BLAS): a view of one read-only table, rebuilt to grow, whose rows keep their bits."""
        if self.powers.shape[0] < count:
            table = self.nodes ** np.arange(count)[:, None]  # underflow is silent by default
            table[table < 1e-200] = 0.0
            table.flags.writeable = False
            self.powers = table
        return self.powers[:count]


#: The moment pass's node sets: ten panels halving towards s = 0, where x' of a
#: power law is singular, then seven equal ones on [1/2, 1] (357 nodes), or, for
#: the retry, eleven halving towards s = 1, where s^k lives at large k (462).
_TO_ZERO = np.concatenate([[0.0], 2.0 ** np.arange(-10, 0)])
_NODE_SETS = (_NodeSet(np.concatenate([_TO_ZERO, np.linspace(0.5, 1.0, 8)[1:]])),
              _NodeSet(np.concatenate([_TO_ZERO, 1.0 - 2.0 ** -np.arange(2.0, 13.0), [1.0]])))
#: The W_0 identity's allowance per unit of dist, before its factor 100, on
#: |x(t)| + |x(end)| for an x' that is a difference (``order._difference``, off
#: by about sqrt(eps) |x| times x's curvature): on value-only e^t, e^10t, sin 3t,
#: cos 50t, cos 100t, sin 200t, powers and cubics, both sides, t from 1e-9 to
#: 1 - 1e-9, gap / (100 dist (|x(t)| + |x(end)|)) reached 92 sqrt(eps) (sin 200t).
_DIFFERENCE_SLACK = 200.0 * _EPS**0.5
_QUIET = contextlib.nullcontext()
#: ``approximate`` allows (this + m) eps sum |terms| for the rounding of its m
#: terms, int A |x'| for the kernel's (A the absolute kernel).  Against mpmath
#: for x = t, 1 - t, six orders, t from 1e-9 to 1 - 1e-9 and N up to 256 (type
#: III exactly, types I and II against their truncated sum) it needed 5.0 + m/7.
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


def _dot(a: np.ndarray, table: np.ndarray) -> np.ndarray:
    """a @ table by blocks of 256 rows: OpenBLAS threads a larger product, whose
    start took 7-23 ms on a two-core host against 0.1-0.3 ms unthreaded."""
    if len(table) <= 256:
        return a.dot(table)
    blocks = (a[..., i:i + 256].dot(table[i:i + 256]) for i in range(256, len(table), 256))
    return sum(blocks, a[..., :256].dot(table[:256]))


def _xprime(x: ScalarFunction, end: float, step: float):
    """s -> x'(end + s step) on an array or float s: the pass's one x' source."""
    dx = x.deriv(1)
    return lambda s: float(dx(end + s * step)) if type(s) is float else _sample(dx, end + s * step)


def _moment_pass(x: ScalarFunction, t: float, end: float, step: float, kernel, count: int,
                 limit: np.ndarray, peak: float, tol: float, what) -> tuple:
    """(I, R): I_i = int_0^1 K_i(s) x'(end + s step) ds, step = t - end in the
    signed frame, and R_i = int A_i |x'| ds, for a rounding allowance.
    ``kernel`` maps a power table s^k (k < count, a column per point) to rows
    K_i with K_0 = 1 (I_0 = W_0) and to A_i >= |K_i| (None: |K_i|), <= peak.

    A row is kept when max(50 eps resabs, 200 |K21 - G10|) (resabs from
    A_i |x'|), never below QUADPACK's qk21 estimate, summed over the first
    set's panels is at most max(limit_i, 1e-12 |I_i|).  A miss (nan too) goes
    to the graded set on a new sample of x', a second one to one adaptive run
    at tol, labelled what(i), for K_i(0) W_0 plus the integral of
    (K_i - K_i(0)) x', which vanishes at s = 0, where x' is most often
    singular.  Only an |x'| peak that could overflow runs under np.errstate
    (np.vdot, unlike dot, does not warn when it overflows).  A gap in
    sgn dist W_0 = x(t) - x(end) above 100 (dist max(tol, 1e-12 |W_0|) +
    e (|x(t)| + |x(end)|)) raises ``QuadratureError``: the pass missed where x'
    lives (x = t^gamma, gamma ~ 1e-12, has nearly all of W_0 below
    s = e^(-1/gamma)).  e = eps for an analytic x', plus ``_DIFFERENCE_SLACK``
    dist for a difference of values.
    """
    xprime, rows = _xprime(x, end, step), slice(None)
    for nodes in _NODE_SETS:
        f = xprime(nodes.nodes)
        with np.errstate(all="ignore") if not float(np.vdot(f, f)) * peak * peak <= 1e300 else _QUIET:
            k, a = kernel(nodes.table(count))
            k = k[rows] * f
            spread = k.dot(nodes.spread)
            resabs = (np.abs(k) if a is None else a[rows] * np.abs(f)).dot(nodes.kronrod)
            estimate = np.maximum(np.abs(spread), resabs).dot(nodes.panels)
            if False in (keep := estimate <= limit[rows]).tolist():
                keep |= estimate <= 1e-12 * np.abs(spread[:, -1])
        if nodes is _NODE_SETS[0]:
            sums, absolute = spread[:, -1], resabs[:, -1]
        else:
            sums[rows], absolute[rows] = spread[:, -1], resabs[:, -1]
        if False not in keep.tolist():
            break
        rows = np.arange(limit.size)[rows][~keep]
    else:  # row 0 (W_0) first
        powers = lambda s, k=np.arange(float(count))[:, None]: s**k
        zero = [0.0, *kernel(powers(0.0))[0][1:, 0].tolist()]
        for i in map(int, rows):
            row = lambda s, i=i: (float(kernel(powers(s))[0][i, 0]) - zero[i]) * xprime(s)
            quad = _adaptive_quad(row, 0.0, 1.0, tol, what=what(i))
            sums[i] = quad + zero[i] * float(sums[0]) if zero[i] else quad
    w0, xt, xe = float(sums[0]), float(x.value(t)), float(x.value(end))
    gap = abs(step * w0 - (xt - xe))
    slack = _EPS + (0.0 if x.derivatives else _DIFFERENCE_SLACK * abs(step))
    if not gap <= 100.0 * (abs(step) * max(tol, 1e-12 * abs(w0)) + slack * (abs(xt) + abs(xe))):
        raise QuadratureError(f"scaled moment W_0 = {w0:.3e} misses x(t) - x(end) by {gap:.3e} "
                              f"over dist {abs(step):.3e}")
    return sums, absolute


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
    dist^(k+1) W_k with k = p - n; all vanish at the endpoint.  W_k is the row
    s^k of ``_moment_pass`` with limit ``tol``; a pass that fails its W_0
    identity raises ``QuadratureError``, a p_max not an integer >= N ``ValueError``.
    """
    if not (isinstance(p_max, numbers.Integral) and p_max >= params.N):
        raise ValueError(f"p_max must be an integer of at least N = {params.N}, got {p_max!r}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    t, sgn, end, dist = _frame(x.a, x.b, t, side)
    count = p_max - params.n + 1
    if dist == 0.0:
        return np.zeros(count)
    w, _ = _moment_pass(x, t, end, sgn * dist, lambda table: (table, None), count,
                        np.full(count, tol), 1.0, tol, "scaled moment k={}".format)
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
    return DerivativeBound(*_maxima(x, orders, lo, hi))


def _maxima(x: ScalarFunction, orders: tuple[int, ...], lo: float, hi: float) -> tuple[dict, bool]:
    """``derivative_bound``'s maxima and estimated flag, on a range known to lie in [x.a, x.b]."""
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
    return values, estimated


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
    maxima = {p: L_bounds[p] for p in ((params.n + 1, 1) if second else (params.n + 1,))}
    return _error_bound(params, alpha_val, alpha_prime_val, dist, maxima,
                        _log_bracket(kind, alpha_val, dist) if second else None)


def _error_bound(params: ExpansionParams, alpha: float, ap: float, dist: float,
                 maxima: dict[int, float], bracket: float | None) -> float:
    """``error_bound``'s formula at dist > 0 on maxima[p] and a ``_log_bracket`` or None."""
    n, N = params.n, params.N
    first = _bound_term(n, maxima[n + 1], alpha, N, dist)
    if bracket is None:
        return first
    return first + _bound_term(1, abs(ap) * maxima[1], alpha, N, dist) * (abs(bracket) + 1.0 / N)


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

    The value is one exact sum of the weighted x^(p)(t) and the kernel
    integral of ``_moment_pass``.  ``error_bound`` is the truncation bound of
    ``error_bound()`` plus (16 + m) eps times the terms' absolute values, for
    the m = N + 1 terms the kernel gathers (n + 2N + 1 with an alpha' term).
    Where alpha' = 0 (type III) that term and the bound's x' maximum are
    skipped, so the kinds give bitwise-equal values; else one
    ``_log_bracket`` serves kernel and bound.
    t, tol, alpha(t) and alpha'(t) are admitted on [x.a, x.b] by
    ``reference._admit``, which raises its errors, so the bound skips the
    checks of ``error_bound`` and ``derivative_bound``.  A moment pass that
    fails its W_0 identity raises ``QuadratureError``.
    """
    if (admitted := _admit(kind, order, t, side, x.a, x.b, tol)) is None:
        return ApproxResult(0.0, 0.0, "analytic")
    t, sgn, end, dist, alpha, ap = admitted
    n, N = params.n, params.N
    bracket = _log_bracket(kind, alpha, dist) if ap != 0.0 else None

    # Weights sgn^p A_p dist^(p-alpha), sgn dist^(1-alpha) tail: the right side is the reflection.
    head, tail = coefficients_left(alpha, params)
    k = None if bracket is None else ap * dist ** (2.0 - alpha) / math.gamma(2.0 - alpha)
    kernel, count, scale = _moment_kernel(tail, head[0], sgn * dist ** (1 - alpha), alpha, N, k, bracket)
    sums, absolute = _moment_pass(x, t, end, sgn * dist, kernel, count,
                                  np.array([tol, tol * scale]), max(1.0, scale), tol,
                                  ("scaled moment k=0", "moment kernel").__getitem__)
    terms = [sgn**p * float(h) * dist ** (p - alpha) * x.deriv(p)(t) for p, h in enumerate(head, 1)]
    value = math.fsum(terms + [float(sums[1])])
    m = N + 1 if k is None else n + 2 * N + 1
    rounding = (_ROUNDING_TERMS + m) * _EPS * (math.fsum(map(abs, terms)) + float(absolute[1]))
    maxima, estimated = _maxima(x, (n + 1,) if bracket is None else (1, n + 1), *sorted((end, t)))
    return ApproxResult(value, _error_bound(params, alpha, ap, dist, maxima, bracket) + rounding,
                        "estimated" if estimated else "analytic")


def _moment_kernel(tail: np.ndarray, a1: float, factor: float, alpha: float, N: int,
                   k: float | None, bracket: float | None):
    """(kernel, count, scale) for ``_moment_pass``: rows 1 (W_0) and K(s) =
    sum_k c_k s^k on count table rows, and sum |c_k| (types I, II: a bound).
    c = factor tail is one-signed, so |K| is its absolute kernel, and A_1 = a1
    gives sum(tail) = a1 (1 - alpha) size / alpha, by sum_(k<=M) sb(-alpha, k) =
    sb(-alpha, M + 1) (M + 1) / alpha.  The alpha'
    term k (bracket sum_p sb_p W_p + sum_{p,r} sb_p W_(p+r) / r), p, r <= N,
    sb_p = sb(1-alpha, p), adds k P(s) (bracket + L(s)), P = sum_p sb_p s^p,
    L = sum_{r>=1} s^r / r.  As sb_p < 0 for p >= 1, sum_p |sb_p| s^p = 2 - P,
    and A = |c| + |k| (2 - P) (|bracket| + L), with A(1) the scale."""
    size = tail.size
    if k is None:
        rows = np.zeros((2, size))
        rows[0, 0] = 1.0
        np.multiply(tail, factor, out=rows[1])
        kernel = lambda table: (_dot(rows, table), None)
        return kernel, size, abs(factor) * float(a1) * (1.0 - alpha) * size / alpha
    # Rows k sb, |k sb|, bracket+L, |bracket|+L, 1, c, |c|: product rows 4:6 are (1, K), 4::2 (1, A).
    rows = np.zeros((7, N + 1))
    np.multiply(_signed_binomials(1.0 - alpha, N + 1), k, out=rows[0])
    np.multiply(tail, factor, out=rows[5, :size])
    np.abs(rows[0:6:5], out=rows[1:7:5])
    rows[2:4, 1:] = 1.0 / (_K[1:N + 1] if N < _K.size else np.arange(1.0, N + 1.0))
    rows[2:5, 0] = bracket, abs(bracket), 1.0

    def kernel(table):
        r = _dot(rows, table)
        np.multiply(r[0:2], r[2:4], out=r[0:2])
        r[5:7] += r[0:2]
        return r[4:6], r[4::2]

    total = rows.dot(np.ones(N + 1)).tolist()
    return kernel, N + 1, total[6] + total[1] * total[3]
