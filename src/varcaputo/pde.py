"""Method-of-lines solve of variable-order time-fractional PDEs.

One problem type, ``DiffusionProblem`` (D^alpha u = u_xx + w u_x + f with
Dirichlet values: diffusion at w = 0, linear Burgers at w = -1), and one
solve, ``solve_diffusion``.  The fractional time derivative (type III,
left, n = 1) is replaced by its expansion

    A(t) t^(1-alpha) u_t + sum_p B_p(t) t^(1-p-alpha) V_p,
    dV_p/dt = t^(p-1) u_t,   V_p(x, t0) = 0.

After fourth-order finite differences in space the problem is a linear ODE
system, integrated in the scaled moments W_p = V_p / t^p, which keep the
weights O(1) (the raw weights t^(1-p-alpha) reach ~1e44 near t0), by the
implicit NDF formulas of SciPy's BDF in ``_LinearBDF``.  The system is
affine in the state, so each step is one linear solve with no Newton
iteration, and every W_p row block is diagonal in W_p, so that solve
reduces to one banded m x m system (m = mx - 1).  A step costs O(N m), and
the step count is set by accuracy, not by the mx^2 stability limit of an
explicit stepper nor by the 1/t growth of the Jacobian near t0; its
tolerance follows the kernel's truncation error, by the rule that
``solve_diffusion`` states.  The moments stay in the solver's continuous
solution, ``Field2D.dense``.

The u_t coefficient A t^(1-alpha) vanishes at t = 0, so integration starts
at a small t0 > 0 with u(t0) = g.  With D = d^2/dx^2 + w d/dx and alpha =
alpha(0), u = g + t^alpha (D g + f(., 0)) / Gamma(1 + alpha) + ... near t = 0,
so that start costs about t0^alpha |D g + f(., 0)| / Gamma(1 + alpha) in u,
0.10 at t0 = 1e-4 for alpha = 1/2, g = sin(pi x), f = 0.  It is O(t0^2) only
where D g + f(., 0) = 0, as for the manufactured solutions here, whose
sources take the derivative of t^2 from ``power_closed_form``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

import numpy as np
from scipy.integrate import OdeSolution
from scipy.linalg import get_lapack_funcs

from . import _PDE_EXPORTS as __all__
from .expansion import ExpansionParams, coefficients_left
from .order import OrderFunction
from .reference import Kind, Side, power_closed_form
from .special import DomainError

DEFAULT_T0 = 1e-4
#: The floor and the kernel share of the stepper's tolerance (``solve_diffusion``).
_TOL = 1e-8
_KERNEL_SHARE = 3e-6


class DegenerateCoefficientError(ValueError):
    """The time range reaches t = 0, where the u_t coefficient A t^(1-alpha)
    vanishes: ``Grid1D`` raises it for a t0 outside (0, 1), a configuration
    error found before any numerics.  On (0, 1] the coefficient is positive
    for every alpha in (0, 1), since A = Gamma(N+alpha) / (Gamma(alpha) N!
    Gamma(2-alpha)) at n = 1."""


class SolverError(RuntimeError):
    """The adaptive time stepper failed."""


@dataclass(frozen=True)
class Grid1D:
    """Uniform space grid on [0,1] and time nodes on [t0, 1]."""

    mx: int
    mt: int
    t0: float = DEFAULT_T0

    def __post_init__(self) -> None:
        if not (isinstance(self.mx, numbers.Integral) and isinstance(self.mt, numbers.Integral)):
            raise ValueError(f"mx and mt must be integers, got mx={self.mx!r}, mt={self.mt!r}")
        if self.mx < 4 or self.mt < 4:
            raise ValueError("need mx >= 4 and mt >= 4")
        if not 0.0 < self.t0 < 1.0:
            raise DegenerateCoefficientError(f"t0 must lie in (0,1), got {self.t0}")

    @property
    def x_nodes(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.mx + 1)

    @property
    def t_nodes(self) -> np.ndarray:
        return np.linspace(self.t0, 1.0, self.mt + 1)


@dataclass(frozen=True)
class DiffusionProblem:
    """D^alpha u = u_xx + ux_weight u_x + f(x, t), its expansion's N, initial
    profile g and Dirichlet values boundary(t) = (u(0, t), u(1, t)); f and g
    are called at the interior nodes and may return one value for all of
    them, and ``boundary`` only ever at a float t, as f and alpha are.  The
    defaults give diffusion with zero boundary values."""

    order: OrderFunction
    N: int
    f: Callable[[np.ndarray, float], np.ndarray]
    g: Callable[[np.ndarray], np.ndarray]
    boundary: Callable = lambda t: (0.0, 0.0)
    ux_weight: float = 0.0


@dataclass
class Field2D:
    """Space-time solution field u[ix, it] with the solver's continuous solution.

    ``dense`` and ``rhs`` expose the solver's continuous solution and the
    ODE right-hand side; they act on the scaled interior state (u, W_1..W_N),
    and the first m = mx - 1 entries of ``rhs`` are u_t.  V_p = t^p W_p,
    with W_1..W_N in ``dense(t)[m:]`` reshaped to (N, m).  ``tol`` controls
    u only: ``dense(t)[m:]`` is carried by the stepper but not
    error-controlled.  The system is affine, so ``rhs`` also gives its
    Jacobian: J y = rhs(t, y) - rhs(t, 0).  ``u`` and ``dense`` share one
    evaluator, so u[1:-1] equals dense(t_nodes)[:m] bit for bit; u[0] and
    u[-1] are boundary(t) at each time node, a float t.  ``meta`` records
    what the solve decided and counted: the grid, the stepper, its
    tolerance ``tol`` (a float; ``solve_diffusion`` states its rule and
    weight), ``steps`` accepted steps and ``nlu`` banded m x m
    factorisations (one per step attempt).
    """

    x_nodes: np.ndarray
    t_nodes: np.ndarray
    u: np.ndarray
    meta: dict
    dense: object
    rhs: Callable


def diffusion_exact(x, t):
    """Manufactured solution of the diffusion test problem."""
    return t**2 * np.sin(2.0 * np.pi * x)


def burgers_exact(x, t):
    """Exact solution of the linear inhomogeneous Burgers test problem."""
    return x**2 + t**2


def _d_alpha_t2(order: OrderFunction) -> Callable[[float], float]:
    """t -> the left type III derivative of t^2 from t = 0 (the time origin,
    whatever order.a is), by ``power_closed_form`` with its kind and side
    bound once: a source calls it at every stepper t."""
    return partial(power_closed_form, Kind.TYPE_III, Side.LEFT, 2.0, replace(order, a=0.0))


def manufactured_diffusion(order: OrderFunction, N: int = 6) -> DiffusionProblem:
    """Diffusion problem whose exact solution is t^2 sin(2 pi x).

    The source combines the exact fractional derivative of t^2 from t = 0,
    ``power_closed_form``'s 2 t^(2-alpha)/Gamma(3-alpha), with the spatial
    Laplacian 4 pi^2 t^2, times sin(2 pi x); the initial profile is zero.
    """
    dt2 = _d_alpha_t2(order)

    def f(x: np.ndarray, t: float) -> np.ndarray:
        return (dt2(t) + 4.0 * math.pi**2 * t**2) * np.sin(2.0 * np.pi * np.asarray(x))

    return DiffusionProblem(order=order, N=N, f=f, g=lambda x: 0.0)


def manufactured_burgers(order: OrderFunction, N: int, t0: float = DEFAULT_T0) -> DiffusionProblem:
    """Linear Burgers problem (u_x weight -1) whose exact solution is x^2 +
    t^2: the source D^alpha t^2 + 2x - 2, D^alpha t^2 as in
    ``manufactured_diffusion``, the initial profile x^2 + t0^2 at the solve's
    start t0, and lateral values pinned to the exact solution, a choice:
    the problem statement fixes only u(x, 0) = x^2."""
    dt2 = _d_alpha_t2(order)

    def f(x: np.ndarray, t: float) -> np.ndarray:
        return dt2(t) + 2.0 * x - 2.0

    return DiffusionProblem(order, N, f, lambda x: x**2 + t0**2,
                            lambda t: (t**2, 1.0 + t**2), -1.0)


def _vandermonde_weights(offsets: np.ndarray, deriv: int) -> np.ndarray:
    """Weights of the deriv-th derivative at 0 from values at the integer
    ``offsets`` (unit spacing): the Vandermonde solve over that window."""
    taylor = np.zeros(offsets.size)
    taylor[deriv] = math.factorial(deriv)
    return np.linalg.solve(np.vander(offsets, offsets.size, increasing=True).T, taylor)


#: Per boundary width 5 or 6, the unit-spacing weights (d/dx, d^2/dx^2) over
#: ``_space_operator``'s three windows: flush left, centred, flush right.
_STENCILS = {width: [tuple(_vandermonde_weights(offsets, deriv) for deriv in (1, 2))
                     for offsets in (np.arange(width) - 1, np.arange(-2, 3), np.arange(2 - width, 2))]
             for width in (5, 6)}


def _space_operator(mx: int, w: float) -> tuple:
    """kl, ku, the band, L and D's two boundary columns of the fourth-order
    D = D2 + w D1 at the interior nodes (step 1/mx) on the full node vector.

    One rule gives every row: the weights are the Vandermonde solve over the
    row's window, which is 5 nodes centred on the row's node, or, one node
    from a boundary, min(6, mx+1) nodes flush with that boundary.  Those
    solves are made once per process, at unit spacing, in ``_STENCILS`` (a
    few hundred bytes); each call scales them by mx^2 and w mx into a new
    (mx - 1, mx + 1) D, its first allocation.  L = D[:, 1:-1] and the
    boundary columns are views of D, and the band holds L in LAPACK's gbsv
    layout, L[i, j] at band[kl + ku + i - j, j] below kl rows of fill-in
    space, with kl = ku = min(width - 2, mx - 2) from the windows.  Fourth
    order keeps the spatial error well below the fractional-expansion
    truncation error on the coarse grids used here.
    """
    D = np.zeros((mx - 1, mx + 1))
    width = min(6, mx + 1)
    first, inner, last = (mx * mx * s2 + w * mx * s1 for s1, s2 in _STENCILS[width])
    rows = np.arange(1, mx - 2)[:, None]
    D[rows, rows + np.arange(-1, 4)] = inner
    D[0, :width], D[-1, mx + 1 - width:] = first, last
    m, k, L = mx - 1, min(width - 2, mx - 2), D[:, 1:-1]
    band = np.zeros((3 * k + 1, m))
    for d in range(-k, k + 1):  # the diagonal L[j + d, j] goes to band row 2k + d
        band[2 * k + d, max(0, -d):m - max(0, d)] = L.diagonal(-d)
    return k, k, band, L, D[:, 0], D[:, -1]


#: NDF constants of SciPy's BDF (Shampine & Reichelt, "The MATLAB ODE
#: Suite", SIAM J. Sci. Comput. 18, 1997): kappa, gamma_k = sum_{j<=k} 1/j,
#: the formula's alpha_k and the error constants, for orders 1..5.
_MAX_ORDER = 5
_KAPPA = np.array([0.0, -0.1850, -1 / 9, -0.0823, -0.0415, 0.0])
_GAMMA = np.concatenate([[0.0], np.cumsum(1.0 / np.arange(1, _MAX_ORDER + 1))])
_ALPHA = ((1.0 - _KAPPA) * _GAMMA).tolist()
_ERROR_CONST = (_KAPPA * _GAMMA + 1.0 / np.arange(1, _MAX_ORDER + 2)).tolist()
#: Per order k: the rows whose product with D[:k+1] is (y_predict, r), and
#: the upper-triangular ones whose product with D[:k+2] is its suffix sums.
_PREDICT = [None] + [np.stack([np.ones(k + 1), 1.0 - _GAMMA[: k + 1] / _ALPHA[k]])
                     for k in range(1, _MAX_ORDER + 1)]
_SUFFIX = [np.triu(np.ones((k + 1, k + 2))) for k in range(_MAX_ORDER + 1)]
#: Per order k: the column 1..k that ``_compute_r`` builds R(k, factor) from.
_INDEX = [np.arange(1.0, k + 1)[:, None] for k in range(_MAX_ORDER + 1)]
#: SciPy's step-factor limits, and its safety factor 0.9 (2k + 1)/(2k + i)
#: for a Newton iteration capped at k = 4 that converges in i = 1 step.
_MIN_FACTOR, _MAX_FACTOR, _SAFETY = 0.2, 10.0, 0.9


def _rms(x: np.ndarray) -> float:
    return math.sqrt(float(x.dot(x))) / math.sqrt(x.size)


def _compute_r(order: int, factor: float) -> np.ndarray:
    """The matrix that maps backward differences to a step ``factor`` times
    the old one, with SciPy's arithmetic."""
    i = _INDEX[order]
    M = np.zeros((order + 1, order + 1))
    M[1:, 1:] = (i - 1 - factor * i.T) / i
    M[0] = 1.0
    return np.multiply.accumulate(M, axis=0, out=M)


_U = [_compute_r(k, 1.0) for k in range(_MAX_ORDER + 1)]


def _change_d(D: np.ndarray, order: int, factor: float) -> None:
    """Rescale the differences D[:order+1] in place to the new step."""
    RU = _compute_r(order, factor) @ _U[order]
    D[: order + 1] = RU.T @ D[: order + 1]


def _interpolate(t: np.ndarray, t_s, h, C: np.ndarray) -> np.ndarray:
    """The NDF interpolant y = C_0 + sum_k P_k C_(k+1), P_k = x_0 ... x_k,
    x_k = (t - (t_s - h k)) / (h (1 + k)), at each t[i]: t_s, h and C (1 or
    t.size, K + 1, n) give one piece or one per t, a lower order padded by
    zero rows.  The sum runs in a fixed order by elementwise ufuncs, so a
    value does not depend on what else is evaluated with it; (t.size, n)."""
    k = np.arange(C.shape[1] - 1)
    P = np.multiply.accumulate((t[:, None] - (t_s - h * k)) / (h * (1 + k)), axis=1)
    y = C[:, 0] + P[:, :1] * C[:, 1]
    for j in range(1, k.size):
        y += P[:, j, None] * C[:, j + 1]
    return y


class _NdfDense:
    """One step's interpolating polynomial, from its differences, at a 0-d or
    1-d array t, by ``_interpolate``, which also gives ``solve_diffusion``'s u."""

    def __init__(self, t: float, h: float, order: int, D: np.ndarray):
        self.t, self.h, self.order, self.D = t, h, order, D

    def __call__(self, t: np.ndarray) -> np.ndarray:
        y = _interpolate(np.atleast_1d(t), self.t, self.h, self.D[None]).T
        return y if t.ndim else y[:, 0]


class _LinearBDF:
    """SciPy's variable-order NDF stepper (orders 1..5, its constants, RMS
    error norm, step-size and order selection and difference rescaling) for
    a system y' = f(t, y) affine in y, from t0 forward to t = 1.

    For such a system, f = J(t) y + F(t), the implicit equation of a step,
    y_new = y_predict - psi + c f(t_new, y_new), is the linear system (I - c
    J(t_new)) y_new = r + c F(t_new) with r = y_predict - psi, so each step
    attempt is one call of ``solve(t_new, c, r)``, which returns y_new, and
    no call of f; there is no Newton iteration to fail.  ``nlu`` counts
    those solves.  f is called twice, at start-up: at y0 and in Hairer and
    Wanner's rule for the first step (Solving ODEs I, II.4).

    Every error norm (step acceptance, order choice, first step) covers
    only y[:m], u in the PDE core, with the weight and ``tol`` that
    ``solve_diffusion`` states.  The moments W_p ride along uncontrolled,
    as quadratures do in CVODES (Hindmarsh et al., ACM TOMS 31, 2005): each
    W_p row is contractive at rate p/t, driven by u_t alone, and reaches u
    only through sum_p b_p W_p.  Against a 1e-11 solve that controls every
    entry, the stepper's error stays at most 3.7e-3 of the kernel error over
    25 configurations (alpha = (t + 5)/10, mt = 200: diffusion at mx 20, 40,
    80 and N 3, 12, 96; Burgers at mx 20, 40, N 3, 6, 12, 96 and t0 1e-4,
    1e-6), the worst at N = 96, where tol = _TOL; at N <= 12 it is at most
    1.1e-4.

    The vectors are short, so a step is bound by its count of NumPy calls:
    y_predict and r are one product of D[:k+1] with the rows (1, ..., 1) and
    (1 - gamma_j/alpha_k)_j, the new differences D[i] = sum_{j>=i} D[j] one
    product with upper-triangular ones, and the rescaling reuses U = R(k, 1).
    """

    def __init__(self, fun: Callable, t0: float, y0: np.ndarray, solve: Callable, m: int,
                 tol: float):
        self.t, self.solve, self.nlu, self.m, self.tol = t0, solve, 0, m, tol
        # Hairer and Wanner's first step, from f at y0 and at one probe.
        f0 = fun(t0, y0)
        scale = tol + tol * np.abs(y0[:m])
        d0, d1 = _rms(y0[:m] / scale), _rms(f0[:m] / scale)
        h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, 1.0 - t0)
        f1 = fun(t0 + h0, y0 + h0 * f0)
        d2 = _rms((f1[:m] - f0[:m]) / scale) / h0
        big = max(d1, d2)
        h1 = max(1e-6, 1e-3 * h0) if big <= 1e-15 else math.sqrt(0.01 / big)
        self.h_abs = min(100.0 * h0, h1, 1.0 - t0)
        self.D = np.zeros((_MAX_ORDER + 3, y0.size))
        self.D[0], self.D[1] = y0, f0 * self.h_abs
        self.order, self.n_equal_steps = 1, 0

    def step(self) -> _NdfDense:
        """Take one step and return its interpolant, built from the step
        size, order and differences chosen for the next step.  Raise
        ``SolverError`` if the step size falls below 10 ulp of t."""
        t, D, order, m, tol = self.t, self.D, self.order, self.m, self.tol
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        h = self.h_abs
        if h < min_step:
            _change_d(D, order, min_step / h)
            self.n_equal_steps = 0
            h = min_step
        while True:
            if h < min_step:
                raise SolverError(f"time stepping failed at t = {t}: Required step size "
                                  "is less than spacing between numbers.")
            t_new = t + h
            if t_new > 1.0:
                t_new = 1.0
                _change_d(D, order, (t_new - t) / h)
                self.n_equal_steps = 0
            h = t_new - t
            y_predict, r = _PREDICT[order] @ D[: order + 1]
            y_new = self.solve(t_new, h / _ALPHA[order], r)
            self.nlu += 1
            d = y_new - y_predict
            scale = np.abs(y_new[:m]) * tol
            scale += tol
            error_norm = _ERROR_CONST[order] * _rms(d[:m] / scale)
            if error_norm <= 1.0:
                break
            # A non-finite d fails the test above and shrinks h by _MIN_FACTOR.
            factor = max(_MIN_FACTOR, _SAFETY * error_norm ** (-1.0 / (order + 1)))
            h *= factor
            _change_d(D, order, factor)
            self.n_equal_steps = 0

        self.n_equal_steps += 1
        self.t, self.h_abs = t_new, h
        # d is the (order+1)-th difference of the new step; update the rest.
        D[order + 2] = d - D[order + 1]
        D[order + 1] = d
        D[: order + 1] = _SUFFIX[order] @ D[: order + 2]
        if self.n_equal_steps >= order + 1:
            norms = (
                _ERROR_CONST[order - 1] * _rms(D[order, :m] / scale) if order > 1 else math.inf,
                error_norm,
                _ERROR_CONST[order + 1] * _rms(D[order + 2, :m] / scale)
                if order < _MAX_ORDER else math.inf,
            )
            # A zero norm allows any step, as NumPy's 0.0 ** -x = inf says; Python raises.
            factors = [e ** (-1.0 / q) if e else math.inf for q, e in enumerate(norms, order)]
            best = max(range(3), key=factors.__getitem__)
            self.order = order + best - 1
            factor = min(_MAX_FACTOR, _SAFETY * factors[best])
            self.h_abs *= factor
            _change_d(D, self.order, factor)
            self.n_equal_steps = 0
        return _NdfDense(t_new, self.h_abs, self.order, D[: self.order + 1].copy())


def solve_diffusion(problem: DiffusionProblem, grid: Grid1D) -> Field2D:
    """March the problem on the grid from its initial profile: by the NDF
    formulas, the linear system in the interior state (u, W_1..W_N)

        u_t  = (c(t) + L u) / a(t) - sum_p b_p(t) W_p,
        W_p' = (u_t - p W_p) / t,   W_p(t0) = 0,

    with L the interior block of the fourth-order operator D = D2 + w D1 (w
    the u_x weight) on the full node vector, a = A t^(1-alpha), b_p = B_p/A,
    and c(t) = f(x, t) at the interior nodes plus the Dirichlet values
    ``boundary(t)`` through D's boundary columns.  The Jacobian's u-row
    block is [L/a, -b_p I]; each W_p row block is that row divided by t,
    minus (p/t) I on its own diagonal block.  The start u(t0) = g costs about
    t0^alpha |D g + f(., 0)| / Gamma(1 + alpha) in u, alpha = alpha(0), as the
    module docstring derives: O(t0^2) only where D g + f(., 0) = 0.

    Each step attempt of ``_LinearBDF`` solves y - c f(t, y) = r for the new
    state y.  With g = u_t = (c(t) + L y_u)/a - sum_p b_p y_p, the u rows
    read y_u - c g = r_u and the W_p rows y_p (1 + cp/t) = r_p + (c/t) g, so
    y_p = q_p (r_p + (c/t) g) with q_p = 1/(1 + cp/t).  Putting y_p into g
    gives g beta = (c(t) + L y_u)/a - rho, with beta = 1 + (c/t) sum_p b_p
    q_p and rho = sum_p b_p q_p r_p, and the u rows become one banded m x m
    system,

        (I - c/(a beta) L) y_u = r_u + (c/beta) (c(t)/a - rho),

    after which g = ((c(t) + L y_u)/a - rho)/beta gives every y_p.  At n = 1
    every B_p and A is positive, so beta >= 1.  A step costs O(N m) and one
    banded LU of L's bandwidth (at most 4 each side), whatever N is.

    The stepper weighs its error in u, entry by entry, against tol (1 + |u|),
    at the unit scale of these PDEs ([0, 1]^2, O(1) data), so for a solution
    far below 1 the control is absolute (diffusion scaled by 1e-2: stepper
    error 9.3e-3 of the kernel error at mx = 40, N = 12, 0.23 at N = 96; by
    1e-4: 0.094 and 14): rescale it.  Its tolerance is
    tol = max(_TOL, _KERNEL_SHARE E_N), with E_N(alpha) =
    |C(1 - alpha, N + 1)| / Gamma(3 - alpha) the kernel's truncation error
    per unit max|u_tt| (the sharp bound of the type III, n = 1 expansion),
    taken from A_1 as (1 - alpha) A_1 / ((N + 1)(2 - alpha)).  log E_N is
    concave in alpha, so over the alpha of a monotone order it is least at
    alpha(t0) or alpha(1), the two alpha calls the rule makes; an order that
    is not monotone can reach past both ends, and its tol is then looser
    than _KERNEL_SHARE times the least E_N over [t0, 1].  _KERNEL_SHARE =
    3e-6 is the largest share tried (1e-6 to 3e-5) that keeps the carried
    moments within 1e-6 of the integrals of u_t (4.5e-7 at 3e-6, 1.0e-6 at
    5e-6, 6.9e-6 at 1e-5).  Where _KERNEL_SHARE E_N < _TOL, as for N >= 16
    at alpha = 1/2, the solve is that of the fixed _TOL.

    ``rhs`` and ``solve`` assemble a, b_p and c(t) at each call, which is once
    per t: each step attempt and each start-up call is at a new t.  Before any
    step, in this order: a profile that does not broadcast to the interior
    nodes raises ``ValueError``, an order whose domain does not cover [t0, 1]
    ``DomainError``, and an N < 1, a non-finite profile or u_x weight, a
    boundary(t) other than two finite real numbers at a time node t (the
    first named; ``boundary`` only ever gets a float t), or a source of
    shape other than () or (m,) (at the first start-up call) ``ValueError``.
    A boundary(t) that is not finite at a t between the nodes, where a step
    attempt calls it, raises the same ``ValueError`` at that t.

    The steps' interpolants form ``dense``, and u at all time nodes is one
    ``_interpolate`` call on their u rows, each node on the piece ``dense``
    takes (the earlier one on a step boundary): u[1:-1] is dense(t_nodes)[:m].
    """
    xs, ts = grid.x_nodes, grid.t_nodes
    x_int = xs[1:-1]
    u0 = np.broadcast_to(np.asarray(problem.g(x_int), dtype=float), x_int.shape)
    order, N, boundary, w = problem.order, problem.N, problem.boundary, problem.ux_weight
    if not (order.a <= grid.t0 and order.b >= 1.0):
        raise DomainError(f"order domain [{order.a}, {order.b}] does not cover [{grid.t0}, 1]")
    params = ExpansionParams(1, N)
    if not np.isfinite(u0).all():
        raise ValueError("the initial profile must be finite at every interior node")
    if not math.isfinite(w):
        raise ValueError(f"the u_x weight must be finite, got {w}")
    nodes = ts.tolist()
    ends = [boundary(t) for t in nodes]  # the Dirichlet values, before any step

    def finite_pairs(rows: list) -> np.ndarray | None:
        try:
            a = np.asarray(rows)
        except ValueError:  # ragged, such as (0.0, np.zeros(3)): NumPy's own error names no input
            return None
        ok = a.shape == (len(rows), 2) and a.dtype.kind in "iuf" and np.isfinite(a).all()
        return a if ok else None

    if (edges := finite_pairs(ends)) is None:  # all nodes at once; one by one to name the t
        t, bad = next((t, e) for t, e in zip(nodes, ends) if finite_pairs([e]) is None)
        raise ValueError(f"boundary(t) must give two finite numbers, got {bad!r} at t = {t}")
    kl, ku, band, L, d_left, d_right = _space_operator(grid.mx, float(w))
    m = grid.mx - 1
    p = np.arange(1, N + 1)
    (gbsv,) = get_lapack_funcs(("gbsv",), (band,))
    ab = np.empty_like(band, order="F")

    def terms(t: float) -> tuple[float, np.ndarray, np.ndarray]:
        """a, B_p/A and c(t)."""
        alpha = order.alpha(t)
        head, tail = coefficients_left(alpha, params)
        a1 = float(head[0])
        left, right = boundary(t)
        if not (math.isfinite(left) and math.isfinite(right)):
            raise ValueError(f"boundary(t) must give two finite numbers, got "
                             f"{(left, right)!r} at t = {t}")
        c = problem.f(x_int, t)
        if np.shape(c) not in ((), (m,)):
            raise ValueError(f"the source gave shape {np.shape(c)}, not () or ({m},) "
                             f"for the {m} interior nodes")
        if left or right:
            c = c + d_left * left + d_right * right
        return a1 * t ** (1.0 - alpha), tail / a1, c

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        a_coef, b, c = terms(t)
        w = y[m:].reshape(N, m)
        u_t = (c + L @ y[:m]) / a_coef - b @ w
        return np.concatenate([u_t, ((u_t - p[:, None] * w) / t).ravel()])

    def solve(t: float, c: float, r: np.ndarray) -> np.ndarray:
        a_coef, b, k = terms(t)
        q = 1.0 / (1.0 + (c / t) * p)
        bq = b * q
        beta = 1.0 + (c / t) * float(bq.sum())
        r_w = r[m:].reshape(N, m)
        rho = bq @ r_w
        np.multiply(band, -c / (a_coef * beta), out=ab)
        ab[kl + ku] += 1.0
        _, _, y_u, info = gbsv(kl, ku, ab, r[:m] + (c / beta) * (k / a_coef - rho),
                               overwrite_ab=True, overwrite_b=True)
        if info != 0:
            raise SolverError(f"singular step matrix at t = {t} (LAPACK gbsv info {info})")
        y = np.empty(r.shape)
        y[:m] = y_u
        ct_g = ((k + L @ y_u) / a_coef - rho) * (c / t / beta)
        np.multiply(q[:, None], r_w + ct_g, out=y[m:].reshape(N, m))
        return y

    def kernel_error(alpha: float) -> float:
        """E_N(alpha) = |C(1 - alpha, N + 1)| / Gamma(3 - alpha), from A_1."""
        a1 = float(coefficients_left(alpha, params)[0][0])
        return (1.0 - alpha) * a1 / ((N + 1) * (2.0 - alpha))

    tol = max(_TOL, _KERNEL_SHARE * min(kernel_error(order.alpha(t)) for t in (nodes[0], 1.0)))
    y0 = np.concatenate([u0, np.zeros(N * m)])
    stepper = _LinearBDF(rhs, nodes[0], y0, solve=solve, m=m, tol=tol)
    step_ts, pieces = [nodes[0]], []
    while stepper.t < 1.0:
        pieces.append(stepper.step())
        step_ts.append(stepper.t)
    dense = OdeSolution(step_ts, pieces)
    idx = np.clip(np.searchsorted(step_ts, ts, side="left") - 1, 0, len(pieces) - 1)
    C = np.zeros((len(pieces), max(q.order for q in pieces) + 1, m))
    for q, c in zip(pieces, C):
        c[: q.order + 1] = q.D[:, :m]
    t_s, h = np.array([(q.t, q.h) for q in pieces])[idx].T
    u = np.zeros((grid.mx + 1, len(ts)))
    u[1:-1] = _interpolate(ts, t_s[:, None], h[:, None], C[idx]).T
    u[0, :], u[-1, :] = edges.T
    meta = {"t0": grid.t0, "N": N, "mx": grid.mx, "mt": grid.mt, "stepper": "BDF",
            "tol": tol, "steps": len(pieces), "nlu": stepper.nlu}
    return Field2D(xs, ts, u, meta, dense, rhs)


def solve_burgers(order: OrderFunction, grid: Grid1D, N: int) -> Field2D:
    """``solve_diffusion`` of ``manufactured_burgers`` from the grid's t0."""
    return solve_diffusion(manufactured_burgers(order, N, grid.t0), grid)


def field_error(fieldv: Field2D, exact: Callable[[np.ndarray, float], np.ndarray]) -> float:
    """Max-norm grid error of the field against an exact solution; nan if
    the field or ``exact`` has a nan anywhere."""
    xs = fieldv.x_nodes
    return float(np.max([np.max(np.abs(fieldv.u[:, j] - exact(xs, float(t))))
                         for j, t in enumerate(fieldv.t_nodes)]))
