"""Method-of-lines solvers for two variable-order time-fractional PDEs.

The fractional time derivative (type III, left, n = 1) is replaced by its
integer-order expansion

    A(t) t^(1-alpha) u_t + sum_p B_p(t) t^(1-p-alpha) V_p,
    dV_p/dt = t^(p-1) u_t,   V_p(x, t0) = 0.

After fourth-order finite differences in space each problem is a linear ODE
system.  It is integrated in the scaled moments W_p = V_p / t^p, which keep
the weights O(1) (the raw weights t^(1-p-alpha) reach ~1e44 near t0):

    u_t  = (c(t) + L u) / (A t^(1-alpha)) - sum_p (B_p/A) W_p,
    W_p' = (u_t - p W_p) / t,   W_p(t0) = 0,

with implicit BDF and the sparse analytic Jacobian, so the step count is
set by accuracy, not by the mx^2 stability limit of an explicit stepper.
Diffusion and Burgers are two configurations of this one core.

The u_t coefficient A t^(1-alpha) vanishes at t = 0, so integration starts
at a small t0 > 0 with u taken from the initial condition; the offset's
effect is O(t0^2) for the manufactured solutions used here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import sparse
from scipy.integrate import solve_ivp

from .expansion import ExpansionParams, coefficients_left
from .order import OrderFunction
from .special import gamma

__all__ = [
    "Grid1D",
    "DiffusionProblem",
    "Field2D",
    "DegenerateCoefficientError",
    "SolverError",
    "manufactured_diffusion",
    "diffusion_exact",
    "burgers_exact",
    "solve_diffusion",
    "solve_burgers",
    "field_error",
]

DEFAULT_T0 = 1e-4
_RTOL = 1e-8
_ATOL = 1e-10


class DegenerateCoefficientError(RuntimeError):
    """The u_t coefficient is not strictly positive on the time range."""


class SolverError(RuntimeError):
    """The adaptive time stepper failed."""


@dataclass(frozen=True)
class Grid1D:
    """Uniform space grid on [0,1] and time nodes on [t0, 1]."""

    mx: int
    mt: int
    t0: float = DEFAULT_T0

    def __post_init__(self) -> None:
        if self.mx < 4 or self.mt < 4:
            raise ValueError("need mx >= 4 and mt >= 4")
        if not 0.0 < self.t0 < 1.0:
            raise DegenerateCoefficientError(f"t0 must lie in (0,1), got {self.t0}")

    @property
    def hx(self) -> float:
        return 1.0 / self.mx

    @property
    def x_nodes(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.mx + 1)

    @property
    def t_nodes(self) -> np.ndarray:
        return np.linspace(self.t0, 1.0, self.mt + 1)


@dataclass(frozen=True)
class DiffusionProblem:
    """Time-fractional diffusion problem with source f and initial profile g.

    Homogeneous Dirichlet conditions u(0,t) = u(1,t) = 0 are built in, so g
    must vanish at both ends.
    """

    order: OrderFunction
    N: int
    f: Callable[[np.ndarray, float], np.ndarray]
    g: Callable[[np.ndarray], np.ndarray]


@dataclass
class Field2D:
    """Space-time solution field u[ix, it] plus the marched moment fields.

    ``v[p-1, ix, it]`` holds V_p = t^p W_p.  ``dense``, ``rhs`` and ``jac``
    expose the solver's continuous solution, the ODE right-hand side and its
    Jacobian for verification; they act on the scaled interior state
    (u, W_1..W_N), and the first m = mx - 1 entries of ``rhs`` are u_t.
    ``meta`` records the stepper and its step, RHS, Jacobian and LU counts.
    """

    x_nodes: np.ndarray
    t_nodes: np.ndarray
    u: np.ndarray
    v: np.ndarray
    meta: dict = field(default_factory=dict)
    dense: object = None
    rhs: Callable | None = None
    jac: Callable | None = None


def diffusion_exact(x, t):
    """Manufactured solution of the diffusion test problem."""
    return t**2 * np.sin(2.0 * np.pi * x)


def burgers_exact(x, t):
    """Exact solution of the linear inhomogeneous Burgers test problem."""
    return x**2 + t**2


def manufactured_diffusion(order: OrderFunction, N: int = 6) -> DiffusionProblem:
    """Diffusion problem whose exact solution is t^2 sin(2 pi x).

    The source combines the exact fractional derivative of t^2 with the
    spatial Laplacian: f = (2 t^(2-alpha)/Gamma(3-alpha) + 4 pi^2 t^2)
    * sin(2 pi x); the initial profile is identically zero.
    """

    def f(x: np.ndarray, t: float) -> np.ndarray:
        alpha = order.alpha(t)
        return (
            2.0 / gamma(3.0 - alpha) * t ** (2.0 - alpha) + 4.0 * math.pi**2 * t**2
        ) * np.sin(2.0 * np.pi * np.asarray(x))

    def g(x: np.ndarray) -> np.ndarray:
        return np.zeros_like(np.asarray(x, dtype=float))

    return DiffusionProblem(order=order, N=N, f=f, g=g)


def _derivative_matrix(mx: int, hx: float, deriv: int) -> np.ndarray:
    """Finite-difference weights for the requested derivative at the interior
    nodes, fourth-order accurate, acting on the full node vector.

    Interior rows use the 5-point central stencil; the two rows next to each
    boundary use 6-point biased stencils with matching order (weights from a
    Vandermonde solve).  Fourth order keeps the spatial error well below the
    fractional-expansion truncation error on the coarse grids used here.
    """
    m = mx - 1
    D = np.zeros((m, mx + 1))
    if deriv == 2:
        central = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12.0 * hx**2)
    else:
        central = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12.0 * hx)

    def biased_weights(offsets: np.ndarray) -> np.ndarray:
        k = len(offsets)
        A = np.vander(offsets * hx, k, increasing=True).T
        b = np.zeros(k)
        b[deriv] = math.factorial(deriv)
        return np.linalg.solve(A, b)

    width = min(6, mx + 1)
    for row, i in enumerate(range(1, mx)):
        if 2 <= i <= mx - 2:
            D[row, i - 2 : i + 3] = central
        else:
            # One node from the boundary: biased stencil over `width` nodes.
            base = 0 if i == 1 else mx + 1 - width
            offsets = np.arange(base, base + width) - i
            D[row, base : base + width] = biased_weights(offsets.astype(float))
    return D


def _expansion_weights(order: OrderFunction, N: int, t: float) -> tuple[float, np.ndarray]:
    """u_t coefficient a = A t^(1-alpha) and the scaled-moment weights B_p/A."""
    alpha = order.alpha(t)
    coeffs = coefficients_left(alpha, ExpansionParams(1, N))
    head = float(coeffs.head[0])
    return head * t ** (1.0 - alpha), coeffs.tail / head


def _linear_core(
    order: OrderFunction, N: int, L: np.ndarray, forcing: Callable[[float], np.ndarray]
) -> tuple[Callable, Callable]:
    """Right-hand side and sparse Jacobian of the linear system in (u, W_1..W_N).

    For the interior operator L (m x m) and forcing c(t):
        u_t  = (c(t) + L u) / a(t) - sum_p (B_p/A) W_p,
        W_p' = (u_t - p W_p) / t.
    The Jacobian's u-row block is [L/a, -(B_p/A) I]; each W_p row block is that
    row divided by t, minus (p/t) I on its own diagonal block.
    """
    m = L.shape[0]
    n = (N + 1) * m
    p = np.arange(1, N + 1)
    l_rows, l_cols = np.nonzero(L)
    l_vals = L[l_rows, l_cols]
    top_rows = np.concatenate([l_rows, np.tile(np.arange(m), N)])
    top_cols = np.concatenate([l_cols, np.arange(m, n)])
    rows = np.concatenate([(top_rows + m * np.arange(N + 1)[:, None]).ravel(), np.arange(m, n)])
    cols = np.concatenate([np.tile(top_cols, N + 1), np.arange(m, n)])

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        a_coef, b = _expansion_weights(order, N, t)
        w = y[m:].reshape(N, m)
        u_t = (forcing(t) + L @ y[:m]) / a_coef - b @ w
        return np.concatenate([u_t, ((u_t - p[:, None] * w) / t).ravel()])

    def jac(t: float, y: np.ndarray) -> sparse.csc_matrix:
        a_coef, b = _expansion_weights(order, N, t)
        top = np.concatenate([l_vals / a_coef, np.repeat(-b, m)])
        data = np.concatenate([top, np.tile(top / t, N), np.repeat(-p / t, m)])
        return sparse.csc_matrix((data, (rows, cols)), shape=(n, n))

    return rhs, jac


def _march(order: OrderFunction, N: int, grid: Grid1D, D: np.ndarray, source: Callable,
           boundary: Callable, u0_interior: np.ndarray, meta: dict) -> Field2D:
    """Integrate the linear core for the operator D on the full node vector,
    folding the Dirichlet values ``boundary(t)`` into the forcing through
    D's two boundary columns."""
    ts = grid.t_nodes
    for t in ts:
        a_coef, _ = _expansion_weights(order, N, float(t))
        if not a_coef > 0.0:
            raise DegenerateCoefficientError(f"u_t coefficient {a_coef} not positive at t = {t}")

    def forcing(t: float) -> np.ndarray:
        left, right = boundary(t)
        return source(t) + D[:, 0] * left + D[:, -1] * right

    m = grid.mx - 1
    rhs, jac = _linear_core(order, N, D[:, 1:-1], forcing)
    y0 = np.concatenate([u0_interior, np.zeros(N * m)])
    sol = solve_ivp(rhs, (grid.t0, 1.0), y0, method="BDF", jac=jac, rtol=_RTOL, atol=_ATOL,
                    t_eval=ts, dense_output=True)
    if not sol.success:
        raise SolverError(f"time stepping failed: {sol.message}")
    u = np.zeros((grid.mx + 1, len(ts)))
    u[1:-1, :] = sol.y[:m, :]
    u[0, :], u[-1, :] = boundary(ts)
    v = np.zeros((N, grid.mx + 1, len(ts)))
    v[:, 1:-1, :] = sol.y[m:, :].reshape(N, m, len(ts)) * ts ** np.arange(1, N + 1)[:, None, None]
    meta = {"t0": grid.t0, "N": N, "mx": grid.mx, "mt": grid.mt, **meta, "stepper": "BDF",
            "steps": len(sol.sol.ts) - 1, "nfev": sol.nfev, "njev": sol.njev, "nlu": sol.nlu}
    return Field2D(grid.x_nodes, ts, u, v, meta, sol.sol, rhs, jac)


def solve_diffusion(problem: DiffusionProblem, grid: Grid1D, n_expansion: int = 1) -> Field2D:
    """March the expansion-approximated diffusion system on the grid.

    Fourth-order finite differences in space with the Dirichlet rows pinned
    to exactly zero; implicit BDF in time on the scaled moments W_p, with the
    sparse analytic Jacobian of the linear system.
    """
    if n_expansion != 1:
        raise ValueError("only n = 1 is supported for the PDE solvers")
    x_int = grid.x_nodes[1:-1]
    D2 = _derivative_matrix(grid.mx, grid.hx, 2)
    return _march(problem.order, problem.N, grid, D2, lambda t: problem.f(x_int, t),
                  lambda t: (0.0, 0.0), np.asarray(problem.g(x_int), dtype=float),
                  {"equation": "diffusion"})


def solve_burgers(order: OrderFunction, grid: Grid1D, N: int) -> Field2D:
    """March the expansion-approximated linear Burgers system.

    The problem statement fixes only the initial condition u(x,0) = x^2;
    lateral boundaries are pinned to the exact solution x^2 + t^2 (recorded
    in the output metadata as this solver's choice) and enter the interior
    equations through the boundary columns of D2 - D1.  Time stepping is the
    same implicit BDF core as in ``solve_diffusion``.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    x_int = grid.x_nodes[1:-1]

    def source(t: float) -> np.ndarray:
        alpha = order.alpha(t)
        return 2.0 * t ** (2.0 - alpha) / gamma(3.0 - alpha) + 2.0 * x_int - 2.0

    D = _derivative_matrix(grid.mx, grid.hx, 2) - _derivative_matrix(grid.mx, grid.hx, 1)
    meta = {"equation": "burgers", "lateral_bc": "dirichlet-from-exact-solution (solver choice)"}
    return _march(order, N, grid, D, source, lambda t: (t**2, 1.0 + t**2),
                  x_int**2 + grid.t0**2, meta)


def field_error(fieldv: Field2D, exact: Callable[[np.ndarray, float], np.ndarray]) -> float:
    """Max-norm grid error of the field against an exact solution."""
    xs = fieldv.x_nodes
    err = 0.0
    for j, t in enumerate(fieldv.t_nodes):
        err = max(err, float(np.max(np.abs(fieldv.u[:, j] - exact(xs, float(t))))))
    return err
