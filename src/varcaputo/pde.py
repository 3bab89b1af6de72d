"""Method-of-lines solvers for two variable-order time-fractional PDEs.

The fractional time derivative (type III, left, n = 1) is replaced by its
integer-order expansion

    A(t) t^(1-alpha) u_t + sum_p B_p(t) t^(1-p-alpha) V_p,
    dV_p/dt = t^(p-1) u_t,   V_p(x, t0) = 0.

After fourth-order finite differences in space each problem is a linear ODE
system.  One core, ``_march``, states it and integrates it in the scaled
moments W_p = V_p / t^p, which keep the weights O(1) (the raw weights
t^(1-p-alpha) reach ~1e44 near t0), with implicit BDF and the sparse
analytic Jacobian, so the step count is set by accuracy, not by the mx^2
stability limit of an explicit stepper.  Diffusion and Burgers are two
configurations of it: a space operator, a source, boundary values and an
initial profile.

The u_t coefficient A t^(1-alpha) vanishes at t = 0, so integration starts
at a small t0 > 0 with u taken from the initial condition; the offset's
effect is O(t0^2) for the manufactured solutions used here.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import sparse
from scipy.integrate import solve_ivp

from .expansion import ExpansionParams, coefficients_left
from .order import OrderFunction
from .special import DomainError, gamma

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

    One rule gives every row: the weights are the Vandermonde solve over the
    row's window, which is 5 nodes centred on the row's node, or, one node
    from a boundary, min(6, mx+1) nodes flush with that boundary.  Fourth
    order keeps the spatial error well below the fractional-expansion
    truncation error on the coarse grids used here.
    """
    D = np.zeros((mx - 1, mx + 1))
    width = min(6, mx + 1)
    for row, i in enumerate(range(1, mx)):
        if 2 <= i <= mx - 2:
            nodes = np.arange(i - 2, i + 3)
        else:
            nodes = np.arange(width) if i == 1 else np.arange(mx + 1 - width, mx + 1)
        vander = np.vander((nodes - i) * hx, nodes.size, increasing=True).T
        taylor = np.zeros(nodes.size)
        taylor[deriv] = math.factorial(deriv)
        D[row, nodes] = np.linalg.solve(vander, taylor)
    return D


def _march(order: OrderFunction, N: int, grid: Grid1D, D: np.ndarray, source: Callable,
           boundary: Callable, u0_interior: np.ndarray, meta: dict) -> Field2D:
    """Integrate by BDF the linear system of the operator D (acting on the
    full node vector) in the interior state (u, W_1..W_N):

        u_t  = (c(t) + L u) / a(t) - sum_p (B_p/A) W_p,
        W_p' = (u_t - p W_p) / t,   W_p(t0) = 0,

    with L the interior block of D, a = A t^(1-alpha), and c(t) = source(t)
    plus the Dirichlet values ``boundary(t)`` through D's boundary columns.
    The Jacobian's u-row block is [L/a, -(B_p/A) I]; each W_p row block is
    that row divided by t, minus (p/t) I on its own diagonal block.  a, B_p/A
    and c(t) are kept for the last t, which BDF's Newton iterations and its
    Jacobian evaluate over and over.  An order whose domain does not cover
    [t0, 1] raises ``DomainError``, then an N < 1 ``ValueError``, both before
    any step.
    """
    if not (order.a <= grid.t0 and order.b >= 1.0):
        raise DomainError(f"order domain [{order.a}, {order.b}] does not cover [{grid.t0}, 1]")
    params = ExpansionParams(1, N)
    L = D[:, 1:-1]
    m = grid.mx - 1
    n = (N + 1) * m
    p = np.arange(1, N + 1)
    l_rows, l_cols = np.nonzero(L)
    l_vals = L[l_rows, l_cols]
    top_rows = np.concatenate([l_rows, np.tile(np.arange(m), N)])
    top_cols = np.concatenate([l_cols, np.arange(m, n)])
    rows = np.concatenate([(top_rows + m * np.arange(N + 1)[:, None]).ravel(), np.arange(m, n)])
    cols = np.concatenate([np.tile(top_cols, N + 1), np.arange(m, n)])

    @functools.lru_cache(maxsize=1)
    def terms(t: float) -> tuple[float, np.ndarray, np.ndarray]:
        """a, B_p/A and c(t); rhs and jac treat the arrays as read-only."""
        alpha = order.alpha(t)
        head, tail = coefficients_left(alpha, params)
        a1 = float(head[0])
        left, right = boundary(t)
        return a1 * t ** (1.0 - alpha), tail / a1, source(t) + D[:, 0] * left + D[:, -1] * right

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        a_coef, b, c = terms(t)
        w = y[m:].reshape(N, m)
        u_t = (c + L @ y[:m]) / a_coef - b @ w
        return np.concatenate([u_t, ((u_t - p[:, None] * w) / t).ravel()])

    def jac(t: float, y: np.ndarray) -> sparse.csc_matrix:
        a_coef, b, _ = terms(t)
        top = np.concatenate([l_vals / a_coef, np.repeat(-b, m)])
        data = np.concatenate([top, np.tile(top / t, N), np.repeat(-p / t, m)])
        return sparse.csc_matrix((data, (rows, cols)), shape=(n, n))

    ts = grid.t_nodes
    y0 = np.concatenate([u0_interior, np.zeros(N * m)])
    sol = solve_ivp(rhs, (grid.t0, 1.0), y0, method="BDF", jac=jac, rtol=_RTOL, atol=_ATOL,
                    t_eval=ts, dense_output=True)
    if not sol.success:
        raise SolverError(f"time stepping failed: {sol.message}")
    u = np.zeros((grid.mx + 1, len(ts)))
    u[1:-1, :] = sol.y[:m, :]
    u[0, :], u[-1, :] = boundary(ts)
    v = np.zeros((N, grid.mx + 1, len(ts)))
    v[:, 1:-1, :] = sol.y[m:, :].reshape(N, m, len(ts)) * ts ** p[:, None, None]
    meta = {"t0": grid.t0, "N": N, "mx": grid.mx, "mt": grid.mt, **meta, "stepper": "BDF",
            "steps": len(sol.sol.ts) - 1, "nfev": sol.nfev, "njev": sol.njev, "nlu": sol.nlu}
    return Field2D(grid.x_nodes, ts, u, v, meta, sol.sol, rhs, jac)


def solve_diffusion(problem: DiffusionProblem, grid: Grid1D) -> Field2D:
    """March the expansion-approximated diffusion system on the grid.

    Fourth-order finite differences in space with the Dirichlet rows pinned
    to exactly zero; implicit BDF in time on the scaled moments W_p, with the
    sparse analytic Jacobian of the linear system.
    """
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
