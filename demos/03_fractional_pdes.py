"""Method-of-lines solutions of variable-order fractional PDEs.

The expansion turns the time-fractional derivative into u_t plus marched
moment fields V_p, giving a classical ODE system.  Every problem is one
``DiffusionProblem`` (D^alpha u = u_xx + w u_x + f with an initial profile
and Dirichlet values) solved by ``solve_diffusion``.  Each problem below has
a known exact solution, so the script reports max-norm errors and shows they
shrink as the expansion truncation N grows.
"""

from dataclasses import replace

import numpy as np

from varcaputo import (
    DiffusionProblem,
    Grid1D,
    Kind,
    Side,
    affine_order,
    burgers_exact,
    diffusion_exact,
    field_error,
    manufactured_burgers,
    manufactured_diffusion,
    power_closed_form,
    solve_diffusion,
)

order = affine_order(0.1, 0.5, (0.0, 1.0))  # alpha(t) = (t+5)/10
grid = Grid1D(mx=16, mt=80, t0=1e-4)


def report(title: str, make, exact) -> None:
    print(title)
    for N in (3, 6, 12):
        fieldv = solve_diffusion(make(N), grid)
        print(f"  N = {N:2d}: max error {field_error(fieldv, exact):.3e}")


report("Time-fractional diffusion, exact solution t^2 sin(2 pi x):",
       lambda N: manufactured_diffusion(order, N), diffusion_exact)

report("\nLinear inhomogeneous Burgers (w = -1), exact solution x^2 + t^2:",
       lambda N: manufactured_burgers(order, N, grid.t0), burgers_exact)

# The same diffusion operator with nonzero Dirichlet values: the exact
# solution t^2 (sin 2 pi x + 1 + x) has u(0, t) = t^2 and u(1, t) = 2 t^2.
origin = replace(order, a=0.0)  # the fractional derivative runs from t = 0


def source(x, t):
    dt2 = power_closed_form(Kind.TYPE_III, Side.LEFT, 2.0, origin, t)
    sin = np.sin(2.0 * np.pi * x)
    return dt2 * (sin + 1.0 + x) + 4.0 * np.pi**2 * t**2 * sin


def lifted_exact(x, t):
    return t**2 * (np.sin(2.0 * np.pi * x) + 1.0 + x)


report("\nDiffusion with u(0,t) = t^2, u(1,t) = 2 t^2, exact t^2 (sin(2 pi x) + 1 + x):",
       lambda N: DiffusionProblem(order, N, source, lambda x: 0.0,
                                  lambda t: (t**2, 2.0 * t**2)),
       lifted_exact)
