"""Variable-order Caputo fractional derivatives.

Closed-form oracles and singular-quadrature evaluators for the six
variable-order Caputo operators, integer-order expansion approximations with
certified error bounds, and method-of-lines solvers for two time-fractional
PDEs rewritten through the expansion.
"""

from .expansion import (
    ApproxResult,
    DerivativeBound,
    ExpansionParams,
    approximate,
    coefficients_left,
    coefficients_right,
    derivative_bound,
    error_bound,
    moments,
)
from .order import (
    AdmissibilityError,
    OrderFunction,
    affine_order,
    check_admissible,
    constant_order,
    order_from_alpha,
    order_from_callables,
)
from .pde import (
    DiffusionProblem,
    Field2D,
    Grid1D,
    burgers_exact,
    diffusion_exact,
    field_error,
    manufactured_diffusion,
    solve_burgers,
    solve_diffusion,
)
from .reference import (
    Kind,
    QuadratureError,
    ScalarFunction,
    Side,
    SingularityError,
    caputo_quadrature,
    power_closed_form,
    power_function,
    rl_from_caputo,
)
from .special import digamma, gamma, signed_binomial

__version__ = "0.1.0"
