"""Variable-order Caputo fractional derivatives.

Closed-form oracles and singular-quadrature evaluators for the six
variable-order Caputo operators, integer-order expansion approximations with
certified error bounds, and method-of-lines solvers for two time-fractional
PDEs rewritten through the expansion.

The package exports each module's ``__all__``, typed errors included.
"""

from . import expansion, order, pde, reference, special
from .expansion import *
from .order import *
from .pde import *
from .reference import *
from .special import *

__all__ = [
    *special.__all__,
    *order.__all__,
    *reference.__all__,
    *expansion.__all__,
    *pde.__all__,
]

__version__ = "0.1.0"
