"""Variable-order Caputo fractional derivatives.

Closed-form oracles and singular-quadrature evaluators for the six
variable-order Caputo operators, integer-order expansion approximations with
certified error bounds, and one method-of-lines solve for time-fractional
PDEs rewritten through the expansion (diffusion and linear Burgers).

The package exports each module's ``__all__``, typed errors included.
Importing it loads no SciPy: QUADPACK is imported by the first adaptive
quadrature, and ``pde`` (SciPy's ``OdeSolution`` and LAPACK) by the first
access to it or to one of its exports.
"""

import importlib

from . import expansion, order, reference, special
from .expansion import *
from .order import *
from .reference import *
from .special import *

#: ``pde.__all__``, so that ``__all__`` is whole before ``pde`` is imported.
_PDE_EXPORTS = ("Grid1D", "DiffusionProblem", "Field2D", "DegenerateCoefficientError",
                "SolverError", "manufactured_diffusion", "manufactured_burgers", "diffusion_exact",
                "burgers_exact", "solve_diffusion", "solve_burgers", "field_error")

__all__ = [
    *special.__all__,
    *order.__all__,
    *reference.__all__,
    *expansion.__all__,
    *_PDE_EXPORTS,
]

__version__ = "0.1.0"


def __getattr__(name: str):
    """Import ``pde`` on first access to it or to one of its exports (PEP 562).
    ``importlib`` rather than ``from . import pde``, which would look the name
    up on this package first and so call this hook again."""
    if name == "pde" or name in _PDE_EXPORTS:
        pde = importlib.import_module(".pde", __name__)
        return pde if name == "pde" else getattr(pde, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
