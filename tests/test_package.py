import os
import subprocess
import sys
from pathlib import Path

import varcaputo
from varcaputo import expansion, order, pde, reference, special


def test_every_module_export_is_a_package_attribute():
    modules = (special, order, reference, expansion, pde)
    assert varcaputo.__all__ == [name for m in modules for name in m.__all__]
    for m in modules:
        for name in m.__all__:
            assert getattr(varcaputo, name) is getattr(m, name)
    assert {"PoleError", "DomainError", "MissingBoundError", "DegenerateCoefficientError",
            "SolverError"} <= set(varcaputo.__all__)


IMPORT_CODE = """
import sys
import varcaputo as vc

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

order = vc.affine_order(0.5, 0.3)
vc.approximate(vc.Kind.TYPE_I, vc.power_function(2.0, 0.0, 1.0), order, 0.6)
vc.power_closed_form(vc.Kind.TYPE_I, vc.Side.LEFT, 2.0, order, 0.6)
# The bench's expansion grid: every moment row clears the shared pass, so
# none falls back to QUADPACK.
order = vc.affine_order(0.5, 0.49)
for side in vc.Side:
    for g in (2.0, 3.5):
        x = vc.power_function(g, 0.0, 1.0, side)
        for kind in vc.Kind:
            for N in (2, 8, 32):
                for t in (1e-6, 0.05, 0.5, 0.95, 1.0 - 1e-6):
                    vc.approximate(kind, x, order, t, side, vc.ExpansionParams(1, N))
print(scipy_modules())
print(vc.solve_diffusion is vc.pde.solve_diffusion, vc.pde.__name__)
print("scipy.integrate" in scipy_modules())
"""


def test_point_routes_load_no_scipy():
    # A fresh interpreter: importing the package, one expansion with an
    # analytic x', one closed form and the expansion grid of the benchmark
    # load no SciPy module, so no moment row there falls back to QUADPACK;
    # the PDE module and its exports still resolve, and loading them brings
    # in SciPy.
    src = str(Path(varcaputo.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", IMPORT_CODE], capture_output=True, text=True,
                          env=env, check=True, timeout=60)
    assert done.stdout.splitlines() == ["[]", "True varcaputo.pde", "True"]


PDE_FIRST_CODE = """
import varcaputo.pde as pde
import varcaputo

names = {}
exec("from varcaputo.pde import *", names)
print(pde.__all__ is varcaputo._PDE_EXPORTS)
print(sorted(names.keys() - {"__builtins__"}) == sorted(pde.__all__))
"""


def test_pde_names_are_the_package_list():
    # A fresh interpreter that imports ``pde`` before anything else: its
    # ``__all__`` is the package's one list, and a star import binds exactly
    # those names.
    src = str(Path(varcaputo.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", PDE_FIRST_CODE], capture_output=True, text=True,
                          env=env, check=True, timeout=60)
    assert done.stdout.splitlines() == ["True", "True"]
