"""End-to-end acceptance checks, one per numbered criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
captured output) and enforces a wall-clock budget.
"""

import math
import time

import numpy as np
import pytest

from varcaputo.cli import main as cli_main
from varcaputo.expansion import (
    DerivativeBound,
    ExpansionParams,
    approximate,
    error_bound,
)
from varcaputo.order import affine_order, constant_order
from varcaputo.pde import (
    Grid1D,
    burgers_exact,
    diffusion_exact,
    field_error,
    manufactured_diffusion,
    solve_burgers,
    solve_diffusion,
)
from varcaputo.reference import (
    Kind,
    Side,
    caputo_quadrature,
    power_closed_form,
    power_function,
)
from varcaputo.special import digamma, gamma, signed_binomial

ORDER_A = affine_order(0.5, 0.49, (0.0, 1.0))
ORDER_B = affine_order(0.1, 0.5, (0.0, 1.0))
ORDER_FIG = affine_order(0.5, 0.1, (0.0, 1.0))


def _report(num: int, ok: bool, label: str, elapsed: float, budget: float) -> None:
    status = "PASS" if ok and elapsed <= budget else "FAIL"
    print(f"CRITERION {num}: {status} — {label} ({elapsed:.2f}s / budget {budget:.0f}s)")
    assert ok, f"criterion {num} failed: {label}"
    assert elapsed <= budget, f"criterion {num} exceeded budget ({elapsed:.2f}s > {budget}s)"


def test_criterion_1_special_functions():
    start = time.perf_counter()
    ok = True
    for x in np.linspace(0.1, 50.0, 200):
        x = float(x)
        ok &= abs(gamma(x + 1.0) - x * gamma(x)) <= 1e-12 * abs(gamma(x + 1.0))
        ok &= abs(digamma(x + 1.0) - digamma(x) - 1.0 / x) <= 1e-11
    ok &= abs(digamma(0.5) + 0.5772156649015329 + 2.0 * math.log(2.0)) <= 1e-12
    for nu in (0.3, 0.5, 1.7):
        for p in range(12):
            prod = 1.0
            for j in range(p):
                prod *= nu - j
            expected = prod / math.factorial(p)
            ok &= abs(signed_binomial(nu, p) * (-1.0) ** p - expected) <= 1e-12 * max(
                1.0, abs(expected)
            )
    _report(1, ok, "special-function identities", time.perf_counter() - start, 1.0)


def test_criterion_2_closed_form_vs_quadrature():
    start = time.perf_counter()
    ok = True
    worst = 0.0
    for gamma_exp in (1.0, 2.0, 3.5):
        for side in Side:
            x = power_function(gamma_exp, 0.0, 1.0, side)
            for kind in Kind:
                for t in np.arange(0.1, 0.95, 0.1):
                    t = float(t)
                    closed = power_closed_form(kind, side, gamma_exp, ORDER_FIG, t)
                    numeric = caputo_quadrature(kind, x, ORDER_FIG, t, side, tol=1e-10)
                    worst = max(worst, abs(closed - numeric))
    ok = worst <= 1e-7
    _report(
        2, ok, f"oracle agreement, worst gap {worst:.2e}", time.perf_counter() - start, 30.0
    )


def test_criterion_3_endpoint_vanishing():
    start = time.perf_counter()
    ok = True
    x = power_function(2.0, 0.0, 1.0, Side.LEFT)
    for kind in Kind:
        vals = [
            abs(caputo_quadrature(kind, x, ORDER_A, d, Side.LEFT, tol=1e-12))
            for d in (1e-2, 1e-3, 1e-4)
        ]
        ok &= vals[0] > vals[1] > vals[2]
        ok &= vals[2] <= 1e-3
    _report(3, ok, "operators vanish at the start point", time.perf_counter() - start, 5.0)


def test_criterion_4_certified_expansion():
    start = time.perf_counter()
    ok = True
    x = power_function(2.0, 0.0, 1.0, Side.LEFT)
    for order in (ORDER_A, ORDER_B):
        for kind in Kind:
            for t in (0.2, 0.4, 0.6, 0.8):
                ref = caputo_quadrature(kind, x, order, t, Side.LEFT, tol=1e-10)
                res2 = approximate(kind, x, order, t, Side.LEFT, ExpansionParams(1, 2))
                res6 = approximate(kind, x, order, t, Side.LEFT, ExpansionParams(1, 6))
                err2 = abs(res2.value - ref)
                err6 = abs(res6.value - ref)
                ok &= err2 <= res2.error_bound
                ok &= err6 <= res6.error_bound
                ok &= err6 <= 1.05 * err2
    _report(
        4, ok, "expansion errors certified and shrinking", time.perf_counter() - start, 60.0
    )


def test_criterion_5_bound_scaling():
    start = time.perf_counter()
    L = DerivativeBound(values={1: 2.0, 2: 2.0}, estimated=False)
    b2 = error_bound(Kind.TYPE_III, ExpansionParams(1, 2), 0.5, 0.0, 1.0, L)
    b32 = error_bound(Kind.TYPE_III, ExpansionParams(1, 32), 0.5, 0.0, 1.0, L)
    ok = abs(b32 - b2 * (2.0 / 32.0) ** 0.5) <= 1e-12 * abs(b32)
    ok &= abs(b2 - 6.7564865138986505) <= 1e-12 * b2
    _report(5, ok, "bound scales like N^(alpha-1)", time.perf_counter() - start, 1.0)


def test_criterion_6_constant_order_collapse():
    start = time.perf_counter()
    ok = True
    order = constant_order(0.5, (0.0, 1.0))
    x = power_function(2.0, 0.0, 1.0, Side.LEFT)
    for t in (0.4, 0.7, 1.0):
        exact = 2.0 / gamma(2.5) * t**1.5
        results = [
            approximate(kind, x, order, t, Side.LEFT, ExpansionParams(1, 40))
            for kind in Kind
        ]
        ok &= results[0].value == results[1].value == results[2].value
        for res in results:
            ok &= abs(res.value - exact) <= res.error_bound
    _report(
        6, ok, "constant order: kinds collapse, classical value certified",
        time.perf_counter() - start, 5.0,
    )


def test_criterion_7_diffusion():
    start = time.perf_counter()
    grid = Grid1D(mx=20, mt=200, t0=1e-4)
    errs = {}
    boundary_ok = True
    for N in (3, 12):
        fieldv = solve_diffusion(manufactured_diffusion(ORDER_B, N=N), grid)
        boundary_ok &= bool(np.all(fieldv.u[0, :] == 0.0) and np.all(fieldv.u[-1, :] == 0.0))
        errs[N] = field_error(fieldv, diffusion_exact)
    ok = boundary_ok and errs[12] <= 1.05 * errs[3]
    _report(
        7, ok,
        f"diffusion err N=3: {errs[3]:.2e}, N=12: {errs[12]:.2e}, boundaries exact",
        time.perf_counter() - start, 120.0,
    )


def test_criterion_8_burgers():
    start = time.perf_counter()
    grid = Grid1D(mx=20, mt=200, t0=1e-4)
    errs = []
    initial_ok = True
    for N in (3, 6, 12):
        fieldv = solve_burgers(ORDER_B, grid, N=N)
        expected0 = fieldv.x_nodes**2 + grid.t0**2
        initial_ok &= bool(np.max(np.abs(fieldv.u[:, 0] - expected0)) <= 1e-12)
        errs.append(field_error(fieldv, burgers_exact))
    ok = initial_ok and errs[1] <= 1.05 * errs[0] and errs[2] <= 1.05 * errs[1]
    _report(
        8, ok,
        f"burgers errs N=3,6,12: {errs[0]:.2e}, {errs[1]:.2e}, {errs[2]:.2e}",
        time.perf_counter() - start, 120.0,
    )


def test_criterion_9_figures_cli(tmp_path):
    start = time.perf_counter()
    out_dir = tmp_path / "figs"
    rc = cli_main(["figures", "--points", "21", "--out", str(out_dir)])
    ok = rc == 0
    names = sorted(p.name for p in out_dir.iterdir()) if out_dir.exists() else []
    ok &= names == [
        "left_type1.csv", "left_type2.csv", "left_type3.csv",
        "right_type1.csv", "right_type2.csv", "right_type3.csv",
    ]
    import csv as _csv

    for name in names:
        with open(out_dir / name) as fh:
            rows = list(
                _csv.DictReader(line for line in fh if not line.startswith("#"))
            )
        ok &= len(rows) == 21
        for r in rows:
            gap = abs(float(r["variable_closed"]) - float(r["variable_quad"]))
            ok &= gap <= 1e-6
    _report(9, ok, "figures CLI reproduces both routes", time.perf_counter() - start, 20.0)
