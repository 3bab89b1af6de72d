"""The benchmark's three workloads: their inputs, one operation, and the
checks of every result against values computed apart from the package.

A workload holds a fixed list of operations.  A pass runs them all in that
order; the timed passes, the counting pass and the traced passes all run
the same list.  The package is passed in as ``vc`` so that this module can
be imported before the package is found.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field

import numpy as np

import exact
from spans import NULL_TRACER

GAMMAS_GRID = (2.0, 3.5)
GAMMAS_PANELS = (1.0, 2.0, 3.5)
GRID_NS = (2, 8, 32)
#: Distance to the endpoint of the operations that fail today: there,
#: dist ** (p + r) underflows to 0 in the type I/II order-variation
#: correction and ``approximate`` raises ZeroDivisionError.
UNDERFLOW_DIST = 1e-6
#: Tolerances of the checks.
QUAD_ABS_TOL = 1e-7
CLOSED_FORM_REL_TOL = 1e-12
PDE_MAX_ERROR = 5e-3
PDE_N_GROWTH = 1.05
#: The operations are interleaved by one fixed shuffle, the same for every
#: seed, so that host drift during a pass touches every class alike.
SHUFFLE_SEED = 0


class CheckError(AssertionError):
    """A result disagrees with its reference or breaks a required property."""


class Counter:
    """Counts the points at which wrapped callables are evaluated.

    A callable that receives an array is charged its size, so a vectorised
    call counts as many points as the equivalent scalar calls.
    """

    def __init__(self) -> None:
        self.points: dict[str, int] = {}

    def wrap(self, fn, key: str):
        self.points.setdefault(key, 0)

        def counted(arg, *rest):
            self.points[key] += int(np.size(arg))
            return fn(arg, *rest)

        return counted

    def snapshot(self) -> dict[str, int]:
        return dict(self.points)


def counted_order(vc, order, counter: Counter):
    return vc.OrderFunction(
        alpha=counter.wrap(order.alpha, "alpha"),
        alpha_prime=counter.wrap(order.alpha_prime, "alpha"),
        a=order.a,
        b=order.b,
    )


def counted_function(vc, x, counter: Counter):
    return vc.ScalarFunction(
        value=counter.wrap(x.value, "x"),
        a=x.a,
        b=x.b,
        derivatives=tuple(counter.wrap(d, "x") for d in x.derivatives),
    )


#: The ends of the t range, in every pass whatever the seed.
T_ENDS = (0.05, 0.95)


def seeded_ts(seed: int, count: int) -> list[float]:
    """Both ends of T_ENDS plus one point drawn in each of count-2 equal strata.

    The ends are in every pass, so the extreme distances, where the largest
    deviations and the costliest quadratures sit, are the same for every seed.
    """
    rng = random.Random(seed)
    lo, hi = T_ENDS
    inner = count - 2
    width = (hi - lo) / inner
    return [lo] + [lo + width * (i + rng.random()) for i in range(inner)] + [hi]


def at_distance(dist: float, side: str) -> float:
    return dist if side == "left" else 1.0 - dist


@dataclass
class Op:
    """One operation; ``args`` are the package objects it is called with."""

    label: str
    kind: int = 0
    side: str = ""
    g: float = 0.0
    t: float = 0.0
    N: int = 0
    mx: int = 0
    equation: str = ""
    expect_fail: bool = False
    args: tuple = field(default=(), repr=False)


class Workload:
    name = ""
    span = ""

    def __init__(self, vc) -> None:
        self.vc = vc
        self.ops: list[Op] = []

    def callables(self, counter: Counter | None = None):
        """The callables the operations receive: bare, or counting into ``counter``."""
        raise NotImplementedError

    def run_op(self, op: Op, fns, tracer):
        """Run one operation; ``tracer`` may record spans inside it."""
        raise NotImplementedError

    def references(self) -> None:
        """Compute the exact values the checks compare against (mpmath)."""
        raise NotImplementedError

    def check(self, results: list) -> float:
        """Raise CheckError on a wrong result.

        Returns the largest |result - exact| over the operations whose inputs
        do not depend on the seed, so that it repeats exactly across seeds.
        """
        raise NotImplementedError

    def expected_failures(self, results: list) -> int:
        failed = 0
        for op, res in zip(self.ops, results):
            if isinstance(res, Exception):
                if not op.expect_fail:
                    raise CheckError(f"{self.name}: {op.label} raised {res!r}")
                failed += 1
        return failed


class PointWorkload(Workload):
    """A workload over one order and power functions x, evaluated at points t."""

    def callables(self, counter=None):
        if counter is None:
            return self.order, self.xs
        vc = self.vc
        return (
            counted_order(vc, self.order, counter),
            {key: counted_function(vc, x, counter) for key, x in self.xs.items()},
        )


class ExpansionGrid(PointWorkload):
    """``approximate`` over kinds, sides, exponents, N and seeded t."""

    name = "expansion-grid"
    span = "approximate"

    def __init__(self, vc, seed, tiny=False):
        super().__init__(vc)
        self.order = vc.affine_order(*exact.ORDERS["paper-alpha"])
        self.xs = {
            (g, side): vc.power_function(g, 0.0, 1.0, vc.Side(side))
            for g in GAMMAS_GRID
            for side in exact.SIDES
        }
        ts = seeded_ts(seed, 3 if tiny else 8)
        ops = [
            self._op(kind, side, g, N, t, False)
            for kind in exact.KINDS
            for side in exact.SIDES
            for g in GAMMAS_GRID
            for N in GRID_NS
            for t in ts
        ]
        ops += [
            self._op(kind, side, 2.0, 32, at_distance(UNDERFLOW_DIST, side), True)
            for kind in (1, 2)
            for side in exact.SIDES
        ]
        random.Random(SHUFFLE_SEED).shuffle(ops)
        self.ops = ops

    def _op(self, kind, side, g, N, t, expect_fail):
        vc = self.vc
        return Op(
            label=f"approximate(type{kind}, {side}, g={g}, N={N}, t={t!r})",
            kind=kind, side=side, g=g, t=t, N=N, expect_fail=expect_fail,
            args=(vc.Kind(kind), vc.Side(side), vc.ExpansionParams(1, N)),
        )

    def run_op(self, op, fns, tracer):
        order, xs = fns
        kind, side, params = op.args
        return self.vc.approximate(kind, xs[(op.g, op.side)], order, op.t, side, params)

    def references(self):
        c1, c0 = exact.ORDERS["paper-alpha"]
        self.exact = {
            (op.kind, op.side, op.g, op.t): exact.caputo_power(op.kind, op.side, op.g, c1, c0, op.t)
            for op in self.ops
        }

    def check(self, results):
        dev = 0.0
        bounds = {}
        for op, res in zip(self.ops, results):
            if isinstance(res, Exception):
                continue
            want = self.exact[(op.kind, op.side, op.g, op.t)]
            err = abs(res.value - want)
            if not (math.isfinite(res.value) and err <= res.error_bound):
                raise CheckError(
                    f"{op.label}: |{res.value!r} - {want!r}| = {err:.3e} "
                    f"exceeds error_bound {res.error_bound:.3e}")
            if op.t in T_ENDS:
                dev = max(dev, err)
            if not op.expect_fail:
                bounds.setdefault((op.kind, op.side, op.g, op.t), {})[op.N] = res.error_bound
        for key, by_n in bounds.items():
            seq = [by_n[N] for N in GRID_NS if N in by_n]
            if any(not later < earlier for earlier, later in zip(seq, seq[1:])):
                raise CheckError(f"error_bound does not fall strictly in N at {key}: {seq}")
        return dev


class QuadraturePanels(PointWorkload):
    """``caputo_quadrature`` and ``power_closed_form`` at panel points."""

    name = "quadrature-panels"
    span = "panel_point"

    def __init__(self, vc, seed, tiny=False):
        super().__init__(vc)
        self.order = vc.affine_order(*exact.ORDERS["fig1-alpha"])
        self.xs = {
            (g, side): vc.power_function(g, 0.0, 1.0, vc.Side(side))
            for g in GAMMAS_PANELS
            for side in exact.SIDES
        }
        ts = seeded_ts(seed, 3 if tiny else 6)
        ops = [
            Op(
                label=f"panel(type{kind}, {side}, g={g}, t={t!r})",
                kind=kind, side=side, g=g, t=t,
                args=(vc.Kind(kind), vc.Side(side)),
            )
            for kind in exact.KINDS
            for side in exact.SIDES
            for g in GAMMAS_PANELS
            for t in ts
        ]
        random.Random(SHUFFLE_SEED).shuffle(ops)
        self.ops = ops

    def run_op(self, op, fns, tracer):
        order, xs = fns
        kind, side = op.args
        with tracer.span("caputo_quadrature", kind=op.kind):
            quad = self.vc.caputo_quadrature(kind, xs[(op.g, op.side)], order, op.t, side)
        with tracer.span("power_closed_form"):
            closed = self.vc.power_closed_form(kind, side, op.g, order, op.t)
        return quad, closed

    def references(self):
        c1, c0 = exact.ORDERS["fig1-alpha"]
        self.exact = {
            id(op): exact.caputo_power(op.kind, op.side, op.g, c1, c0, op.t) for op in self.ops
        }

    def check(self, results):
        dev = 0.0
        for op, res in zip(self.ops, results):
            if isinstance(res, Exception):
                continue
            quad, closed = res
            want = self.exact[id(op)]
            err = abs(quad - want)
            if not err <= QUAD_ABS_TOL:
                raise CheckError(f"{op.label}: quadrature {quad!r} vs exact {want!r}")
            if not abs(closed - want) <= CLOSED_FORM_REL_TOL * abs(want):
                raise CheckError(f"{op.label}: closed form {closed!r} vs exact {want!r}")
            if op.t in T_ENDS:
                dev = max(dev, err)
        return dev


#: (equation, mx, N) of the method-of-lines solves; their labels name the
#: per-layer metrics.  The self-test's tiny run keeps the labels and solves
#: on the coarser grids of PDE_TINY_MX, with PDE_MT_TINY time nodes.
PDE_CONFIGS = (("diffusion", 20, 3), ("diffusion", 20, 12), ("diffusion", 40, 3), ("burgers", 20, 6))
PDE_TINY_MX = {20: 12, 40: 16}
PDE_MT = 200
PDE_MT_TINY = 20
PDE_T0 = 1e-4


def diffusion_source(order):
    """Source making t^2 sin(2 pi x) the exact solution of the diffusion problem."""

    def f(x, t):
        alpha = order.alpha(t)
        return (2.0 / math.gamma(3.0 - alpha) * t ** (2.0 - alpha)
                + 4.0 * math.pi**2 * t**2) * np.sin(2.0 * np.pi * x)

    return f


def pde_label(equation: str, mx: int, N: int) -> str:
    return f"{equation}-mx{mx}-N{N}"


class PdeMol(Workload):
    """``solve_diffusion`` and ``solve_burgers`` by the method of lines.

    The seed is not used: the grids and orders are fixed.
    """

    name = "pde-mol"
    span = "solve"

    def __init__(self, vc, seed, tiny=False):
        super().__init__(vc)
        self.order = vc.affine_order(*exact.ORDERS["paper-beta"])
        mt = PDE_MT_TINY if tiny else PDE_MT
        size = PDE_TINY_MX.get if tiny else (lambda mx: mx)
        self.ops = [
            Op(label=pde_label(eq, mx, N), equation=eq, N=N, mx=size(mx),
               args=(vc.Grid1D(size(mx), mt, PDE_T0),))
            for eq, mx, N in PDE_CONFIGS
        ]

    def callables(self, counter=None):
        order = self.order if counter is None else counted_order(self.vc, self.order, counter)
        f = diffusion_source(order)
        if counter is not None:
            f = counter.wrap(f, "f")
        return order, f

    def run_op(self, op, fns, tracer):
        order, f = fns
        (grid,) = op.args
        if op.equation == "burgers":
            return self.vc.solve_burgers(order, grid, op.N)
        zero = lambda x: np.zeros_like(x)
        return self.vc.solve_diffusion(self.vc.DiffusionProblem(order, op.N, f, zero), grid)

    def references(self):
        self.exact = {}
        for op in self.ops:
            (grid,) = op.args
            xs = np.linspace(0.0, 1.0, op.mx + 1)
            ts = np.linspace(grid.t0, 1.0, grid.mt + 1)
            fn = exact.diffusion_field if op.equation == "diffusion" else exact.burgers_field
            self.exact[op.label] = (xs, ts, np.array(fn(xs, ts)))

    def check(self, results):
        errors = {}
        eps = np.finfo(float).eps
        for op, res in zip(self.ops, results):
            if isinstance(res, Exception):
                continue
            xs, ts, want = self.exact[op.label]
            if not (np.array_equal(res.x_nodes, xs) and np.allclose(res.t_nodes, ts, rtol=0, atol=1e-15)):
                raise CheckError(f"{op.label}: grid nodes differ from the requested grid")
            if res.u.shape != want.shape or not np.all(np.isfinite(res.u)):
                raise CheckError(f"{op.label}: field has shape {res.u.shape} or non-finite values")
            rows = np.abs(res.u[[0, -1], :] - want[[0, -1], :])
            if np.any(rows > 4 * eps * np.maximum(1.0, np.abs(want[[0, -1], :]))):
                raise CheckError(f"{op.label}: Dirichlet rows deviate by {rows.max():.3e}")
            err = float(np.max(np.abs(res.u - want)))
            if not err <= PDE_MAX_ERROR:
                raise CheckError(f"{op.label}: max error {err:.3e} exceeds {PDE_MAX_ERROR}")
            errors[(op.equation, op.mx, op.N)] = err
        coarse = sorted((N, e) for (eq, mx, N), e in errors.items()
                        if eq == "diffusion" and mx == self.ops[0].mx)
        if len(coarse) == 2 and not coarse[1][1] <= PDE_N_GROWTH * coarse[0][1]:
            raise CheckError(f"diffusion error grows with N at mx={self.ops[0].mx}: {coarse}")
        return max(errors.values(), default=0.0)


WORKLOADS = {cls.name: cls for cls in (ExpansionGrid, QuadraturePanels, PdeMol)}


def build(vc, name: str, seed: int, tiny: bool = False) -> Workload:
    return WORKLOADS[name](vc, seed, tiny)


@dataclass
class Pass:
    """One pass: its wall time, the time and outcome of each operation, and,
    in a counting pass, the cumulative counts after each operation."""

    wall: float
    starts: list[float]
    times: list[float]
    results: list | None
    ok: list[bool]
    counts: list[dict[str, int]]
    traced: bool = False
    failed: int = 0
    deviation: float = 0.0


def run_pass(workload: Workload, fns, tracer=NULL_TRACER, counter: Counter | None = None,
             speed=None) -> Pass:
    """Run every operation once, in order, recording per-operation times.

    With ``speed`` (a hostspeed.HostSpeed) the host speed is calibrated
    between operations when it is due.
    """
    clock = time.perf_counter
    starts, times, results, counts = [], [], [], []
    with tracer.span("pass", workload=workload.name):
        start = clock()
        for i, op in enumerate(workload.ops):
            if speed is not None:
                speed.measure_if_due()
            t0 = clock()
            try:
                with tracer.span(workload.span, workload=workload.name, op=i):
                    res = workload.run_op(op, fns, tracer)
            except Exception as exc:  # counted as a failed operation
                res = exc
            times.append(clock() - t0)
            starts.append(t0)
            results.append(res)
            if counter is not None:
                counts.append(counter.snapshot())
        wall = clock() - start
    ok = [not isinstance(r, Exception) for r in results]
    return Pass(wall, starts, times, results, ok, counts, traced=tracer is not NULL_TRACER)


def checked(workload: Workload, p: Pass) -> Pass:
    """Check a pass's results; raises CheckError on any wrong result."""
    p.failed = workload.expected_failures(p.results)
    p.deviation = workload.check(p.results)
    return p


def op_deltas(p: Pass, key: str) -> list[int]:
    """Points counted under ``key`` during each operation of a counting pass."""
    cumulative = [c.get(key, 0) for c in p.counts]
    return [b - a for a, b in zip([0] + cumulative, cumulative)]
