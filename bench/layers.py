"""Per-layer metrics of the traced run.

The layers are the package's modules.  Every number here is taken from the
benchmark's side of a call into the package: a span around the call, the
counting wrappers, or a fresh interpreter for the import times.  A phase
function the package no longer has is reported as absent, not as a failure.
"""

from __future__ import annotations

import re
import subprocess
import sys
from statistics import median

import numpy as np

import exact
import workloads
from spans import NULL_TRACER

SPECIAL_REPEATS = 7
REPLAY_REPEATS = 3
RHS_STATES = 8
RHS_REPEATS = 20
IMPORT_SAMPLES = 3
SUBPROCESS_TIMEOUT_S = 60

IMPORT_CODE = (
    "import sys, time; sys.path.insert(0, {src!r}); start = time.perf_counter(); "
    "import varcaputo.cli; print(time.perf_counter() - start)"
)


class Metrics:
    """Per-layer metric values by name, plus the names found absent."""

    def __init__(self) -> None:
        self.values: dict[str, tuple[float, str]] = {}
        self.absent: list[str] = []

    def put(self, name: str, value: float, unit: str) -> None:
        self.values[name] = (value, unit)

    def missing(self, *names: str) -> None:
        self.absent.extend(names)


def op_durations(tracer, w: workloads.Workload) -> dict[int, list[float]]:
    """Durations of each operation's span over the traced passes of ``w``, by index."""
    return tracer.durations_by(w.span, "op", workload=w.name)


def special_layer(vc, tracer, m: Metrics) -> None:
    """Time per call of the Gamma-ratio and binomial helpers over the (alpha, p)
    arguments the expansion coefficients need at the grid and PDE N values."""
    sp = vc.special
    grid_alphas = [0.5 * t + 0.49 for t in (0.05, 0.5, 0.95)]
    pde_alphas = [0.1 * t + 0.5 for t in (1e-4, 0.5, 1.0)]
    pde_ns = sorted({N for _, _, N in workloads.PDE_CONFIGS})
    needs = [(a, N) for a in grid_alphas for N in workloads.GRID_NS]
    needs += [(a, N) for a in pde_alphas for N in pde_ns]
    ratio_args = [(a - 1 + p, b) for a, N in needs for p in range(1, N + 1) for b in (a - 1, a)]
    binom_args = [(1 - a, p) for a in grid_alphas for N in workloads.GRID_NS for p in range(N + 1)]
    for fname, args in (("gamma_ratio", ratio_args), ("signed_binomial", binom_args)):
        metric = f"special.{fname}_us"
        fn = getattr(sp, fname, None)
        if fn is None:
            m.missing(metric)
            continue
        per_call = []
        for _ in range(SPECIAL_REPEATS):
            with tracer.span(f"special.{fname}", calls=len(args)) as span:
                for a in args:
                    fn(*a)
            per_call.append((span[2] - span[1]) / len(args))
        m.put(metric, median(per_call) * 1e6, "us")


def order_layer(profiles, m: Metrics) -> None:
    for name, prof in profiles.items():
        m.put(f"order.alpha_evals.{name}", prof.counting.counts[-1].get("alpha", 0), "count")


def reference_layer(tracer, prof, m: Metrics) -> None:
    w = prof.workload
    x_points = workloads.op_deltas(prof.counting, "x")
    for kind in exact.KINDS:
        m.put(f"reference.quad_ms.type{kind}",
              median(tracer.durations("caputo_quadrature", kind=kind)) * 1e3, "ms")
        points = [n for op, n in zip(w.ops, x_points) if op.kind == kind]
        m.put(f"reference.quad_points.type{kind}", sum(points) / len(points), "count")
    m.put("reference.closed_form_us", median(tracer.durations("power_closed_form")) * 1e6, "us")


EXPANSION_PHASES = ("coefficients", "moments", "bound", "error_bound")
EXPANSION_PHASE_METRICS = (
    "expansion.coefficients_ms", "expansion.moments_ms", "expansion.moment_points",
    "expansion.bound_ms", "expansion.bound_points", "expansion.error_bound_us", "expansion.rest_ms",
)


def replay_expansion(vc, w, tracer, counter=None) -> dict[str, int]:
    """Call ``approximate`` and then its phases one by one on each of the
    grid's operations, so that a call and its phases see the same host speed.

    Returns the x points each phase evaluated when ``counter`` is given.
    """
    ex = vc.expansion
    order, xs = w.callables(counter)
    points = {"moments": 0, "bound": 0}

    def x_points():
        return 0 if counter is None else counter.points["x"]

    for i, op in enumerate(w.ops):
        if op.expect_fail:
            continue
        kind, side, params = op.args
        x = xs[(op.g, op.side)]
        left = side is vc.Side.LEFT
        alpha, ap = order.alpha(op.t), order.alpha_prime(op.t)
        dist, lo, hi = (op.t - x.a, x.a, op.t) if left else (x.b - op.t, op.t, x.b)
        type3 = kind is vc.Kind.TYPE_III
        p_max = op.N if type3 or ap == 0.0 else 1 + 2 * op.N
        with tracer.span("expansion.approximate", op=i):
            vc.approximate(kind, x, order, op.t, side, params)
        with tracer.span("expansion.coefficients", op=i):
            (ex.coefficients_left if left else ex.coefficients_right)(alpha, params)
        before = x_points()
        with tracer.span("expansion.moments", op=i):
            ex.moments(x, side, op.t, params, p_max=p_max)
        points["moments"] += x_points() - before
        before = x_points()
        with tracer.span("expansion.bound", op=i):
            bounds = ex.derivative_bound(x, (2,) if type3 else (1, 2), lo, hi)
        points["bound"] += x_points() - before
        with tracer.span("expansion.error_bound", op=i):
            ex.error_bound(kind, params, alpha, ap, dist, bounds)
    return points


def expansion_layer(vc, tracer, prof, m: Metrics) -> None:
    w = prof.workload
    approx = op_durations(tracer, w)
    for kind in exact.KINDS:
        times = [t for i, ts in approx.items() if w.ops[i].kind == kind and not w.ops[i].expect_fail
                 for t in ts]
        m.put(f"expansion.approximate_ms.type{kind}", median(times) * 1e3, "ms")
    if not all(hasattr(vc.expansion, f) for f in (
            "coefficients_left", "coefficients_right", "moments", "derivative_bound", "error_bound")):
        m.missing(*EXPANSION_PHASE_METRICS)
        return
    try:
        points = replay_expansion(vc, w, NULL_TRACER, workloads.Counter())
        for _ in range(REPLAY_REPEATS):
            replay_expansion(vc, w, tracer)
    except TypeError as exc:  # a phase changed its signature
        print(f"expansion phase replay: {exc!r}", file=sys.stderr)
        m.missing(*EXPANSION_PHASE_METRICS)
        return
    phase = {p: tracer.durations(f"expansion.{p}") for p in EXPANSION_PHASES}
    m.put("expansion.coefficients_ms", median(phase["coefficients"]) * 1e3, "ms")
    m.put("expansion.moments_ms", median(phase["moments"]) * 1e3, "ms")
    m.put("expansion.moment_points", points["moments"], "count")
    m.put("expansion.bound_ms", median(phase["bound"]) * 1e3, "ms")
    m.put("expansion.bound_points", points["bound"], "count")
    m.put("expansion.error_bound_us", median(phase["error_bound"]) * 1e6, "us")
    by_op = {p: tracer.durations_by(f"expansion.{p}", "op") for p in EXPANSION_PHASES}
    rest = [
        median(calls) - sum(median(by_op[p][i]) for p in EXPANSION_PHASES)
        for i, calls in tracer.durations_by("expansion.approximate", "op").items()
    ]
    m.put("expansion.rest_ms", median(rest) * 1e3, "ms")


def pde_layer(tracer, prof, m: Metrics) -> None:
    w = prof.workload
    solves = op_durations(tracer, w)
    f_points = workloads.op_deltas(prof.counting, "f")
    alpha_points = workloads.op_deltas(prof.counting, "alpha")
    for i, op in enumerate(w.ops):
        label = op.label
        solve_s = median(solves[i])
        m.put(f"pde.solve_s.{label}", solve_s, "s")
        if op.equation == "diffusion":
            m.put(f"pde.f_evals.{label}", f_points[i], "count")
        m.put(f"pde.alpha_evals.{label}", alpha_points[i], "count")
        field = prof.results[i]
        dense = getattr(field, "dense", None)
        if dense is None or not hasattr(dense, "ts"):
            m.missing(f"pde.steps.{label}", f"pde.ms_per_step.{label}", f"pde.rhs_us.{label}")
            continue
        steps = len(dense.ts) - 1
        m.put(f"pde.steps.{label}", steps, "count")
        m.put(f"pde.ms_per_step.{label}", solve_s / steps * 1e3, "ms")
        rhs = getattr(field, "rhs", None)
        if rhs is None:
            m.missing(f"pde.rhs_us.{label}")
            continue
        per_call = []
        for t in np.linspace(field.t_nodes[0], field.t_nodes[-1], RHS_STATES):
            y = dense(t)
            with tracer.span("pde.rhs", config=label) as span:
                for _ in range(RHS_REPEATS):
                    rhs(t, y)
            per_call.append((span[2] - span[1]) / RHS_REPEATS)
        m.put(f"pde.rhs_us.{label}", median(per_call) * 1e6, "us")


def cli_layer(root, m: Metrics) -> None:
    """Import time of the CLI module in a fresh interpreter, and the part of
    it spent importing scipy.integrate as ``-X importtime`` reports it."""
    src = str(root / "src")
    code = IMPORT_CODE.format(src=src)
    run = lambda *flags: subprocess.run(
        [sys.executable, *flags, "-c", code], cwd=root, capture_output=True, text=True,
        check=True, timeout=SUBPROCESS_TIMEOUT_S)
    m.put("cli.import_s", median(float(run().stdout) for _ in range(IMPORT_SAMPLES)), "s")
    integrate = []
    for _ in range(IMPORT_SAMPLES):
        found = re.search(r"^import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*scipy\.integrate\s*$",
                          run("-X", "importtime").stderr, re.MULTILINE)
        if found:
            integrate.append(int(found.group(1)) * 1e-6)
    if integrate:
        m.put("cli.scipy_integrate_import_s", median(integrate), "s")
    else:
        m.missing("cli.scipy_integrate_import_s")


def collect(vc, root, tracer, profiles) -> Metrics:
    """Every per-layer metric, from the profiles of the three workloads."""
    m = Metrics()
    special_layer(vc, tracer, m)
    order_layer(profiles, m)
    reference_layer(tracer, profiles["quadrature-panels"], m)
    expansion_layer(vc, tracer, profiles["expansion-grid"], m)
    pde_layer(tracer, profiles["pde-mol"], m)
    cli_layer(root, m)
    return m
