"""Command-line front end.

Subcommands:

* ``eval``         -- pointwise oracle vs expansion comparison with bound
* ``convergence``  -- expansion error sweep at N in {2,4,6} over a t grid
* ``figures``      -- variable-order vs constant-order comparison panels
* ``pde-diffusion`` / ``pde-burgers`` -- method-of-lines runs

Output is CSV only (header row, 17 significant digits, '.' decimal);
metadata lines are prefixed with '#'.  Exit codes: 0 success, 2 config
error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import sys
from typing import Sequence

import numpy as np

from .expansion import ExpansionParams, approximate
from .order import AdmissibilityError, OrderFunction, affine_order, constant_order
from .pde import (
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
    Side,
    caputo_quadrature,
    power_closed_form,
    power_function,
)
from .special import DomainError, PoleError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

#: Named order presets: alpha(t) = c1*t + c0.
ORDER_PRESETS = {
    "paper-alpha": (0.5, 0.49),  # (50t+49)/100
    "paper-beta": (0.1, 0.5),    # (t+5)/10
    "fig1-alpha": (0.5, 0.1),    # (5t+1)/10
}

_FMT = "%.17g"


class ConfigError(ValueError):
    pass


def _fmt(x: float) -> str:
    return _FMT % x


def parse_order(spec: str, domain: tuple[float, float] = (0.0, 1.0)) -> OrderFunction:
    """Parse an order spec: preset name or 'c1,c0' affine coefficients."""
    if spec in ORDER_PRESETS:
        c1, c0 = ORDER_PRESETS[spec]
    else:
        parts = spec.split(",")
        if len(parts) != 2:
            raise ConfigError(
                f"order must be a preset ({', '.join(ORDER_PRESETS)}) or 'c1,c0', got {spec!r}"
            )
        try:
            c1, c0 = float(parts[0]), float(parts[1])
        except ValueError as exc:
            raise ConfigError(f"bad order coefficients {spec!r}") from exc
    try:
        return affine_order(c1, c0, domain)
    except AdmissibilityError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_kind(kind: int) -> Kind:
    return {1: Kind.TYPE_I, 2: Kind.TYPE_II, 3: Kind.TYPE_III}[kind]


def _parse_side(side: str) -> Side:
    return Side.LEFT if side == "left" else Side.RIGHT


def _open_out(path: str | None):
    if path is None or path == "-":
        return sys.stdout, False
    return open(path, "w", newline=""), True


def cmd_eval(args: argparse.Namespace) -> int:
    order = parse_order(args.order)
    kind = _parse_kind(args.kind)
    side = _parse_side(args.side)
    params = ExpansionParams(args.n, args.N)
    ts = args.t if args.t else [0.5]
    for t in ts:
        if not order.a <= t <= order.b:
            raise ConfigError(f"t = {t} outside the order domain [{order.a}, {order.b}]")
    x = power_function(args.gamma_exp, order.a, order.b, side)
    stream, close = _open_out(args.out)
    try:
        writer = csv.writer(stream)
        writer.writerow(["t", "oracle", "approx", "observed_error", "certified_bound"])
        for t in ts:
            oracle = power_closed_form(kind, side, args.gamma_exp, order, t)
            res = approximate(kind, x, order, t, side, params, args.tol)
            writer.writerow(
                [_fmt(t), _fmt(oracle), _fmt(res.value), _fmt(abs(oracle - res.value)), _fmt(res.error_bound)]
            )
    finally:
        if close:
            stream.close()
    return EXIT_OK


def cmd_convergence(args: argparse.Namespace) -> int:
    order = parse_order(args.order)
    kind = _parse_kind(args.kind)
    side = _parse_side(args.side)
    x = power_function(2.0, order.a, order.b, side)
    ns = (2, 4, 6)
    ts = np.linspace(order.a, order.b, args.points)
    stream, close = _open_out(args.out)
    try:
        writer = csv.writer(stream)
        writer.writerow(
            ["t", "exact", "approx_N2", "approx_N4", "approx_N6", "err_N2", "err_N4", "err_N6"]
        )
        for t in ts:
            t = float(t)
            exact = power_closed_form(kind, side, 2.0, order, t)
            approxs = [
                approximate(kind, x, order, t, side, ExpansionParams(args.n, N), args.tol).value
                for N in ns
            ]
            errs = [abs(exact - a) for a in approxs]
            writer.writerow([_fmt(v) for v in [t, exact, *approxs, *errs]])
    finally:
        if close:
            stream.close()
    return EXIT_OK


#: Figure-comparison panels: (label, kind, side).  The left panels
#: differentiate x(t) = t^2, the right ones y(t) = (1-t)^2.
FIGURE_PANELS = [
    ("left_type1", Kind.TYPE_I, Side.LEFT),
    ("left_type2", Kind.TYPE_II, Side.LEFT),
    ("left_type3", Kind.TYPE_III, Side.LEFT),
    ("right_type1", Kind.TYPE_I, Side.RIGHT),
    ("right_type2", Kind.TYPE_II, Side.RIGHT),
    ("right_type3", Kind.TYPE_III, Side.RIGHT),
]


def figure_panel_rows(
    kind: Kind, side: Side, order: OrderFunction, ts: Sequence[float], tol: float
) -> list[list[float]]:
    """Rows (t, closed form, quadrature, const-order 0.1, const-order 0.6)."""
    x = power_function(2.0, order.a, order.b, side)
    lo = constant_order(0.1, (order.a, order.b))
    hi = constant_order(0.6, (order.a, order.b))
    rows = []
    for t in ts:
        t = float(t)
        closed = power_closed_form(kind, side, 2.0, order, t)
        quadv = caputo_quadrature(kind, x, order, t, side, tol)
        rows.append(
            [
                t,
                closed,
                quadv,
                power_closed_form(kind, side, 2.0, lo, t),
                power_closed_form(kind, side, 2.0, hi, t),
            ]
        )
    return rows


def cmd_figures(args: argparse.Namespace) -> int:
    order = parse_order(args.order if args.order else "fig1-alpha")
    ts = np.linspace(order.a, order.b, args.points)
    if args.out is None:
        raise ConfigError("figures requires --out <directory>")
    import os

    os.makedirs(args.out, exist_ok=True)
    for label, kind, side in FIGURE_PANELS:
        path = os.path.join(args.out, f"{label}.csv")
        with open(path, "w", newline="") as stream:
            stream.write(f"# panel={label} order={args.order or 'fig1-alpha'}\n")
            writer = csv.writer(stream)
            writer.writerow(["t", "variable_closed", "variable_quad", "const_alpha_0.1", "const_alpha_0.6"])
            for row in figure_panel_rows(kind, side, order, ts, args.tol):
                writer.writerow([_fmt(v) for v in row])
    return EXIT_OK


def _write_field(stream, fieldv, exact) -> None:
    max_err = field_error(fieldv, exact)
    meta = " ".join(f"{k}={v}" for k, v in fieldv.meta.items())
    stream.write(f"# {meta} max_err={_fmt(max_err)}\n")
    writer = csv.writer(stream)
    writer.writerow(["x", "t", "u", "u_exact", "abs_err"])
    for j, t in enumerate(fieldv.t_nodes):
        for i, x in enumerate(fieldv.x_nodes):
            ue = float(exact(x, t))
            writer.writerow(
                [_fmt(x), _fmt(t), _fmt(fieldv.u[i, j]), _fmt(ue), _fmt(abs(fieldv.u[i, j] - ue))]
            )


def cmd_pde_diffusion(args: argparse.Namespace) -> int:
    order = parse_order(args.order)
    grid = Grid1D(args.mx, args.mt, args.t0)
    problem = manufactured_diffusion(order, N=args.N)
    fieldv = solve_diffusion(problem, grid, n_expansion=args.n)
    stream, close = _open_out(args.out)
    try:
        _write_field(stream, fieldv, diffusion_exact)
    finally:
        if close:
            stream.close()
    return EXIT_OK


def cmd_pde_burgers(args: argparse.Namespace) -> int:
    order = parse_order(args.order)
    grid = Grid1D(args.mx, args.mt, args.t0)
    fieldv = solve_burgers(order, grid, N=args.N)
    stream, close = _open_out(args.out)
    try:
        _write_field(stream, fieldv, burgers_exact)
    finally:
        if close:
            stream.close()
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="varcaputo",
        description="Variable-order Caputo derivatives: oracles, expansions, PDE runs.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p: argparse.ArgumentParser, pde: bool = False) -> None:
        p.add_argument("--order", default="paper-alpha", help="preset name or 'c1,c0'")
        p.add_argument("--n", type=int, default=1, help="highest classical derivative")
        p.add_argument("--N", type=int, default=6, help="series truncation")
        p.add_argument("--tol", type=float, default=1e-8)
        p.add_argument("--out", default=None, help="output path ('-' = stdout)")
        if not pde:
            p.add_argument("--kind", type=int, choices=(1, 2, 3), default=3)
            p.add_argument("--side", choices=("left", "right"), default="left")

    p_eval = sub.add_parser("eval", help="pointwise oracle/approximation rows")
    add_common(p_eval)
    p_eval.add_argument("--t", type=float, action="append", help="evaluation point (repeatable)")
    p_eval.add_argument("--gamma-exp", type=float, default=2.0, help="power-function exponent")
    p_eval.set_defaults(func=cmd_eval)

    p_conv = sub.add_parser("convergence", help="N in {2,4,6} error sweep for x=t^2")
    add_common(p_conv)
    p_conv.add_argument("--points", type=int, default=21)
    p_conv.set_defaults(func=cmd_convergence)

    p_fig = sub.add_parser("figures", help="variable vs constant order comparison panels")
    add_common(p_fig)
    p_fig.add_argument("--points", type=int, default=51)
    p_fig.set_defaults(func=cmd_figures, order=None)

    for name, fn in (("pde-diffusion", cmd_pde_diffusion), ("pde-burgers", cmd_pde_burgers)):
        p_pde = sub.add_parser(name, help=f"method-of-lines {name[4:]} run")
        add_common(p_pde, pde=True)
        p_pde.add_argument("--mx", type=int, default=20)
        p_pde.add_argument("--mt", type=int, default=200)
        p_pde.add_argument("--t0", type=float, default=1e-4)
        p_pde.set_defaults(func=fn)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (QuadratureError, PoleError, ArithmeticError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ConfigError, AdmissibilityError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
