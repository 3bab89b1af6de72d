"""Command-line front end.

Each subcommand takes exactly the flags its handler reads:

* ``eval`` -- pointwise oracle vs expansion comparison with bound:
  ``--order --kind --side --n --N --tol --out --t --gamma-exp``
* ``convergence`` -- expansion error sweep at N in {2,4,6} over a t grid:
  ``--order --kind --side --n --tol --out --points``
* ``figures`` -- the six fixed variable-order vs constant-order panels,
  one CSV each in the directory ``--out``: ``--order --tol --out --points``
* ``pde-diffusion`` / ``pde-burgers`` -- method-of-lines runs at n = 1:
  ``--order --N --out --mx --mt --t0``

Output is CSV only (header row, 17 significant digits, '.' decimal);
metadata lines are prefixed with '#'.  ``--out`` absent or '-' writes to
stdout, except for ``figures``, which needs a directory and exits 2
without one.  Exit codes: 0 success (also when the reader of stdout closes
the pipe early), 2 config or output-path error or an allocation the machine
refuses (``MemoryError``), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
import os
import sys
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from .expansion import ExpansionParams, approximate
from .order import OrderFunction, affine_order, constant_order
from .pde import (DEFAULT_T0, Grid1D, burgers_exact, diffusion_exact, field_error,
                  manufactured_burgers, manufactured_diffusion, solve_diffusion)
from .reference import (DEFAULT_TOL, Kind, ScalarFunction, Side, caputo_quadrature,
                        power_closed_form, power_function)
from .special import PoleError

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


def parse_order(spec: str) -> OrderFunction:
    """Parse an order spec: preset name or 'c1,c0' affine coefficients.  A bad
    spec raises ``ConfigError``, an order outside (0, 1) ``AdmissibilityError``."""
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
    return affine_order(c1, c0)


@contextlib.contextmanager
def _output(path: str | None) -> Iterator[TextIO]:
    """stdout for None or '-', otherwise the file at path opened for CSV.

    stdout is flushed before the block ends, so a reader that closed the
    pipe early surfaces as ``BrokenPipeError`` inside ``main``.  Handlers
    whose rows can fail compute them all before they enter the block, so a
    failure leaves neither a partial file nor a header on stdout.
    """
    if path is None or path == "-":
        yield sys.stdout
        sys.stdout.flush()
    else:
        with open(path, "w", newline="") as stream:
            yield stream


def _write_csv(stream: TextIO, header: list[str], rows: Iterable[Sequence[float]]) -> None:
    """The header row, then each row's values at 17 significant digits."""
    writer = csv.writer(stream)
    writer.writerow(header)
    writer.writerows([_fmt(v) for v in row] for row in rows)


def _t_grid(order: OrderFunction, points: int) -> list[float]:
    """points equispaced t over the order domain, both ends included."""
    if points < 2:
        raise ConfigError(f"--points must be at least 2 (a grid has both ends), got {points}")
    return np.linspace(order.a, order.b, points).tolist()


def _check_n(n: int, x: ScalarFunction) -> None:
    """The error bound needs x^(n+1), so --n is limited by the analytic
    derivatives x carries."""
    top = len(x.derivatives)
    if n >= top:
        raise ConfigError(f"--n must be at most {top - 1}, got {n}: the bound needs x^(n+1), "
                          f"and the power function has analytic derivatives up to order {top}")


def cmd_eval(args: argparse.Namespace) -> int:
    order = parse_order(args.order)
    kind = Kind(args.kind)
    side = Side(args.side)
    x = power_function(args.gamma_exp, order.a, order.b, side)
    _check_n(args.n, x)
    params = ExpansionParams(args.n, args.N)
    ts = args.t if args.t else [0.5]

    def row(t: float) -> list[float]:
        oracle = power_closed_form(kind, side, args.gamma_exp, order, t)
        res = approximate(kind, x, order, t, side, params, args.tol)
        return [t, oracle, res.value, abs(oracle - res.value), res.error_bound]

    rows = [row(t) for t in ts]
    with _output(args.out) as stream:
        _write_csv(stream, ["t", "oracle", "approx", "observed_error", "certified_bound"], rows)
    return EXIT_OK


def cmd_convergence(args: argparse.Namespace) -> int:
    order = parse_order(args.order)
    kind = Kind(args.kind)
    side = Side(args.side)
    x = power_function(2.0, order.a, order.b, side)
    if not 1 <= args.n <= 2:  # N = 2 limits n before x's derivatives (``_check_n``) do
        raise ConfigError(f"--n must be 1 or 2, got {args.n}: the sweep's N are 2, 4 and 6, each "
                          f"needs N >= n >= 1, and the bound needs x^(n+1), which the power "
                          f"function has analytically up to order {len(x.derivatives)}")
    ts = _t_grid(order, args.points)

    def row(t: float) -> list[float]:
        exact = power_closed_form(kind, side, 2.0, order, t)
        approxs = [
            approximate(kind, x, order, t, side, ExpansionParams(args.n, N), args.tol).value
            for N in (2, 4, 6)
        ]
        return [t, exact, *approxs, *(abs(exact - a) for a in approxs)]

    rows = [row(t) for t in ts]
    header = ["t", "exact", "approx_N2", "approx_N4", "approx_N6", "err_N2", "err_N4", "err_N6"]
    with _output(args.out) as stream:
        _write_csv(stream, header, rows)
    return EXIT_OK


def cmd_figures(args: argparse.Namespace) -> int:
    """Per panel, one per side and kind, rows (t, closed form, quadrature,
    closed forms at the constant orders 0.1 and 0.6).  The left panels
    differentiate x(t) = t^2, the right ones y(t) = (1-t)^2."""
    order = parse_order(args.order)
    ts = _t_grid(order, args.points)
    if args.out is None or args.out == "-":
        raise ConfigError("figures requires --out <directory>, not stdout")
    os.makedirs(args.out, exist_ok=True)
    consts = [constant_order(c, (order.a, order.b)) for c in (0.1, 0.6)]
    header = ["t", "variable_closed", "variable_quad", "const_alpha_0.1", "const_alpha_0.6"]
    for side, kind in itertools.product(Side, Kind):
        label = f"{side.value}_type{kind.value}"
        x = power_function(2.0, order.a, order.b, side)
        rows = [
            [t, power_closed_form(kind, side, 2.0, order, t),
             caputo_quadrature(kind, x, order, t, side, args.tol),
             *(power_closed_form(kind, side, 2.0, c, t) for c in consts)]
            for t in ts
        ]
        with _output(os.path.join(args.out, f"{label}.csv")) as stream:
            stream.write(f"# panel={label} order={args.order}\n")
            _write_csv(stream, header, rows)
    return EXIT_OK


#: PDE subcommands: the manufactured problem's constructor, called as
#: make(order, N, t0), the exact solution its field is compared with, and
#: the labels that open the CSV header.  The diffusion problem's zero
#: initial profile does not depend on t0.
_PDE_RUNS = {
    "pde-diffusion": (lambda order, N, t0: manufactured_diffusion(order, N), diffusion_exact,
                      "equation=diffusion"),
    "pde-burgers": (manufactured_burgers, burgers_exact,
                    "equation=burgers lateral_bc=dirichlet-from-exact-solution"),
}


def cmd_pde(args: argparse.Namespace) -> int:
    make, exact, labels = _PDE_RUNS[args.subcommand]
    order, grid = parse_order(args.order), Grid1D(args.mx, args.mt, args.t0)
    fieldv = solve_diffusion(make(order, args.N, grid.t0), grid)

    def rows() -> Iterator[list[float]]:
        for j, t in enumerate(fieldv.t_nodes):
            for i, x in enumerate(fieldv.x_nodes):
                ue = float(exact(x, t))
                yield [x, t, fieldv.u[i, j], ue, abs(fieldv.u[i, j] - ue)]

    meta = " ".join(f"{k}={v}" for k, v in fieldv.meta.items())
    with _output(args.out) as stream:
        stream.write(f"# {labels} {meta} max_err={_fmt(field_error(fieldv, exact))}\n")
        _write_csv(stream, ["x", "t", "u", "u_exact", "abs_err"], rows())
    return EXIT_OK


#: Every flag of the CLI, declared once; each subcommand takes exactly the
#: ones its handler reads, and sets the defaults that differ between them.
_FLAGS = {
    "--order": dict(default="paper-alpha", help="preset name or 'c1,c0'"),
    "--kind": dict(type=int, choices=(1, 2, 3), default=3),
    "--side": dict(choices=("left", "right"), default="left"),
    "--n": dict(type=int, default=1, help="highest classical derivative"),
    "--N": dict(type=int, default=6, help="series truncation"),
    "--tol": dict(type=float, default=DEFAULT_TOL),
    "--out": dict(default=None, help="output path ('-' = stdout); for figures a directory"),
    "--t": dict(type=float, action="append", help="evaluation point (repeatable)"),
    "--gamma-exp": dict(type=float, default=2.0, help="power-function exponent"),
    "--points": dict(type=int),
    "--mx": dict(type=int, default=20),
    "--mt": dict(type=int, default=200),
    "--t0": dict(type=float, default=DEFAULT_T0),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="varcaputo",
        description="Variable-order Caputo derivatives: oracles, expansions, PDE runs.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name: str, func, summary: str, flags: str, **defaults) -> None:
        p = sub.add_parser(name, help=summary)
        for flag in flags.split():
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(func=func, **defaults)

    add("eval", cmd_eval, "pointwise oracle/approximation rows",
        "--order --kind --side --n --N --tol --out --t --gamma-exp")
    add("convergence", cmd_convergence, "N in {2,4,6} error sweep for x=t^2",
        "--order --kind --side --n --tol --out --points", points=21)
    add("figures", cmd_figures, "variable vs constant order comparison panels",
        "--order --tol --out --points", order="fig1-alpha", points=51)
    for name in _PDE_RUNS:
        add(name, cmd_pde, f"method-of-lines {name[4:]} run", "--order --N --out --mx --mt --t0")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # The reader closed the pipe (`| head`): stop quietly, and point
        # stdout at devnull so the interpreter's final flush cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except (PoleError, ArithmeticError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # a size the machine cannot allocate
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
