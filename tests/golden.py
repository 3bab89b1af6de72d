"""Golden outputs of the library: write them, or compare them bit for bit.

    python tests/golden.py            # write the three files under tests/data
    python tests/golden.py --exact    # compare bits; list the entries that moved

``golden_approximate.json``: each entry is one ``approximate`` call on
x = t^gamma (the power function of its side) under the affine order
alpha(t) = t/2 + 0.49.  It holds ``value`` and ``error_bound`` as
``float.hex`` strings, or the class name of the exception the call raises.
The grid is kinds I-III, both sides, gamma in {0.5, 2, 3.5}, N in {2, 8, 32}
and t at both ends and inside (0, 1), with n = 1, plus types I and III at
N = 256 on the left, gamma = 2, t = 0.6.  At gamma = 0.5 the derivatives of
x are unbounded at the endpoint a (left) or b (right) that each call's
interval reaches, so every bound there is inf: those entries pin the value
(or the raised class) only, and the bound's bits are checked by the
gamma = 2 and 3.5 entries.

``golden_pde.json``: ``solve_diffusion`` at the four configurations of the
benchmark's ``pde-mol`` workload (``manufactured_diffusion`` at mx = 20,
N = 3 and 12 and mx = 40, N = 3, and ``manufactured_burgers`` at mx = 20,
N = 6; order alpha(t) = t/10 + 1/2, mt = 200, t0 = 1e-4), each with its
``meta``, u at every 20th time node, ``dense`` at t = 0.05, 0.5 and 0.95, and
the SHA-256 of the whole u and of ``dense(t_nodes)``; the
``coefficients_left`` rows for alpha in {0.01, 0.3, 0.77, 0.999} and (n, N)
in {(1, 5), (2, 2), (2, 9), (3, 3), (3, 40)}; and ``caputo_quadrature`` over
kinds I-III, both sides, gamma in {2, 3.5} and t in {0.05, 0.5, 0.95} under
the order of the first file.

``golden_cli.json``: the outputs of the command-line front end, run
in-process through ``cli.main``: ``eval``, ``eval --kind 2 --side right
--t 0.3``, ``convergence --kind 1 --points 41``, ``figures --points 5`` (one
entry per file it writes), ``pde-diffusion --N 12 --mx 40`` and
``pde-burgers --N 6``.  Each entry holds the exit code, the SHA-256 of the
output, the fields of its ``#`` line (floats as ``float.hex``, integers and
words as written), its CSV column names and every 200th CSV row.

The tier-1 test (``test_golden.py``) compares every float to 1e-13 relative
and everything else exactly, hashes aside, since BLAS and NumPy builds may
round differently; an array's entries are compared relative to its largest,
as the zeros of a field round to noise.  ``--exact`` asks for the same bits
and hashes, for a change that claims them.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import pathlib
import sys
import tempfile

import numpy as np

from varcaputo import (
    ExpansionParams,
    Grid1D,
    Kind,
    Side,
    affine_order,
    approximate,
    caputo_quadrature,
    coefficients_left,
    manufactured_burgers,
    manufactured_diffusion,
    power_function,
    solve_diffusion,
)
from varcaputo.cli import main as cli_main

PATH = pathlib.Path(__file__).with_name("data") / "golden_approximate.json"
PDE_PATH = PATH.with_name("golden_pde.json")
CLI_PATH = PATH.with_name("golden_cli.json")
ORDER = affine_order(0.5, 0.49)
GAMMAS = (0.5, 2.0, 3.5)
NS = (2, 8, 32)
TS = (1e-6, 0.05, 0.5, 0.95, 1.0 - 1e-6)

#: (equation, mx, N) of the benchmark's ``pde-mol`` solves, on its order and grid.
PDE_SOLVES = (("diffusion", 20, 3), ("diffusion", 20, 12), ("diffusion", 40, 3), ("burgers", 20, 6))
PDE_ORDER = affine_order(0.1, 0.5)
PDE_MT, PDE_T0, U_EVERY = 200, 1e-4, 20
DENSE_TS = (0.05, 0.5, 0.95)
ALPHAS = (0.01, 0.3, 0.77, 0.999)
DEPTHS = ((1, 5), (2, 2), (2, 9), (3, 3), (3, 40))
QUAD_GAMMAS = (2.0, 3.5)
QUAD_TS = (0.05, 0.5, 0.95)
#: The CLI runs of ``golden_cli.json``; ``figures`` writes into a scratch directory.
CLI_RUNS = ("eval", "eval --kind 2 --side right --t 0.3", "convergence --kind 1 --points 41",
            "figures --points 5", "pde-diffusion --N 12 --mx 40", "pde-burgers --N 6")
ROW_EVERY = 200

#: Fields that hold floats as ``float.hex`` strings, alone or in (nested) lists.
FLOATS = {"value", "error_bound", "head", "tail", "u", "dense", "t0", "tol", "max_err", "rows"}
#: Fields that only ``--exact`` compares.
HASHES = {"u_sha256", "dense_sha256", "sha256"}


def grid() -> list[tuple[Kind, Side, float, int, float]]:
    """(kind, side, gamma, N, t) of every entry, in the file's order."""
    calls = [(kind, side, g, N, t) for kind in Kind for side in Side
             for g in GAMMAS for N in NS for t in TS]
    return calls + [(kind, Side.LEFT, 2.0, 256, 0.6) for kind in (Kind.TYPE_I, Kind.TYPE_III)]


def key(kind: Kind, side: Side, g: float, N: int, t: float) -> str:
    return f"{kind.name} {side.name} gamma={g!r} N={N} t={t!r}"


def compute() -> dict[str, dict[str, str]]:
    """The entries of ``golden_approximate.json`` from the current code, keyed by ``key``."""
    xs = {(g, side): power_function(g, 0.0, 1.0, side) for g in GAMMAS for side in Side}
    out = {}
    for kind, side, g, N, t in grid():
        try:
            r = approximate(kind, xs[g, side], ORDER, t, side, ExpansionParams(1, N))
        except Exception as exc:  # the class is the golden output
            out[key(kind, side, g, N, t)] = {"raises": type(exc).__name__}
        else:
            out[key(kind, side, g, N, t)] = {"value": r.value.hex(),
                                             "error_bound": r.error_bound.hex()}
    return out


def _hexes(a: np.ndarray) -> list:
    return [_hexes(row) for row in a] if a.ndim > 1 else [float(v).hex() for v in a]


def _sha256(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype="<f8").tobytes()).hexdigest()


def compute_pde() -> dict[str, dict]:
    """The entries of ``golden_pde.json`` from the current code."""
    out = {}
    for eq, mx, N in PDE_SOLVES:
        grid_ = Grid1D(mx, PDE_MT, PDE_T0)
        problem = (manufactured_diffusion(PDE_ORDER, N) if eq == "diffusion"
                   else manufactured_burgers(PDE_ORDER, N, PDE_T0))
        field = solve_diffusion(problem, grid_)
        out[f"solve {eq} mx={mx} N={N}"] = {
            "meta": {k: v.hex() if isinstance(v, float) else v for k, v in field.meta.items()},
            "u": _hexes(field.u[:, ::U_EVERY].T),
            "dense": _hexes(field.dense(np.array(DENSE_TS)).T),
            "u_sha256": _sha256(field.u),
            "dense_sha256": _sha256(field.dense(field.t_nodes)),
        }
    for alpha in ALPHAS:
        for n, N in DEPTHS:
            head, tail = coefficients_left(alpha, ExpansionParams(n, N))
            out[f"coefficients_left alpha={alpha!r} n={n} N={N}"] = {"head": _hexes(head),
                                                                     "tail": _hexes(tail)}
    for kind in Kind:
        for side in Side:
            for g in QUAD_GAMMAS:
                x = power_function(g, 0.0, 1.0, side)
                for t in QUAD_TS:
                    out[f"caputo_quadrature {kind.name} {side.name} gamma={g!r} t={t!r}"] = {
                        "value": caputo_quadrature(kind, x, ORDER, t, side).hex()}
    return out


def _word(v: str):
    """A ``#`` field's value: an int, a float as ``float.hex``, or the word."""
    for parse in (int, lambda s: float(s).hex()):
        try:
            return parse(v)
        except ValueError:
            pass
    return v


def _cli_entry(code: int, text: str) -> dict:
    """One CLI output: exit code, SHA-256, ``#`` fields, columns, every 200th row."""
    meta = [line for line in text.splitlines() if line.startswith("#")]
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    fields = dict(f.split("=", 1) for f in meta[0][1:].split()) if meta else {}
    return {"exit": code, "sha256": hashlib.sha256(text.encode()).hexdigest(),
            "header": {k: _word(v) for k, v in fields.items()}, "columns": lines[0],
            "rows": [[float(v).hex() for v in line.split(",")] for line in lines[1::ROW_EVERY]]}


def compute_cli() -> dict[str, dict]:
    """The entries of ``golden_cli.json`` from the current code."""
    out = {}
    for run in CLI_RUNS:
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()) as s:
            figures = run.startswith("figures")
            code = cli_main(run.split() + (["--out", tmp] if figures else []))
            if not figures:
                out[run] = _cli_entry(code, s.getvalue())
                continue
            for path in sorted(pathlib.Path(tmp).iterdir()):
                out[f"{run} {path.name}"] = _cli_entry(code, path.read_text())
    return out


#: Each golden file with the function that computes its entries.
FILES = ((PATH, compute), (PDE_PATH, compute_pde), (CLI_PATH, compute_cli))


def load(path: pathlib.Path = PATH) -> dict[str, dict]:
    return json.loads(path.read_text())


def floats(v) -> np.ndarray:
    """The floats of a float field: one ``float.hex`` string or a nested list of them."""
    return np.array([float.fromhex(s) for s in np.ravel(np.asarray(v, dtype=object))])


def close(w, g, rel: float = 1e-13) -> bool:
    """Whether a float field's values agree to ``rel``: each entry relative
    to the largest finite magnitude of the wanted field (its own, for one
    float); an inf or nan entry must be matched exactly."""
    a, b = floats(w), floats(g)
    if a.shape != b.shape:
        return False
    scale = np.max(np.abs(a[np.isfinite(a)]), initial=0.0)
    with np.errstate(invalid="ignore"):
        ok = (a == b) | (np.abs(b - a) <= rel * np.maximum(np.abs(a), scale))
    return bool(np.all(ok | (np.isnan(a) & np.isnan(b))))


def agree(w: dict, g: dict, path: str = "") -> list[str]:
    """The fields (``meta.tol`` for nested ones) where two entries disagree:
    floats by ``close``, hashes not at all, everything else exactly."""
    bad = [f"{path}{f}" for f in sorted(w.keys() ^ g.keys())]
    for f in sorted(w.keys() & g.keys()):
        if f in HASHES:
            continue
        if isinstance(w[f], dict) and isinstance(g[f], dict):
            bad += agree(w[f], g[f], f"{path}{f}.")
        elif not (close(w[f], g[f]) if f in FLOATS else w[f] == g[f]):
            bad.append(f"{path}{f}")
    return bad


def _describe(f: str, w, g) -> str:
    """One field's move, for ``moved``."""
    if f.rsplit(".", 1)[-1] in FLOATS and w is not None and g is not None:
        a, b = floats(w), floats(g)
        if a.shape == b.shape:
            with np.errstate(divide="ignore", invalid="ignore"):
                rel = float(np.max(np.where(a != 0.0, np.abs(b - a) / np.abs(a), np.abs(b - a))))
            if a.size == 1:
                return f"{f} {float(a[0])!r} -> {float(b[0])!r} (rel {rel:.1e})"
            return f"{f} {int(np.sum(a != b))} of {a.size} floats (max rel {rel:.1e})"
    if isinstance(w, dict) and isinstance(g, dict):
        return "; ".join(_describe(f"{f}.{k}", w.get(k), g.get(k))
                         for k in sorted(w.keys() | g.keys()) if w.get(k) != g.get(k))
    return f"{f} {w} -> {g}"


def moved(want: dict, got: dict) -> list[str]:
    """One line per entry whose bits or hashes differ, or that only one side has."""
    lines = []
    for k in sorted(want.keys() | got.keys()):
        w, g = want.get(k), got.get(k)
        if w == g:
            continue
        if w is None or g is None:
            lines.append(f"{k}: {'new' if w is None else 'gone'}")
            continue
        lines.append(f"{k}: " + "; ".join(_describe(f, w.get(f), g.get(f))
                                          for f in sorted(w.keys() | g.keys())
                                          if w.get(f) != g.get(f)))
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--exact", action="store_true",
                        help="compare the current code's bits with the files instead of writing them")
    args = parser.parse_args(argv)
    status = 0
    for path, compute_entries in FILES:
        got = compute_entries()
        if not args.exact:
            path.parent.mkdir(exist_ok=True)
            path.write_text(json.dumps(got, indent=1) + "\n")
            print(f"wrote {len(got)} entries to {path.name}")
            continue
        lines = moved(load(path), got)
        for line in lines:
            print(line)
        print(f"{path.name}: {len(lines)} of {len(got)} entries moved")
        status |= bool(lines)
    return status


if __name__ == "__main__":
    sys.exit(main())
