"""Golden outputs of ``approximate``: write them, or compare them bit for bit.

    python tests/golden.py            # write tests/data/golden_approximate.json
    python tests/golden.py --exact    # compare bits; list the entries that moved

Each entry is one ``approximate`` call on x = t^gamma (the power function of
its side) under the affine order alpha(t) = t/2 + 0.49.  It holds ``value``
and ``error_bound`` as ``float.hex`` strings, or the class name of the
exception the call raises.  The grid is kinds I-III, both sides, gamma in
{0.5, 2, 3.5}, N in {2, 8, 32} and t at both ends and inside (0, 1), with
n = 1, plus types I and III at N = 256 on the left, gamma = 2, t = 0.6.
At gamma = 0.5 the derivatives of x are unbounded at the endpoint a (left) or
b (right) that each call's interval reaches, so every bound there is inf:
those entries pin the value (or the raised class) only, and the
bound's bits are checked by the gamma = 2 and 3.5 entries.

The tier-1 test (``test_golden.py``) compares every value to 1e-13 relative,
since BLAS and NumPy builds may round differently; ``--exact`` asks for the
same bits, for a change that claims them.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from varcaputo import ExpansionParams, Kind, Side, affine_order, approximate, power_function

PATH = pathlib.Path(__file__).with_name("data") / "golden_approximate.json"
ORDER = affine_order(0.5, 0.49)
GAMMAS = (0.5, 2.0, 3.5)
NS = (2, 8, 32)
TS = (1e-6, 0.05, 0.5, 0.95, 1.0 - 1e-6)


def grid() -> list[tuple[Kind, Side, float, int, float]]:
    """(kind, side, gamma, N, t) of every entry, in the file's order."""
    calls = [(kind, side, g, N, t) for kind in Kind for side in Side
             for g in GAMMAS for N in NS for t in TS]
    return calls + [(kind, Side.LEFT, 2.0, 256, 0.6) for kind in (Kind.TYPE_I, Kind.TYPE_III)]


def key(kind: Kind, side: Side, g: float, N: int, t: float) -> str:
    return f"{kind.name} {side.name} gamma={g!r} N={N} t={t!r}"


def compute() -> dict[str, dict[str, str]]:
    """The entries of the current code, keyed by ``key``."""
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


def load() -> dict[str, dict[str, str]]:
    return json.loads(PATH.read_text())


def moved(want: dict, got: dict) -> list[str]:
    """One line per entry whose bits differ, or that only one side has."""
    lines = []
    for k in sorted(want.keys() | got.keys()):
        w, g = want.get(k), got.get(k)
        if w == g:
            continue
        if w is None or g is None:
            lines.append(f"{k}: {'new' if w is None else 'gone'}")
            continue
        fields = sorted(w.keys() | g.keys())
        diffs = []
        for f in fields:
            if w.get(f) == g.get(f):
                continue
            if f in ("value", "error_bound") and f in w and f in g:
                a, b = float.fromhex(w[f]), float.fromhex(g[f])
                rel = abs(b - a) / abs(a) if a else abs(b - a)
                diffs.append(f"{f} {a!r} -> {b!r} (rel {rel:.1e})")
            else:
                diffs.append(f"{f} {w.get(f)} -> {g.get(f)}")
        lines.append(f"{k}: " + "; ".join(diffs))
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--exact", action="store_true",
                        help="compare the current code's bits with the file instead of writing it")
    args = parser.parse_args(argv)
    got = compute()
    if not args.exact:
        PATH.parent.mkdir(exist_ok=True)
        PATH.write_text(json.dumps(got, indent=1) + "\n")
        print(f"wrote {len(got)} entries to {PATH.name}")
        return 0
    lines = moved(load(), got)
    for line in lines:
        print(line)
    print(f"{len(lines)} of {len(got)} entries moved")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
