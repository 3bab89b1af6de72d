"""The committed golden outputs of ``golden.py``, to 1e-13."""

import math
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).parent))

import golden  # noqa: E402


def test_approximate_matches_golden_file():
    # Values and bounds to 1e-13 relative, raised errors by class: BLAS and
    # NumPy builds may differ in the last bits, so equal bits are for
    # ``golden.py --exact``.
    want = golden.load()
    got = golden.compute()
    assert got.keys() == want.keys()
    assert sum("raises" in e for e in want.values()) < len(want) // 4
    for k, w in want.items():
        g = got[k]
        assert g.keys() == w.keys(), (k, w, g)
        if "raises" in w:
            assert g["raises"] == w["raises"], k
            continue
        for f in ("value", "error_bound"):
            a, b = float.fromhex(w[f]), float.fromhex(g[f])
            assert math.isclose(b, a, rel_tol=1e-13, abs_tol=0.0), (k, f, a, b)


def test_pde_coefficients_and_quadrature_match_golden_file():
    # The PDE solves, coefficient rows and quadratures of golden_pde.json:
    # floats to 1e-13 (an array's relative to its largest entry), step and
    # factorisation counts exactly; the hashes are for ``golden.py --exact``.
    want = golden.load(golden.PDE_PATH)
    got = golden.compute_pde()
    assert got.keys() == want.keys()
    for k, w in want.items():
        assert golden.agree(w, got[k]) == [], k


def test_cli_outputs_match_golden_file():
    # Exit codes, '#' fields, column names and every 200th CSV row of the
    # CLI runs, floats to 1e-13 (a row block's relative to its largest
    # entry); the output hashes are for ``golden.py --exact``.
    want = golden.load(golden.CLI_PATH)
    got = golden.compute_cli()
    assert got.keys() == want.keys()
    for k, w in want.items():
        assert golden.agree(w, got[k]) == [], k
