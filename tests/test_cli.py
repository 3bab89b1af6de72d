import argparse
import contextlib
import csv
import io
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import varcaputo
from varcaputo import AdmissibilityError
from varcaputo.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    ConfigError,
    build_parser,
    main,
    parse_order,
)
from varcaputo.pde import DEFAULT_T0, _KERNEL_SHARE, _TOL
from varcaputo.reference import DEFAULT_TOL
from varcaputo.special import signed_binomial


def _read_csv(path):
    with open(path) as fh:
        meta = [line for line in fh if line.startswith("#")]
        fh.seek(0)
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    return meta, rows


class TestParseOrder:
    def test_presets(self):
        order = parse_order("paper-beta")
        assert order.alpha(0.0) == pytest.approx(0.5)
        assert order.alpha(1.0) == pytest.approx(0.6)

    def test_affine_pair(self):
        order = parse_order("0.5,0.1")
        assert order.alpha_prime(0.3) == pytest.approx(0.5)

    def test_rejects_garbage(self):
        with pytest.raises(ConfigError):
            parse_order("not-a-preset")
        with pytest.raises(ConfigError):
            parse_order("1,2,3")
        with pytest.raises(AdmissibilityError):
            parse_order("2,0")  # leaves (0,1) on the domain


class TestEval:
    def test_rows_and_roundtrip(self, tmp_path):
        out = tmp_path / "eval.csv"
        rc = main(
            ["eval", "--order", "fig1-alpha", "--kind", "1",
             "--t", "0.25", "--t", "0.5", "--out", str(out)]
        )
        assert rc == EXIT_OK
        _, rows = _read_csv(out)
        assert [r["t"] for r in rows] == ["0.25", "0.5"]
        for r in rows:
            oracle = float(r["oracle"])
            approx = float(r["approx"])
            assert math.isfinite(oracle) and math.isfinite(approx)
            assert float(r["observed_error"]) == pytest.approx(
                abs(oracle - approx), rel=1e-12, abs=1e-300
            )
            assert float(r["observed_error"]) <= float(r["certified_bound"])

    def test_full_precision_roundtrip(self, tmp_path):
        # 17 significant digits must reproduce the double exactly.
        out = tmp_path / "eval.csv"
        main(["eval", "--order", "fig1-alpha", "--t", "0.5", "--out", str(out)])
        _, rows = _read_csv(out)
        v = float(rows[0]["oracle"])
        assert ("%.17g" % v) == rows[0]["oracle"]

    def test_bad_t_is_config_error(self, tmp_path):
        rc = main(["eval", "--t", "2.0", "--out", str(tmp_path / "x.csv")])
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
    def test_non_positive_tol_is_config_error(self, tmp_path, tol):
        rc = main(["eval", "--tol", tol, "--out", str(tmp_path / "x.csv")])
        assert rc == EXIT_CONFIG

    def test_bad_order_is_config_error(self, tmp_path):
        # Coefficients that leave (0, 1), and coefficients that are not numbers.
        for spec in ("9,9", "a,b"):
            rc = main(["eval", "--order", spec, "--out", str(tmp_path / "x.csv")])
            assert rc == EXIT_CONFIG

    def test_non_finite_quadrature_is_numerical_failure(self, tmp_path, capsys):
        # x' = 0.8 (1-t)^(-0.2) is infinite at b, and QUADPACK lands on b.
        out = tmp_path / "x.csv"
        rc = main(["eval", "--kind", "1", "--side", "right", "--gamma-exp", "0.8",
                   "--N", "2", "--t", "0.999999999", "--out", str(out)])
        assert rc == EXIT_NUMERICAL
        assert capsys.readouterr().err.startswith("numerical failure: ")
        assert not out.exists()

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_missed_moment_is_numerical_failure(self, tmp_path, side, capsys):
        # The moment pass misses W_0 of t^1e-12, which lies at s < e^(-1e12):
        # approx was 8.67e-12 against oracle 0.480, with exit 0.
        out = tmp_path / "x.csv"
        rc = main(["eval", "--gamma-exp", "1e-12", "--side", side, "--out", str(out)])
        assert rc == EXIT_NUMERICAL
        assert "W_0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["--kind", "1", "--N", "32", "--t", "1e-6"],  # raw moments dist^(p+1) underflow
        ["--N", "200"],  # 200! exceeds double range
        ["--kind", "2", "--side", "right", "--t", "0.3"],
    ], ids=["tiny-distance", "N200", "right-side"])
    def test_extreme_inputs_are_certified(self, tmp_path, argv):
        out = tmp_path / "x.csv"
        rc = main(["eval", *argv, "--out", str(out)])
        assert rc == EXIT_OK
        _, rows = _read_csv(out)
        assert float(rows[0]["observed_error"]) <= float(rows[0]["certified_bound"])


class TestNoPartialOutput:
    # n = 4 needs x^(5), beyond the analytic derivatives of power_function
    # and the numeric fallback, and a t-grid of fewer than 2 points has no
    # ends: both are rejected before any output is made.
    @pytest.mark.parametrize("argv", [
        ["eval", "--n", "4", "--N", "6"],
        ["convergence", "--n", "4", "--points", "3"],
        ["convergence", "--points", "0"],
        ["convergence", "--points", "1"],
        ["figures", "--points", "0"],
    ], ids=["eval", "convergence", "convergence-points0", "convergence-points1",
            "figures-points0"])
    def test_failure_writes_nothing(self, tmp_path, argv, capsys):
        out = tmp_path / "x.csv"
        assert main([*argv, "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().out == ""


class TestExpansionDepth:
    # The bound needs x^(n+1); power_function carries derivatives up to order 4.
    @pytest.mark.parametrize("argv", [
        ["eval", "--n", "4", "--N", "6", "--gamma-exp", "6"],
        ["convergence", "--n", "4", "--points", "3"],
    ], ids=lambda argv: argv[0])
    def test_n_beyond_analytic_derivatives_names_the_flag(self, argv, capsys):
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "--n" in err and "order 4" in err and "fallback" not in err

    @pytest.mark.parametrize("n", ["0", "3", "4"])
    def test_convergence_n_outside_its_N_names_the_flag(self, n, capsys):
        # The sweep's N are 2, 4 and 6, none of them a flag, so the error
        # names --n and those N rather than one N the user never gave.  At
        # --n 4 it is the same message, not a limit of 3 that --n 3 refuses.
        assert main(["convergence", "--n", n, "--points", "3"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "--n must be 1 or 2" in err and "2, 4 and 6" in err and "N=2" not in err

    def test_deepest_n_runs(self, capsys):
        assert main(["eval", "--n", "3", "--N", "3", "--gamma-exp", "5"]) == EXIT_OK
        _, row = capsys.readouterr().out.splitlines()
        assert math.isfinite(float(row.split(",")[-1]))


class TestConvergence:
    def test_errors_shrink(self, tmp_path):
        out = tmp_path / "conv.csv"
        rc = main(
            ["convergence", "--order", "paper-beta", "--points", "5", "--out", str(out)]
        )
        assert rc == EXIT_OK
        _, rows = _read_csv(out)
        assert len(rows) == 5
        interior = rows[2]
        assert float(interior["err_N6"]) <= 1.05 * float(interior["err_N2"])


class TestFigures:
    def test_six_panels(self, tmp_path):
        out_dir = tmp_path / "figs"
        rc = main(["figures", "--points", "9", "--out", str(out_dir)])
        assert rc == EXIT_OK
        files = sorted(p.name for p in out_dir.iterdir())
        assert files == [
            "left_type1.csv", "left_type2.csv", "left_type3.csv",
            "right_type1.csv", "right_type2.csv", "right_type3.csv",
        ]
        for name in files:
            meta, rows = _read_csv(out_dir / name)
            assert meta and meta[0].startswith("# panel=")
            assert len(rows) == 9
            for r in rows:
                closed = float(r["variable_closed"])
                quadv = float(r["variable_quad"])
                assert abs(closed - quadv) <= 1e-6 * max(1.0, abs(closed))

    def test_requires_out(self):
        assert main(["figures"]) == EXIT_CONFIG

    def test_stdout_is_not_a_directory(self, tmp_path, monkeypatch):
        # '-' means stdout elsewhere; six panels cannot go there, and no
        # directory named '-' may appear.
        monkeypatch.chdir(tmp_path)
        assert main(["figures", "--points", "3", "--out", "-"]) == EXIT_CONFIG
        assert list(tmp_path.iterdir()) == []


def _assert_header_tol(header: str, N: int) -> None:
    """tol= in the header of a paper-beta run, alpha = (t + 5)/10 from the
    default t0, is a plain float literal, never np.float64(...), and the
    stepper's rule max(_TOL, _KERNEL_SHARE E_N), with the kernel error
    E_N(alpha) = |C(1 - alpha, N + 1)| / Gamma(3 - alpha) least at an end."""
    text = header.split(" tol=", 1)[1].split(" ", 1)[0]
    assert "np.float64(" not in header and repr(float(text)) == text
    e_n = min(abs(signed_binomial(1.0 - a, N + 1)) / math.gamma(3.0 - a)
              for a in (0.5 + 0.1 * DEFAULT_T0, 0.6))
    assert float(text) == pytest.approx(max(_TOL, _KERNEL_SHARE * e_n), rel=1e-13, abs=0.0)


class TestPde:
    def test_diffusion_run(self, tmp_path):
        out = tmp_path / "diff.csv"
        rc = main(
            ["pde-diffusion", "--order", "paper-beta", "--N", "3",
             "--mx", "10", "--mt", "20", "--out", str(out)]
        )
        assert rc == EXIT_OK
        meta, rows = _read_csv(out)
        assert meta[0].startswith("# equation=diffusion t0=")
        assert "max_err=" in meta[0]
        assert len(rows) == 11 * 21
        max_err = max(float(r["abs_err"]) for r in rows)
        declared = float(meta[0].split("max_err=")[1])
        assert max_err == pytest.approx(declared, rel=1e-12)
        for key in ("stepper=BDF", " tol=", "steps=", "nlu="):
            assert key in meta[0]
        _assert_header_tol(meta[0], 3)

    def test_degenerate_t0_is_config_error(self, tmp_path):
        # Grid1D rejects the flag value before any numerics run.
        for t0 in ("0.0", "1.5"):
            rc = main(
                ["pde-diffusion", "--order", "paper-beta",
                 "--t0", t0, "--out", str(tmp_path / "x.csv")]
            )
            assert rc == EXIT_CONFIG

    def test_burgers_run(self, tmp_path):
        out = tmp_path / "burg.csv"
        rc = main(
            ["pde-burgers", "--order", "paper-beta", "--N", "3",
             "--mx", "10", "--mt", "20", "--out", str(out)]
        )
        assert rc == EXIT_OK
        meta, rows = _read_csv(out)
        # The labels come from the CLI, which picked the problem.
        assert meta[0].startswith("# equation=burgers lateral_bc=dirichlet-from-exact-solution t0=")
        _assert_header_tol(meta[0], 3)


class TestExitCodeOrdering:
    def test_quadrature_error_maps_to_numerical(self, monkeypatch, tmp_path):
        # QuadratureError subclasses RuntimeError; the handler must classify
        # it as a numerical failure (3), not a config error (2).
        import varcaputo.cli as cli
        from varcaputo.reference import QuadratureError

        def boom(*a, **k):
            raise QuadratureError("forced")

        monkeypatch.setattr(cli, "approximate", boom)
        rc = main(["eval", "--t", "0.5", "--out", str(tmp_path / "x.csv")])
        assert rc == EXIT_NUMERICAL

    def test_arithmetic_error_maps_to_numerical(self, monkeypatch, tmp_path, capsys):
        # Any ArithmeticError out of the library is a numerical failure (3),
        # reported on one line rather than as a traceback.
        import varcaputo.cli as cli

        def boom(*a, **k):
            raise ZeroDivisionError("forced")

        monkeypatch.setattr(cli, "approximate", boom)
        rc = main(["eval", "--t", "0.5", "--out", str(tmp_path / "x.csv")])
        assert rc == EXIT_NUMERICAL
        assert capsys.readouterr().err.startswith("numerical failure: ")

    def test_memory_error_maps_to_config(self, monkeypatch, tmp_path, capsys):
        # A size the machine cannot allocate (pde-diffusion --mx 10000000
        # asks for 728 TiB) exits 2 with one line, not a traceback; the
        # handler raises here, so nothing is allocated.
        import varcaputo.cli as cli

        def boom(*a, **k):
            raise MemoryError("Unable to allocate 728. TiB for an array")

        monkeypatch.setattr(cli, "solve_diffusion", boom)
        rc = main(["pde-diffusion", "--out", str(tmp_path / "x.csv")])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == "error: out of memory: Unable to allocate 728. TiB for an array\n"
        assert not (tmp_path / "x.csv").exists()


class TestOutput:
    def test_missing_directory_is_config_error(self, tmp_path, capsys):
        rc = main(["eval", "--out", str(tmp_path / "missing" / "x.csv")])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: ")

    def test_figures_into_existing_file_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "taken"
        path.write_text("")
        assert main(["figures", "--points", "3", "--out", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: ")

    def test_closed_pipe_exits_quietly(self):
        # About 0.4 MB of rows, far beyond a 64 KiB pipe buffer, so the run is
        # still writing when the reader goes away after the first line.
        src = str(Path(varcaputo.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.Popen(
            [sys.executable, "-m", "varcaputo.cli", "pde-diffusion",
             "--N", "1", "--mx", "4", "--mt", "800"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.readline().startswith(b"# ")
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == EXIT_OK
        assert err == ""  # no traceback, and no other message either


class _ReadRecorder(argparse.Namespace):
    """A namespace that records which of its attributes are read."""

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "__dict__").setdefault("_reads", set()).add(name)
        return object.__getattribute__(self, name)


class TestFlags:
    @pytest.mark.parametrize("argv", [
        ["eval", "--t", "0.5"],
        ["convergence", "--points", "3"],
        ["figures", "--points", "3"],
        ["pde-diffusion", "--N", "1", "--mx", "4", "--mt", "4"],
        ["pde-burgers", "--N", "1", "--mx", "4", "--mt", "4"],
    ], ids=lambda argv: argv[0])
    def test_every_flag_is_read(self, tmp_path, argv):
        args = build_parser().parse_args(
            [*argv, "--out", str(tmp_path / "out")], namespace=_ReadRecorder()
        )
        vars(args).pop("_reads", None)
        assert args.func(args) == EXIT_OK
        reads = vars(args).pop("_reads")
        unread = set(vars(args)) - reads - {"func", "subcommand"}
        assert not unread, f"{argv[0]} accepts flags it never reads: {sorted(unread)}"

    @pytest.mark.parametrize("argv", [
        ["convergence", "--N", "3"],
        ["figures", "--n", "1"],
        ["figures", "--N", "3"],
        ["figures", "--kind", "1"],
        ["figures", "--side", "left"],
        ["pde-diffusion", "--n", "1"],
        ["pde-diffusion", "--tol", "1e-8"],
        ["pde-burgers", "--n", "1"],
        ["pde-burgers", "--tol", "1e-8"],
    ], ids=" ".join)
    def test_unread_flags_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_CONFIG
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag, default", [
        (["eval"], "tol", DEFAULT_TOL),
        (["convergence"], "tol", DEFAULT_TOL),
        (["figures", "--out", "figs"], "tol", DEFAULT_TOL),
        (["pde-diffusion"], "t0", DEFAULT_T0),
        (["pde-burgers"], "t0", DEFAULT_T0),
    ], ids=lambda v: v[0] if isinstance(v, list) else None)
    def test_defaults_are_the_library_constants(self, argv, flag, default):
        assert getattr(build_parser().parse_args(argv), flag) == default


#: Inputs of the ``eval`` sweep: admissible, degenerate and malformed values.
_SWEEP_ORDERS = ["paper-alpha", "paper-beta", "fig1-alpha", "0.2,0.3", "-0.5,0.9", "0,0.6",
                 "1.0,0.5", "0.5", "a,b", "nan,0.5", "inf,0", ""]
_SWEEP_GAMMAS = ["0.5", "1", "2", "3.5", "1e-12", "1e80", "1e300", "nan", "inf", "-1"]
_SWEEP_TS = ["0", "1", "1e-300", "1e-12", "1e-6", "0.5", "0.999999", "0.999999999999",
             "1.0000001", "-1e-9", "-0.5", "2", "nan"]


@st.composite
def eval_argv(draw):
    ts = draw(st.lists(st.sampled_from(_SWEEP_TS), min_size=0, max_size=2))
    return ["eval", f"--order={draw(st.sampled_from(_SWEEP_ORDERS))}",
            "--kind", str(draw(st.sampled_from([1, 2, 3]))),
            "--side", draw(st.sampled_from(["left", "right"])),
            "--n", str(draw(st.integers(1, 3))), "--N", str(draw(st.integers(1, 300))),
            f"--gamma-exp={draw(st.sampled_from(_SWEEP_GAMMAS))}", *(f"--t={t}" for t in ts)]


class TestEvalSweep:
    # Every argv either succeeds or fails with a typed error and its exit
    # code.  Whether the bound holds or is finite is not asserted: integer
    # gamma <= n gives a zero bound against a rounding error, and gamma < n+1
    # an infinite one.
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(argv=eval_argv())
    @example(argv=["eval", "--side", "right", "--gamma-exp=1e300"])  # bound was nan
    @example(argv=["eval", "--gamma-exp=1e308"])  # oracle was nan
    def test_exit_code_without_traceback_warning_or_nan(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            rc = main(argv)
        assert rc in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL)
        assert "Traceback" not in err.getvalue()
        assert not caught, [str(w.message) for w in caught]
        assert "nan" not in out.getvalue().lower()
