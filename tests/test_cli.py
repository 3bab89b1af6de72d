import csv
import math

import pytest

from varcaputo.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    ConfigError,
    main,
    parse_order,
)


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
        with pytest.raises(ConfigError):
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

    def test_bad_order_is_config_error(self, tmp_path):
        rc = main(["eval", "--order", "9,9", "--out", str(tmp_path / "x.csv")])
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize("argv", [
        ["--kind", "1", "--N", "32", "--t", "1e-6"],  # raw moments dist^(p+1) underflow
        ["--N", "200"],  # 200! exceeds double range
    ], ids=["tiny-distance", "N200"])
    def test_extreme_inputs_are_certified(self, tmp_path, argv):
        out = tmp_path / "x.csv"
        rc = main(["eval", *argv, "--out", str(out)])
        assert rc == EXIT_OK
        _, rows = _read_csv(out)
        assert float(rows[0]["observed_error"]) <= float(rows[0]["certified_bound"])


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


class TestPde:
    def test_diffusion_run(self, tmp_path):
        out = tmp_path / "diff.csv"
        rc = main(
            ["pde-diffusion", "--order", "paper-beta", "--N", "3",
             "--mx", "10", "--mt", "20", "--out", str(out)]
        )
        assert rc == EXIT_OK
        meta, rows = _read_csv(out)
        assert "max_err=" in meta[0]
        assert len(rows) == 11 * 21
        max_err = max(float(r["abs_err"]) for r in rows)
        declared = float(meta[0].split("max_err=")[1])
        assert max_err == pytest.approx(declared, rel=1e-12)
        for key in ("stepper=BDF", "steps=", "nfev=", "njev=", "nlu="):
            assert key in meta[0]

    def test_degenerate_t0_is_numerical_failure(self, tmp_path):
        rc = main(
            ["pde-diffusion", "--order", "paper-beta",
             "--t0", "0.0", "--out", str(tmp_path / "x.csv")]
        )
        assert rc == EXIT_NUMERICAL

    def test_burgers_run(self, tmp_path):
        out = tmp_path / "burg.csv"
        rc = main(
            ["pde-burgers", "--order", "paper-beta", "--N", "3",
             "--mx", "10", "--mt", "20", "--out", str(out)]
        )
        assert rc == EXIT_OK
        meta, rows = _read_csv(out)
        assert "lateral_bc=" in meta[0]


class TestExitCodeOrdering:
    def test_quadrature_error_maps_to_numerical(self, monkeypatch, tmp_path):
        # QuadratureError subclasses ValueError; the handler must classify it
        # as a numerical failure (3), not a config error (2).
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
