"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest bench/test_bench.py

Runs one pass of each workload through the command line and checks that the
result names every metric of BENCHMARK.json with its unit, together with the
attempted and failed counts.  Also checks the exact reference on its own.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import exact  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def assert_result(done: subprocess.CompletedProcess, metrics: list[dict]) -> dict:
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    assert set(result["metrics"]) == {m["name"] for m in metrics}
    for m in metrics:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result = assert_result(run_bench(workload, 0), SPEC["end_to_end"])
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["value"] > 0, m["name"]
    # One pass; only its four dist = 1e-6 type I/II grid operations fail.
    assert result["failed"] == (4 if workload == "expansion-grid" else 0)


def test_per_layer_metrics():
    assert_result(run_bench("expansion-grid", 1), SPEC["per_layer"])


def test_refuses_without_package(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__", "out"))
    done = run_bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_closed_forms_match_definitions():
    exact.self_check()
    for kind in exact.KINDS:
        for side in exact.SIDES:
            want = exact.caputo_power_by_definition(kind, side, 2.0, 0.5, 0.49, 0.3)
            got = exact.caputo_power(kind, side, 2.0, 0.5, 0.49, 0.3)
            assert abs(got - want) <= 1e-10 * abs(want), (kind, side)
