"""Benchmark of the varcaputo package over its expansion, quadrature and
PDE layers.

    python3 bench/run.py --workload expansion-grid --seed 1 --seconds 12 --trace 0

Run it from the root of a checkout: the package is imported from ``src/``
there and nowhere else.  With ``--trace 0`` the last line of standard output
is a JSON object with the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a separate traced run.  Full results and the spans are
written to ``bench/out/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import exact
import hostspeed
import layers
import workloads
from spans import NULL_TRACER, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

#: Timings are medians over at least this many passes: with three, one
#: pass slowed by the host cannot set the median of a long pde-mol run.
MIN_PASSES = 3
SETUP_SAMPLES = 5
SUBPROCESS_TIMEOUT_S = 60

#: Prints the raw set-up time and the set-up time scaled to the reference
#: host speed by calibrations taken right after it.
SETUP_CODE = """
import sys, time
sys.path[:0] = [{src!r}, {bench!r}]
start = time.perf_counter()
import varcaputo
imported = time.perf_counter()
import workloads, hostspeed, statistics
built = time.perf_counter()
workloads.build(varcaputo, {name!r}, {seed}, {tiny})
raw = imported - start + time.perf_counter() - built
task = statistics.median(hostspeed.task_seconds() for _ in range(3))
print(raw, raw * hostspeed.REFERENCE_S / task)
"""


@dataclass
class Profile:
    """What the per-layer metrics need from one workload: its operations,
    its counting pass and the results of its last traced pass."""

    workload: object
    counting: object
    results: list


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("expansion-grid", "quadrature-panels", "pde-mol"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs and a single pass, for the self-test")
    return parser.parse_args(argv)


def require_source() -> None:
    if not (SRC / "varcaputo" / "__init__.py").is_file():
        sys.exit(f"bench/run.py: no package at {SRC / 'varcaputo'}; run from a checkout")


def find_package():
    """Import varcaputo from the checkout's src/, or exit with an error."""
    require_source()
    sys.path.insert(0, str(SRC))
    import varcaputo

    if Path(varcaputo.__file__).resolve().parent != SRC / "varcaputo":
        sys.exit(f"bench/run.py: imported varcaputo from {varcaputo.__file__}, not {SRC}")
    return varcaputo


def setup_seconds(args) -> tuple[float, float]:
    """Median time, over fresh interpreters, to import the package and build
    the inputs: raw, and scaled to the reference host speed."""
    code = SETUP_CODE.format(src=str(SRC), bench=str(BENCH), name=args.workload,
                             seed=args.seed, tiny=args.tiny)
    raw, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                              text=True, check=True, timeout=SUBPROCESS_TIMEOUT_S)
        r, s = map(float, done.stdout.split())
        raw.append(r)
        scaled.append(s)
    return statistics.median(raw), statistics.median(scaled)


def profile(w, tracer, min_passes, seconds=0.0, alternate=False, speed=None):
    """Counting pass, then timed passes until ``seconds`` have passed.

    With ``alternate`` the timed passes alternate untraced and traced, so the
    tracing overhead can be read off; otherwise every timed pass is traced
    by ``tracer`` (which may be the null tracer).  With ``speed`` the host
    speed is calibrated during the timed passes and once after them.  Every
    pass is checked.
    """
    counter = workloads.Counter()
    counting = workloads.checked(w, workloads.run_pass(w, w.callables(counter), counter=counter))
    counting.results = None
    counted = counter.snapshot()
    fns = w.callables()
    passes, results = [], None
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        if alternate and len(passes) % 2 == 0:
            p = workloads.run_pass(w, fns)  # untraced
        else:
            p = workloads.run_pass(w, fns, tracer, speed=speed)
        workloads.checked(w, p)
        if p.traced:
            results = p.results
        p.results = None
        passes.append(p)
    if speed is not None:
        speed.measure()
    if counter.snapshot() != counted:
        raise workloads.CheckError("the timed passes called the counting wrappers")
    return passes, Profile(w, counting, results)


def end_to_end(vc, args, setup):
    """The end-to-end metrics; times are scaled to the reference host speed."""
    w = workloads.build(vc, args.workload, args.seed, args.tiny)
    w.references()
    speed = hostspeed.HostSpeed()
    passes, prof = profile(w, NULL_TRACER, 1 if args.tiny else MIN_PASSES, args.seconds,
                           speed=speed)
    scaled = [[dt * speed.scale(t0) for dt, t0 in zip(p.times, p.starts)] for p in passes]
    # The quantiles are over the successful operations of a pass, each taken
    # at its median time over the passes, so no single slow pass sets them.
    ok_ops = [i for i, ok in enumerate(passes[0].ok) if ok]
    op_ms = [statistics.median(times[i] for times in scaled) * 1e3 for i in ok_ops]
    raw_ms = [statistics.median(p.times[i] for p in passes) * 1e3 for i in ok_ops]
    p50, p90 = np.percentile(op_ms, [50, 90])
    metrics = {
        "setup_s": (setup[1], "s"),
        "wall_s": (statistics.median(sum(times) for times in scaled), "s"),
        "op_p50_ms": (float(p50), "ms"),
        "op_p90_ms": (float(p90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "fn_evals": (sum(prof.counting.counts[-1].values()), "count"),
        "max_abs_dev": (max(p.deviation for p in passes), "1"),
    }
    raw = {
        "setup_s": setup[0],
        "wall_s": statistics.median(sum(p.times) for p in passes),
        "op_p50_ms": float(np.percentile(raw_ms, 50)),
        "op_p90_ms": float(np.percentile(raw_ms, 90)),
        "calibration_s": statistics.median(speed.durations),
    }
    return passes, metrics, {"passes": len(passes), "op_samples": len(op_ms), "raw": raw}


def per_layer(vc, args):
    tracer = Tracer()
    profiles, named = {}, None
    for name in workloads.WORKLOADS:
        w = workloads.build(vc, name, args.seed, args.tiny)
        w.references()
        if name == args.workload:
            named, profiles[name] = profile(w, tracer, 2, args.seconds, alternate=True)
        else:
            _, profiles[name] = profile(w, tracer, 1)
    m = layers.collect(vc, ROOT, tracer, profiles)
    untraced = statistics.median(p.wall for p in named if not p.traced)
    traced = statistics.median(p.wall for p in named if p.traced)
    m.put("trace.overhead_s", traced - untraced, "s")
    tracer.write(OUT / f"{args.workload}-seed{args.seed}-spans.json")
    extra = {"passes": len(named), "untraced_wall_s": untraced, "traced_wall_s": traced,
             "absent": m.absent}
    if m.absent:
        print(f"absent per-layer metrics: {', '.join(m.absent)}", file=sys.stderr)
    return named, m.values, extra


def main(argv=None) -> int:
    args = parse_args(argv)
    require_source()
    setup = None if args.trace else setup_seconds(args)
    vc = find_package()
    exact.self_check()
    OUT.mkdir(exist_ok=True)
    try:
        if args.trace:
            passes, metrics, extra = per_layer(vc, args)
        else:
            passes, metrics, extra = end_to_end(vc, args, setup)
        correct = True
    except workloads.CheckError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        passes, metrics, extra, correct = [], {}, {"error": str(exc)}, False
    attempted = sum(len(p.times) for p in passes) if passes else 1
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": sum(p.failed for p in passes),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, python=platform.python_version(), numpy=np.__version__,
                  scipy=scipy.__version__, nproc=os.cpu_count(), **extra)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
