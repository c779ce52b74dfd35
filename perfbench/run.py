"""Run one benchmark workload and print its metrics; see README.md.

    python3 perfbench/run.py --workload file-bm2 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seconds 20     # every workload, each in a fresh process

The last line of a single-workload run is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Lines before it are a human-readable table and a ``detail:`` JSON line.
The exit code is 1 when any output check failed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import harness  # noqa: E402
from spans import Tracer  # noqa: E402
from stats import Tally  # noqa: E402

#: Workload name -> module implementing it.
WORKLOADS = {
    "file-bm2": "file_bm2",
    "sharded-crr": "sharded_crr",
    "service-mix": "service_mix",
    "stream-churn": "stream_churn",
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="omit to run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0, help="run length; sets the fixed round count")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="shrink every input (tests use tiny sizes)")
    return parser


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: float) -> int:
    module = importlib.import_module(WORKLOADS[name])
    workdir = HERE / "_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tally = Tally()
    try:
        inputs = module.prepare(workdir, seed, scale)
        if trace:
            metrics, units, detail = _traced(module, inputs, tally, HERE / "_work" / f"trace-{name}-{seed}.json")
        else:
            rounds = harness.measure(module, inputs, seconds, tally)
            metrics, detail = harness.end_to_end(rounds)
            units = harness.END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    detail["error_rate"] = tally.error_rate
    detail["failures"] = dict(tally.reasons)
    _print_table(name, metrics, units, detail)
    print("detail: " + json.dumps(detail, sort_keys=True, default=str))
    print(json.dumps(harness.result_line(metrics, units, tally)))
    return 0 if tally.failed == 0 else 1


def _traced(module, inputs, tally, trace_path: Path):
    """One untraced pass, then the traced replay, which must agree with it."""
    untraced = module.run_round(inputs)
    module.check_round(inputs, untraced, tally, first=True)
    tracer = Tracer()
    layers, window, problems = module.traced(inputs, tracer, untraced)
    tracer.write_chrome(trace_path)
    metrics = harness.per_layer(layers, tracer, window, untraced.wall_s)
    covered = 1.0 - metrics["unattributed_share"]
    if covered < getattr(module, "MIN_SPAN_COVERAGE", 0.0):
        problems.append(f"layer spans cover {covered:.1%} of the traced wall clock")
    tally.record(not problems, "; ".join(problems))
    detail = {
        "trace_file": str(trace_path.relative_to(ROOT)),
        "spans": len(tracer.spans),
        "untraced_wall_s": untraced.wall_s,
        "guards": untraced.guards,
    }
    return metrics, harness.PER_LAYER, detail


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.4g}"


def _print_table(name, metrics, units, detail) -> None:
    print(f"workload {name}: {detail.get('rounds', 1)} round(s), error rate {detail['error_rate']:.4g}")
    counts = {}
    if "rounds" in detail:
        rounds = detail["rounds"]
        counts = {
            "setup_s": rounds,
            "throughput_per_s": rounds,
            "peak_rss_mb": 1,
            "avg_delta": 1,
        }
    for metric, unit in units.items():
        samples = counts.get(metric)
        suffix = f"  (n={samples})" if samples is not None else ""
        print(f"  {metric:<28} {_fmt(metrics[metric]):>12} {unit}{suffix}")
    if "rounds" in detail:
        print(f"  {'setup_wall_s':<28} {_fmt(detail['setup_wall_s']):>12} s  (n={rounds})")
        print(f"  {'throughput_per_wall_s':<28} {_fmt(detail['throughput_per_wall_s']):>12} 1/s  (n={rounds})")
        print(f"  {'throughput_per_cpu_s':<28} {_fmt(detail['throughput_per_cpu_s']):>12} 1/s  (n={rounds})")
        print(f"  {'latency_p50_ms':<28} {_fmt(detail['latency_p50_ms']):>12} ms  (n={detail['latency_ms']['n']})")
    for key in ("latency_ms", "hit_latency_ms"):
        if key in detail:
            summary = detail[key]
            print(
                f"  {key:<28} n={summary['n']} p50={_fmt(summary['p50'])} "
                f"p90={_fmt(summary['p90'])} p99={_fmt(summary['p99'])} max={_fmt(summary['max'])}"
            )


def run_all(args) -> int:
    """Every workload in its own process, so peak memory is per workload."""
    status = 0
    for name in WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--scale", str(args.scale),
        ]
        started = time.perf_counter()
        completed = subprocess.run(command, capture_output=True, text=True, check=False)
        lines = completed.stdout.splitlines()
        print("\n".join(line for line in lines[:-1] if not line.startswith("detail: ")))
        print(f"  ({time.perf_counter() - started:.1f} s, exit {completed.returncode})")
        if completed.returncode != 0:
            sys.stderr.write(completed.stderr)
            status = 1
    return status


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)


if __name__ == "__main__":
    sys.exit(main())
