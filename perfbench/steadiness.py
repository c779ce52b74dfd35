"""Steadiness report: repeat runs across seeds and summarise each metric.

    python3 perfbench/steadiness.py --workload service-mix --seeds 5 --seconds 10
    python3 perfbench/steadiness.py --seeds 10 --repeat-seed --trace

For each workload it runs ``run.py`` once per seed (each in a fresh
process) and prints, per end-to-end metric, the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, which is the
distance between the quartiles as a share of the median.
``--repeat-seed`` runs the first seed a second time and asserts that
its exact-repeat guards (Δ/|V|, kept edges, computes and hits, applied
ops, shard sizes and partition method) came out identical, and that
every seed's guards differ.  ``--trace`` adds one traced run of the
first seed and reports its tracing overhead (traced wall minus untraced
wall) and unattributed share.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
WORKLOADS = ("file-bm2", "sharded-crr", "service-mix", "stream-churn")


def run_once(workload: str, seed: int, seconds: float, trace: int) -> Tuple[dict, dict]:
    """One run in a fresh process: (result line, detail line)."""
    completed = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=False,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise SystemExit(
            f"{workload} seed {seed} trace {trace} exited {completed.returncode}:\n"
            f"{completed.stdout[-2000:]}\n{completed.stderr[-4000:]}"
        )
    detail = next(json.loads(line[len("detail: "):]) for line in lines if line.startswith("detail: "))
    return json.loads(lines[-1]), detail


def spread(values: List[float]) -> Dict[str, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2 if q2 else float("inf")}


def report(workload: str, seeds: List[int], seconds: float, repeat_seed: bool, trace: bool) -> bool:
    results = []
    guards = []
    for seed in seeds:
        result, detail = run_once(workload, seed, seconds, 0)
        results.append(result)
        guards.append(json.dumps(detail["guards"], sort_keys=True))
        print(f"  seed {seed}: " + " ".join(
            f"{name}={m['value']:.6g}" for name, m in result["metrics"].items()
        ), flush=True)
    ok = all(r["correct"] for r in results)
    print(f"{workload}: {len(seeds)} seeds, all correct: {ok}")
    for name in results[0]["metrics"]:
        stats = spread([r["metrics"][name]["value"] for r in results])
        print(
            f"  {name:<20} median {stats['median']:.6g}  q1 {stats['q1']:.6g}  "
            f"q3 {stats['q3']:.6g}  spread {stats['spread']:.2%}"
        )
    if len(set(guards)) != len(guards):
        print("  FAIL: two seeds produced identical exact-repeat guards")
        ok = False
    if repeat_seed:
        _, detail = run_once(workload, seeds[0], seconds, 0)
        same = json.dumps(detail["guards"], sort_keys=True) == guards[0]
        print(f"  seed {seeds[0]} repeated: guards identical: {same}")
        ok = ok and same
    if trace:
        result, detail = run_once(workload, seeds[0], seconds, 1)
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        same = json.dumps(detail["guards"], sort_keys=True) == guards[0]
        print(
            f"  traced seed {seeds[0]}: correct {result['correct']}, guards identical: {same}, "
            f"wall {metrics['trace.wall_s']:.3f} s, overhead {metrics['trace.overhead_s']:+.3f} s, "
            f"unattributed {metrics['unattributed_s']:.3f} s "
            f"({metrics['unattributed_share']:.2%})"
        )
        ok = ok and same and result["correct"]
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="steadiness of the benchmark across seeds")
    parser.add_argument("--workload", choices=WORKLOADS, action="append")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--repeat-seed", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    seeds = list(range(1, args.seeds + 1))
    ok = True
    for workload in args.workload or WORKLOADS:
        ok = report(workload, seeds, args.seconds, args.repeat_seed, args.trace) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
