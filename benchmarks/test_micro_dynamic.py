"""Micro-benchmark: incremental Δ-maintenance vs periodic full re-shedding.

This is the PR's acceptance measurement: replay a seeded 10k-op mixed
churn workload against a seeded Erdos-Renyi graph two ways —

* **incremental** — one :class:`~repro.dynamic.IncrementalShedder`
  (BM2-seeded) absorbing every op with capacity-gated admission plus
  localized repair;
* **rebuild baseline** — apply the same ops to a plain graph copy and run
  a full offline BM2 every ``REBUILD_EVERY`` (100) ops, the cheapest
  "keep it fresh" policy that does not maintain anything incrementally.

Hard assertions: at every checkpoint the incremental tracker's ``Δ`` is
**bit-identical** to a from-scratch ``compute_delta`` on its live graphs,
and the incremental path's final ``Δ`` matches the rebuild baseline's
final ``Δ`` within ``QUALITY_TOLERANCE``.  The wall-clock gate follows
the ``test_micro_shedding`` convention: fail only below a conservative
2x floor; missing the 5x acceptance target warns instead of breaking a
noisy runner.  Numbers land in ``BENCH_PR3.json`` and a BenchReport.

The quick profile runs the 2k-node graph; ``REPRO_BENCH_FULL=1`` adds the
10k-node one.
"""

from __future__ import annotations

import json
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.bench.harness import BenchReport
from repro.core import BM2Shedder, compute_delta
from repro.dynamic import IncrementalShedder, mixed_churn
from repro.graph import erdos_renyi

REPO_ROOT = Path(__file__).resolve().parent.parent

ACCEPT_SEED = 42
ACCEPT_P = 0.5
NUM_OPS = 10_000
REBUILD_EVERY = 100
CHECKPOINT_EVERY = 1000
#: Incremental final Δ must be within this factor of the rebuild baseline's.
QUALITY_TOLERANCE = 1.25
#: Hard CI floor (noise-tolerant) vs advisory acceptance target.
SPEEDUP_FLOOR, SPEEDUP_TARGET = 2.0, 5.0

#: (nodes, edges) profiles; the larger one only runs under REPRO_BENCH_FULL=1.
QUICK_SIZES = [(2000, 10_000)]
FULL_SIZES = [(2000, 10_000), (10_000, 50_000)]


def _check_speedup(label: str, speedup: float) -> None:
    assert speedup >= SPEEDUP_FLOOR, (
        f"{label}: incremental maintenance only {speedup:.2f}x faster than "
        f"rebuild-every-{REBUILD_EVERY} (hard floor {SPEEDUP_FLOOR}x)"
    )
    if speedup < SPEEDUP_TARGET:
        warnings.warn(
            f"{label}: speedup {speedup:.2f}x is below the {SPEEDUP_TARGET}x "
            "acceptance target (advisory; likely a noisy runner)",
            stacklevel=2,
        )


def _record(section: str, payload: dict) -> None:
    """Merge one profile's numbers into BENCH_PR3.json (order-independent)."""
    path = REPO_ROOT / "BENCH_PR3.json"
    data = (
        json.loads(path.read_text(encoding="utf-8"))
        if path.exists()
        else {"experiment": "micro_dynamic"}
    )
    data[section] = payload
    path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")


def _make_graph(nodes: int, edges: int):
    density = 2 * edges / (nodes * (nodes - 1))
    return erdos_renyi(nodes, density, seed=ACCEPT_SEED)


def _run_incremental(graph, ops):
    """Replay through IncrementalShedder; checkpoint Δ must be bit-identical."""
    shed = IncrementalShedder(graph, ACCEPT_P, seed=ACCEPT_SEED)
    latencies = []
    start = time.perf_counter()
    for index, op in enumerate(ops, start=1):
        op_start = time.perf_counter()
        shed.apply(op)
        latencies.append(time.perf_counter() - op_start)
        if index % CHECKPOINT_EVERY == 0:
            live = shed.delta
            scratch = compute_delta(shed.graph, shed.reduced, ACCEPT_P)
            assert live == scratch, (
                f"checkpoint at op {index}: live delta {live!r} is not "
                f"bit-identical to compute_delta {scratch!r}"
            )
    elapsed = time.perf_counter() - start
    return shed, elapsed, np.asarray(latencies)


def _run_rebuild_baseline(graph, ops):
    """Apply ops to a plain copy; full BM2 every REBUILD_EVERY ops."""
    live = graph.copy()
    shedder = BM2Shedder()
    reduced = None
    rebuilds = 0
    start = time.perf_counter()
    for index, (kind, u, v) in enumerate(ops, start=1):
        if kind == "insert":
            live.add_edge(u, v)
        else:
            live.remove_edge(u, v)
        if index % REBUILD_EVERY == 0:
            reduced = shedder.reduce(live, ACCEPT_P).reduced
            rebuilds += 1
    if reduced is None or NUM_OPS % REBUILD_EVERY != 0:
        reduced = shedder.reduce(live, ACCEPT_P).reduced
        rebuilds += 1
    elapsed = time.perf_counter() - start
    return live, reduced, elapsed, rebuilds


@pytest.mark.slow
def test_incremental_beats_periodic_rebuild(quick, archive_report):
    sizes = QUICK_SIZES if quick else FULL_SIZES
    rows = []
    for nodes, edges in sizes:
        graph = _make_graph(nodes, edges)
        label = f"ER n={graph.num_nodes} m={graph.num_edges}"
        ops = mixed_churn(graph, NUM_OPS, seed=ACCEPT_SEED)

        shed, inc_seconds, latencies = _run_incremental(graph.copy(), ops)
        base_graph, base_reduced, base_seconds, rebuilds = _run_rebuild_baseline(
            graph, ops
        )

        # Both paths saw the same ops, so the final originals must agree.
        assert shed.graph.num_edges == base_graph.num_edges
        inc_delta = shed.delta
        base_delta = compute_delta(base_graph, base_reduced, ACCEPT_P)
        assert inc_delta <= base_delta * QUALITY_TOLERANCE, (
            f"{label}: incremental final delta {inc_delta:.1f} worse than "
            f"{QUALITY_TOLERANCE}x the rebuild baseline's {base_delta:.1f}"
        )

        speedup = base_seconds / inc_seconds
        _check_speedup(label, speedup)

        micros = latencies * 1e6
        payload = {
            "graph": {
                "generator": "erdos_renyi",
                "nodes": graph.num_nodes,
                "edges": graph.num_edges,
                "seed": ACCEPT_SEED,
                "p": ACCEPT_P,
            },
            "ops": NUM_OPS,
            "rebuild_every": REBUILD_EVERY,
            "incremental_seconds": round(inc_seconds, 4),
            "baseline_seconds": round(base_seconds, 4),
            "speedup": round(speedup, 2),
            "latency_us": {
                "p50": round(float(np.percentile(micros, 50)), 1),
                "p90": round(float(np.percentile(micros, 90)), 1),
                "p99": round(float(np.percentile(micros, 99)), 1),
            },
            "incremental_delta": inc_delta,
            "baseline_delta": base_delta,
            "baseline_rebuilds": rebuilds,
            "drift_rebuilds": shed.stats["rebuilds"],
            "checkpoint_delta_bit_identical": True,
        }
        _record(f"n{nodes}", payload)
        rows.append(
            [
                label,
                base_seconds,
                inc_seconds,
                speedup,
                inc_delta,
                base_delta,
            ]
        )

    report = BenchReport(
        experiment_id="micro_dynamic",
        title=f"Incremental maintenance vs full BM2 every {REBUILD_EVERY} ops "
        f"({NUM_OPS}-op mixed churn)",
        headers=[
            "graph",
            "rebuild s",
            "incremental s",
            "speedup",
            "inc delta",
            "rebuild delta",
        ],
        rows=rows,
        notes=[
            "Checkpoint deltas every "
            f"{CHECKPOINT_EVERY} ops are bit-identical to compute_delta.",
            f"Quality gate: incremental final delta within {QUALITY_TOLERANCE}x "
            "of the rebuild baseline's.",
            f"p = {ACCEPT_P}, BM2 seeds, mixed churn seed = {ACCEPT_SEED}.",
        ],
    )
    archive_report(report)
