"""The shared measuring loop, metric tables and result assembly.

A workload module provides:

* ``prepare(workdir, seed, scale)`` -> inputs, generated from the seed;
* ``run_round(inputs)`` -> :class:`Round`, one deterministic pass of the
  workload through the public API, timed with tracing off;
* ``check_round(inputs, round, tally, first)``: output checks, counted
  per unit in the tally (``first`` asks for the costly ones);
* ``traced(inputs, tracer, untraced_round)`` -> ``(layers, window,
  problems)``: per-layer metrics of one traced replay, the replay's
  wall-clock window, and any way it disagreed with the untraced round;
* ``NOMINAL_ROUND_S``: the round's usual length, which sets how many
  rounds fill ``--seconds``;
* optionally ``MIN_SPAN_COVERAGE``: the share of the traced window the
  layer spans must cover, else the traced run fails.

The round count depends on ``--seconds`` only, and every round of one
seed must repeat round 1's guards exactly, so timing never decides which
work is done.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from stats import Tally, cpu_seconds, describe, peak_rss_mb, percentile, vcpu_ticks

#: End-to-end metrics (tracing off): name -> unit.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
    "avg_delta": "ratio",
}

#: Per-layer metrics (traced run): name -> unit.  Layers a workload does
#: not call read 0.
PER_LAYER: Dict[str, str] = {
    "graph.io.read_s": "s",
    "graph.csr.snapshot_s": "s",
    "graph.csr.bytes": "bytes",
    "core.bm2.phases_s": "s",
    "core.bm2.phase1_s": "s",
    "core.bm2.phase2_s": "s",
    "core.bm2.phase2_candidates": "count",
    "core.bm2.phase2_pruned": "count",
    "graph.csr.materialize_s": "s",
    "core.discrepancy.delta_s": "s",
    "graph.io.write_s": "s",
    "shard.partition_s": "s",
    "shard.boundary_share": "ratio",
    "shard.edge_imbalance": "ratio",
    "shard.partition_fallback": "count",
    "core.crr.rank_s": "s",
    "core.crr.rewire_s": "s",
    "core.crr.accepted_swaps": "count",
    "shard.reconcile_s": "s",
    "graph.parallel.efficiency": "ratio",
    "service.store.key_s": "s",
    "service.store.get_s": "s",
    "service.store.put_s": "s",
    "service.store.hits_memory": "count",
    "service.store.hits_disk": "count",
    "service.store.computes": "count",
    "service.resolve_s": "s",
    "service.queue_wait_s": "s",
    "service.execute_s": "s",
    "sessions.open_s": "s",
    "sessions.submit_s": "s",
    "sessions.flush_wait_s": "s",
    "dynamic.apply_ops_s": "s",
    "dynamic.applied": "count",
    "dynamic.admitted": "count",
    "dynamic.evicted": "count",
    "dynamic.rebuilds": "count",
    "unattributed_s": "s",
    "unattributed_share": "ratio",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Round:
    """One pass of a workload, timed with tracing off."""

    #: Set-up before the first unit of work could run, in wall seconds
    #: and in CPU seconds (see :func:`stats.cpu_seconds`).
    setup_s: float
    setup_cpu_s: float
    #: Wall seconds per unit (file-to-artifact pass, request, or batch).
    latencies: List[float]
    #: Units of work (edges, requests or ops) per wall second and per CPU
    #: second over the round's work.
    rate: float
    cpu_rate: float
    #: Share of the busy CPU time over the work that the host stole, and
    #: units per wall second with that share taken out of the wall clock.
    steal_share: float
    net_rate: float
    #: Wall clock of the whole round, set-up included.
    wall_s: float
    avg_delta: float
    #: Values that must repeat exactly for a seed (exact-repeat guards).
    guards: Dict[str, Any]
    #: Extra latency samples by name (e.g. cache hits only).
    samples: Dict[str, List[float]] = field(default_factory=dict)
    #: Objects the checks need; dropped after checking.
    keep: Dict[str, Any] = field(default_factory=dict)


def stamp() -> Tuple[float, float, Tuple[int, int]]:
    """Now, as (wall seconds, CPU seconds, (busy, stolen) CPU ticks)."""
    return time.perf_counter(), cpu_seconds(), vcpu_ticks()


def timing(started, loaded, done, work: float, work_from=None) -> Dict[str, float]:
    """A round's timing fields from three :func:`stamp` values.

    Set-up runs from ``started`` to ``loaded``; the ``work`` units are
    measured from ``work_from`` (default ``loaded``) to ``done``.
    """
    work_from = loaded if work_from is None else work_from
    busy = done[2][0] - work_from[2][0]
    stolen = done[2][1] - work_from[2][1]
    steal_share = stolen / (busy + stolen) if busy + stolen else 0.0
    return {
        "setup_s": loaded[0] - started[0],
        "setup_cpu_s": loaded[1] - started[1],
        "rate": work / (done[0] - work_from[0]),
        "cpu_rate": work / (done[1] - work_from[1]),
        "steal_share": steal_share,
        "net_rate": work / ((done[0] - work_from[0]) * (1.0 - steal_share)),
        "wall_s": done[0] - started[0],
    }


def round_count(module, seconds: float) -> int:
    """Rounds that fill ``seconds`` at the workload's nominal round length.

    A function of ``--seconds`` alone, never of measured time, so every
    run of a seed does the same work.
    """
    return max(1, round(seconds / module.NOMINAL_ROUND_S))


def measure(module, inputs, seconds: float, tally: Tally) -> List[Round]:
    """Run and check :func:`round_count` rounds."""
    rounds: List[Round] = []
    for _ in range(round_count(module, seconds)):
        current = module.run_round(inputs)
        module.check_round(inputs, current, tally, first=not rounds)
        if rounds and current.guards != rounds[0].guards:
            tally.fail("round differs from round 1 of the same seed")
        current.keep.clear()
        rounds.append(current)
    return rounds


def end_to_end(rounds: List[Round]) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """The end-to-end metrics over all rounds, and the printed detail.

    Every timing is a median over rounds (latency: of per-round medians),
    so one slow round does not move it.  Set-up is gated in CPU seconds,
    which CPU stolen by the host does not inflate.  Throughput is gated
    per wall second net of steal (the wall clock of the work times the
    share of busy CPU time the host did not steal), which, unlike CPU
    seconds, still sees waiting and lost parallelism.  The raw wall-clock
    and per-CPU-second forms and the wall-clock latency are printed in
    the detail, ungated.
    """
    latencies = [x for r in rounds for x in r.latencies]
    memory = peak_rss_mb()
    metrics = {
        "setup_s": statistics.median([r.setup_cpu_s for r in rounds]),
        "throughput_per_s": statistics.median([r.net_rate for r in rounds]),
        "peak_rss_mb": memory["total"],
        "avg_delta": rounds[0].avg_delta,
    }
    detail: Dict[str, Any] = {
        "rounds": len(rounds),
        "setup_wall_s": statistics.median([r.setup_s for r in rounds]),
        "throughput_per_wall_s": statistics.median([r.rate for r in rounds]),
        "throughput_per_cpu_s": statistics.median([r.cpu_rate for r in rounds]),
        "latency_p50_ms": statistics.median([percentile(r.latencies, 50) for r in rounds]) * 1e3,
        "cpu_rates": [r.cpu_rate for r in rounds],
        "wall_rates": [r.rate for r in rounds],
        "net_rates": [r.net_rate for r in rounds],
        "steal_shares": [r.steal_share for r in rounds],
        "peak_rss_mb": memory,
        "latency_ms": describe(latencies, 1e3),
        "round_wall_s": [r.wall_s for r in rounds],
        "guards": rounds[0].guards,
    }
    for name in rounds[0].samples:
        detail[f"{name}_ms"] = describe([x for r in rounds for x in r.samples[name]], 1e3)
    return metrics, detail


def per_layer(
    layers: Dict[str, float], tracer, window: Tuple[float, float], untraced_wall: float
) -> Dict[str, float]:
    """Fill every per-layer metric; unnamed layers read 0.

    ``unattributed_s`` is the part of the traced window no span covers.
    """
    start, end = window
    wall = end - start
    unattributed = wall - tracer.covered(start, end)
    metrics = {name: 0.0 for name in PER_LAYER}
    metrics.update(layers)
    metrics["unattributed_s"] = unattributed
    metrics["unattributed_share"] = unattributed / wall if wall > 0 else 0.0
    metrics["trace.wall_s"] = wall
    metrics["trace.overhead_s"] = wall - untraced_wall
    return metrics


def result_line(
    metrics: Dict[str, float], units: Dict[str, str], tally: Tally
) -> Dict[str, Any]:
    """The JSON object printed as the last line of a run."""
    return {
        "correct": tally.failed == 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }
