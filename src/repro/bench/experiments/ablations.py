"""Ablation experiments for the design choices DESIGN.md calls out.

Not part of the paper's evaluation, but each isolates one ingredient of
CRR or BM2:

* ``run_rewiring_budget`` — CRR Δ as a function of the steps factor
  (complements Figure 4 with the x = 0 "no rewiring" point).
* ``run_initial_ranking`` — betweenness-ranked vs random initial edge set
  in CRR Phase 1: what the ranking costs in Δ and buys in connectivity.
* ``run_bm2_rounding`` — BM2 capacity rounding rule (half-up / half-even /
  floor / ceil).
* ``run_bm2_edge_order`` — BM2 Phase 1 edge scan order (input vs random).
* ``run_sampled_betweenness`` — CRR quality as the Phase 1 betweenness
  estimator gets cheaper (exact vs k sampled sources).
"""

from __future__ import annotations

from repro.bench.harness import BenchReport, ReductionCache, quick_scales
from repro.core.bm2 import BM2Shedder
from repro.core.crr import CRRShedder
from repro.graph.traversal import largest_component

__all__ = [
    "run_rewiring_budget",
    "run_initial_ranking",
    "run_bm2_rounding",
    "run_bm2_edge_order",
    "run_sampled_betweenness",
]

_DATASET = "ca-grqc"


def _graph(quick: bool, seed: int):
    scales = quick_scales() if quick else {_DATASET: None}
    return ReductionCache(seed=seed).graph(_DATASET, scales.get(_DATASET))


def run_rewiring_budget(quick: bool = True, seed: int = 0, p: float = 0.5) -> BenchReport:
    """Ablation: CRR delta as a function of the rewiring steps factor."""
    graph = _graph(quick, seed)
    rows = []
    for factor in (0.0, 1.0, 4.0, 10.0):
        shedder = CRRShedder(steps_factor=factor, num_betweenness_sources=64, seed=seed)
        result = shedder.reduce(graph, p)
        rows.append(
            [factor, result.average_delta, result.stats["accepted_swaps"], result.elapsed_seconds]
        )
    return BenchReport(
        experiment_id="ablation-rewiring",
        title=f"Ablation — CRR rewiring budget (ca-GrQc, p={p})",
        headers=["steps factor x", "avg delta", "accepted swaps", "time (s)"],
        rows=rows,
        notes=["expected: avg delta non-increasing in x"],
    )


def run_initial_ranking(quick: bool = True, seed: int = 0, p: float = 0.5) -> BenchReport:
    """Ablation: betweenness-ranked vs random phase-1 edge selection."""
    graph = _graph(quick, seed)
    rows = []
    for importance in ("betweenness", "random"):
        # steps = 0 isolates the phase-1 selection strategy.
        shedder = CRRShedder(steps_factor=0.0, importance=importance, seed=seed)
        result = shedder.reduce(graph, p)
        rows.append(
            [
                importance,
                result.average_delta,
                len(largest_component(result.reduced)),
                result.elapsed_seconds,
            ]
        )
    return BenchReport(
        experiment_id="ablation-ranking",
        title=f"Ablation — CRR initial edge ranking, phase 1 only (ca-GrQc, p={p})",
        headers=["initial ranking", "avg delta", "giant component size", "time (s)"],
        rows=rows,
        notes=[
            "expected: betweenness ranking keeps a larger giant component"
            " (it preserves bridges) at the cost of a worse initial delta",
        ],
    )


def run_bm2_rounding(quick: bool = True, seed: int = 0, p: float = 0.5) -> BenchReport:
    """Ablation: BM2 capacity rounding rule (half-up/half-even/floor/ceil)."""
    graph = _graph(quick, seed)
    rows = []
    for rounding in ("half_up", "half_even", "floor", "ceil"):
        result = BM2Shedder(rounding=rounding, seed=seed).reduce(graph, p)
        rows.append(
            [rounding, result.average_delta, result.achieved_ratio, result.elapsed_seconds]
        )
    return BenchReport(
        experiment_id="ablation-rounding",
        title=f"Ablation — BM2 capacity rounding (ca-GrQc, p={p})",
        headers=["rounding", "avg delta", "achieved ratio", "time (s)"],
        rows=rows,
        notes=["expected: floor undershoots and ceil overshoots the edge budget"],
    )


def run_bm2_edge_order(quick: bool = True, seed: int = 0, p: float = 0.5) -> BenchReport:
    """Ablation: BM2 phase-1 edge scan order (input vs random)."""
    graph = _graph(quick, seed)
    rows = []
    for label, shuffle in (("input order", False), ("random order", True)):
        result = BM2Shedder(shuffle_edges=shuffle, seed=seed).reduce(graph, p)
        rows.append([label, result.average_delta, result.stats["matched_edges"]])
    return BenchReport(
        experiment_id="ablation-edge-order",
        title=f"Ablation — BM2 phase-1 edge scan order (ca-GrQc, p={p})",
        headers=["scan order", "avg delta", "matched edges"],
        rows=rows,
        notes=["expected: scan order changes the matching only marginally"],
    )


def run_sampled_betweenness(quick: bool = True, seed: int = 0, p: float = 0.5) -> BenchReport:
    """Ablation: CRR quality/time with sampled betweenness sources."""
    graph = _graph(quick, seed)
    rows = []
    variants = [("exact", None), ("k=256", 256), ("k=64", 64), ("k=16", 16)]
    for label, sources in variants:
        shedder = CRRShedder(num_betweenness_sources=sources, seed=seed)
        result = shedder.reduce(graph, p)
        rows.append([label, result.average_delta, result.elapsed_seconds])
    return BenchReport(
        experiment_id="ablation-sampling",
        title=f"Ablation — CRR with sampled betweenness (ca-GrQc, p={p})",
        headers=["estimator", "avg delta", "time (s)"],
        rows=rows,
        notes=[
            "expected: time drops with fewer sources; delta is insensitive"
            " because the rewiring phase repairs ranking noise",
        ],
    )
