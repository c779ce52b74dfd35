"""The validator's contracts: CRR's edge count, BM2's per-node bound and
b-matching envelope, the shard Δ bound and E' ⊆ E.

These tests pin the edge-count rule for the CRR family (Algorithm 1
keeps exactly ``[p·m]`` edges), BM2's capacity/repair bound (every node
ends with ``deg'(u) − p·deg(u) < 1``), BM2's average-Δ envelope (a
failure above it; a warning above Theorem 2's figure, which a genuine
run exceeds) and the sharded runner's recorded Δ bound, and check that
the invented-edge report counts every invented edge, foreign endpoints
included, and names the one the ``edges()`` scan meets first.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core import BM2Shedder, CRRShedder, ReductionResult, compute_delta
from repro.core.bounds import bm2_average_delta_bound, bm2_delta_envelope
from repro.core.discrepancy import round_half_up
from repro.core.validation import validate_reduction
from repro.graph import Graph, erdos_renyi, powerlaw_cluster
from repro.shard import ShardedShedder
from repro.uncertain import WeightedCRRShedder

GRAPH = powerlaw_cluster(300, 3, 0.1, seed=2)


@pytest.mark.parametrize("shedder_class", [CRRShedder, WeightedCRRShedder])
@pytest.mark.parametrize("p, kept", [(0.3, 267), (0.5, 446), (0.7, 624)])
def test_crr_family_keeps_exact_count_and_validates(shedder_class, p, kept):
    result = shedder_class(seed=1, num_betweenness_sources=16).reduce(GRAPH, p)
    assert result.reduced.num_edges == kept == round_half_up(p * GRAPH.num_edges)
    report = validate_reduction(result)
    assert report.ok, report.describe()


def test_sharded_crr_validates():
    shedder = ShardedShedder(
        method="crr", num_shards=2, num_workers=1, num_betweenness_sources=16, seed=1
    )
    result = shedder.reduce(GRAPH, 0.5)
    assert result.method == "ShardedCRR"
    report = validate_reduction(result)
    assert report.ok, report.describe()


@pytest.mark.parametrize("method", ["crr", "bm2"])
def test_sharded_result_carries_and_meets_its_delta_bound(method):
    shedder = ShardedShedder(
        method=method, num_shards=3, num_workers=1, num_betweenness_sources=16, seed=1
    )
    result = shedder.reduce(GRAPH, 0.5)
    assert result.delta <= result.stats["delta_bound"]
    report = validate_reduction(result)
    assert report.ok, report.describe()

    lowered = result.delta - 0.5
    bad = dataclasses.replace(result, stats={**result.stats, "delta_bound": lowered})
    report = validate_reduction(bad)
    assert not report.ok
    assert report.failures == [
        f"delta {result.delta:.6f} exceeds its recorded bound {lowered:.6f}"
    ]


@pytest.mark.parametrize(
    "settings",
    [
        {},
        {"rounding": "ceil"},
        {"accept_zero_gain": True},
        {"rounding": "ceil", "accept_zero_gain": True, "shuffle_edges": True},
        {"sparsify": "edcs", "sparsify_beta": 1},
    ],
)
@pytest.mark.parametrize("p", [0.3, 0.45, 0.7])
def test_bm2_results_meet_the_capacity_repair_bound(settings, p):
    result = BM2Shedder(seed=1, **settings).reduce(GRAPH, p)
    assert result.method == "BM2"
    report = validate_reduction(result)
    assert report.ok, report.describe()


def _bm2_with_one_edge_past_the_bound(method):
    """A ``ceil``-rounded BM2 result plus one original edge at a node whose
    dis is already positive, so that node (and only it) ends with dis > 1."""
    p = 0.3
    result = BM2Shedder(seed=1, rounding="ceil").reduce(GRAPH, p)
    reduced = result.reduced.copy()

    def dis(node):
        return reduced.degree(node) - p * GRAPH.degree(node)

    u, v = next(
        (u, v)
        for u, v in GRAPH.edges()
        if not reduced.has_edge(u, v) and dis(u) > 0 and dis(v) < 0
    )
    reduced.add_edge(u, v)
    bad = ReductionResult(
        method=method,
        original=GRAPH,
        reduced=reduced,
        p=p,
        delta=compute_delta(GRAPH, reduced, p),
        elapsed_seconds=0.0,
    )
    return bad, u, dis(u)


def test_bm2_result_with_a_node_past_the_bound_fails():
    bad, node, excess = _bm2_with_one_edge_past_the_bound("BM2")
    assert excess > 1.0
    report = validate_reduction(bad)
    assert not report.ok
    assert report.failures == [
        f"BM2 node {node!r} has deg' − p·deg = {excess:.6f},"
        " not below its capacity/repair bound 1"
    ]


@pytest.mark.parametrize("method", ["W-BM2", "ShardedBM2", "BM2 (progressive)"])
def test_bm2_bound_applies_to_plain_bm2_only(method):
    bad, _, _ = _bm2_with_one_edge_past_the_bound(method)
    report = validate_reduction(bad)
    assert report.ok, report.describe()


def test_bm2_run_above_theorem_2_figure_warns_inside_its_envelope():
    """A genuine default BM2 run (25 nodes, 272 edges, p = 0.85) whose
    average Δ exceeds Theorem 2's figure but not its b-matching envelope."""
    graph, p = erdos_renyi(25, 0.9, seed=1), 0.85
    result = BM2Shedder().reduce(graph, p)
    average = result.average_delta
    figure = bm2_average_delta_bound(p, graph.num_edges, graph.num_nodes)
    envelope = bm2_delta_envelope(p, graph.num_edges, graph.num_nodes, "half_up")
    assert (graph.num_edges, result.stats["capacity_rounding"]) == (272, "half_up")
    assert figure < average <= envelope
    report = validate_reduction(result)
    assert report.ok, report.describe()
    assert (
        f"BM2 average delta {average:.4f} is above Theorem 2's figure {figure:.4f},"
        f" inside its b-matching envelope {envelope:.4f}"
    ) in report.warnings


def _empty_reduction(method, rounding):
    """Every node, no edge: average Δ 2p|E|/|V|, past the envelope."""
    p = 0.7
    reduced = Graph(nodes=GRAPH.nodes())
    return ReductionResult(
        method=method,
        original=GRAPH,
        reduced=reduced,
        p=p,
        delta=compute_delta(GRAPH, reduced, p),
        elapsed_seconds=0.0,
        stats={"capacity_rounding": rounding},
    )


@pytest.mark.parametrize("rounding", ["half_up", "half_even", "floor", "ceil", None])
def test_bm2_result_past_its_envelope_fails(rounding):
    bad = _empty_reduction("BM2", rounding)
    envelope = bm2_delta_envelope(bad.p, GRAPH.num_edges, GRAPH.num_nodes, rounding)
    report = validate_reduction(bad)
    assert report.failures == [
        f"BM2 average delta {bad.average_delta:.4f} is above its b-matching"
        f" envelope {envelope:.4f}"
    ]


def test_progressive_level_past_the_envelope_only_warns():
    """Nested levels are no one greedy b-matching of the original: a sweep
    of 4,108 levels found 2 past the envelope, so it is not held to it."""
    bad = _empty_reduction("BM2 (progressive)", "half_up")
    report = validate_reduction(bad)
    assert report.ok, report.describe()
    assert any("is above its b-matching envelope" in warning for warning in report.warnings)


@pytest.mark.parametrize("method", ["CRR", "W-CRR", "ShardedCRR"])
def test_crr_result_missing_one_edge_fails(method):
    result = CRRShedder(seed=1, num_betweenness_sources=16).reduce(GRAPH, 0.5)
    reduced = result.reduced.copy()
    reduced.remove_edge(*next(iter(reduced.edges())))
    bad = ReductionResult(
        method=method,
        original=GRAPH,
        reduced=reduced,
        p=0.5,
        delta=compute_delta(GRAPH, reduced, 0.5),
        elapsed_seconds=0.0,
    )
    report = validate_reduction(bad)
    assert not report.ok
    assert report.failures == [f"{method} kept 445 edges, not [p·m] = 446"]


def test_count_rule_does_not_apply_to_other_methods():
    result = CRRShedder(seed=1, num_betweenness_sources=16).reduce(GRAPH, 0.5)
    reduced = result.reduced.copy()
    reduced.remove_edge(*next(iter(reduced.edges())))
    report = validate_reduction(
        ReductionResult(
            method="CRR (progressive)",
            original=GRAPH,
            reduced=reduced,
            p=0.5,
            delta=compute_delta(GRAPH, reduced, 0.5),
            elapsed_seconds=0.0,
        )
    )
    assert report.ok, report.describe()


def test_invented_edges_counted_and_first_named_in_scan_order():
    result = CRRShedder(seed=1, num_betweenness_sources=16).reduce(GRAPH, 0.5)
    reduced = result.reduced.copy()
    nodes = list(GRAPH.nodes())
    fresh = [(u, v) for u in nodes[-40:] for v in nodes[-40:] if u < v and not GRAPH.has_edge(u, v)]
    for u, v in fresh[:3]:
        reduced.add_edge(v, u)
    first = next(edge for edge in reduced.edges() if not GRAPH.has_edge(*edge))
    report = validate_reduction(
        ReductionResult(
            method="Random",
            original=GRAPH,
            reduced=reduced,
            p=0.5,
            delta=compute_delta(GRAPH, reduced, 0.5),
            elapsed_seconds=0.0,
        )
    )
    assert report.failures == [
        f"3 reduced edges are not in the original graph (e.g. {first!r})"
    ]


def test_foreign_node_edges_are_invented():
    result = CRRShedder(seed=1, num_betweenness_sources=16).reduce(GRAPH, 0.5)
    reduced = result.reduced.copy()
    reduced.add_edge(0, "stranger")
    report = validate_reduction(
        ReductionResult(
            method="Random",
            original=GRAPH,
            reduced=reduced,
            p=0.5,
            delta=result.delta,
            elapsed_seconds=0.0,
        )
    )
    assert "node set mismatch: 0 original nodes missing, 1 foreign nodes present" in report.failures
    assert "1 reduced edges are not in the original graph (e.g. (0, 'stranger'))" in report.failures
