"""Micro-benchmarks for the core primitives (repeated-timing mode).

Unlike the table/figure benches (one-shot ``pedantic`` runs), these use
pytest-benchmark's statistical timing to track the cost of the hot
primitives: the two shedders, edge betweenness, the greedy b-matching,
PageRank, and the incremental tracker.
"""

import pytest

from repro.core import BM2Shedder, CRRShedder
from repro.core.discrepancy import round_half_up
from repro.graph import edge_betweenness, pagerank, powerlaw_cluster
from tests.oracles.core import DegreeTracker, greedy_b_matching


@pytest.fixture(scope="module")
def graph():
    return powerlaw_cluster(400, 3, 0.4, seed=7)


def test_bm2_reduce(benchmark, graph):
    result = benchmark(lambda: BM2Shedder(seed=0).reduce(graph, 0.5))
    assert result.reduced.num_edges > 0


def test_crr_reduce_sampled(benchmark, graph):
    shedder = CRRShedder(seed=0, num_betweenness_sources=32)
    result = benchmark(lambda: shedder.reduce(graph, 0.5))
    assert result.reduced.num_edges == round_half_up(0.5 * graph.num_edges)


def test_edge_betweenness_sampled(benchmark, graph):
    scores = benchmark(lambda: edge_betweenness(graph, num_sources=32, seed=0))
    assert len(scores) == graph.num_edges


def test_greedy_b_matching(benchmark, graph):
    capacities = {node: max(1, graph.degree(node) // 2) for node in graph.nodes()}
    matched = benchmark(lambda: greedy_b_matching(graph, capacities))
    assert matched


def test_pagerank(benchmark, graph):
    scores = benchmark(lambda: pagerank(graph))
    assert abs(sum(scores.values()) - 1.0) < 1e-6


def test_tracker_swap_throughput(benchmark, graph):
    tracker = DegreeTracker(graph, 0.5)
    edges = list(graph.edges())
    half = len(edges) // 2
    for edge in edges[:half]:
        tracker.add_edge(*edge)

    def churn():
        for out_edge, in_edge in zip(edges[:200], edges[half : half + 200]):
            tracker.swap_change(out_edge, in_edge)

    benchmark(churn)
