"""Property-based tests for the streaming shedder (hypothesis)."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.discrepancy import round_half_up
from repro.graph import Graph
from repro.graph.matching import is_b_matching
from repro.streaming import count_stream_degrees, reservoir_shed, shed_stream
from tests.oracles.core import greedy_b_matching


@st.composite
def simple_edge_lists(draw):
    """A duplicate-free, loop-free edge list over a small node universe."""
    n = draw(st.integers(2, 14))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda e: e[0] != e[1]
            ),
            min_size=1,
            max_size=3 * n,
        )
    )
    seen = set()
    edges = []
    for u, v in pairs:
        key = frozenset((u, v))
        if key not in seen:
            seen.add(key)
            edges.append((u, v))
    return edges


ratios = st.sampled_from([0.1, 0.3, 0.5, 0.7, 0.9])


@given(simple_edge_lists())
@settings(max_examples=60, deadline=None)
def test_stream_degree_count_matches_graph(edges):
    graph = Graph(edges=edges)
    degrees = count_stream_degrees(edges)
    for node, degree in degrees.items():
        assert graph.degree(node) == degree


@given(simple_edge_lists(), ratios)
@settings(max_examples=60, deadline=None)
def test_stream_equals_in_memory_matching(edges, p):
    """The streaming pass is exactly the greedy b-matching on that order."""
    graph = Graph(edges=edges)
    streamed = list(shed_stream(lambda: iter(edges), p))
    capacities = {
        node: round_half_up(p * graph.degree(node)) for node in graph.nodes()
    }
    in_memory = greedy_b_matching(graph, capacities, edge_order=edges)
    assert streamed == in_memory


@given(simple_edge_lists(), ratios)
@settings(max_examples=60, deadline=None)
def test_stream_respects_capacities(edges, p):
    graph = Graph(edges=edges)
    kept = list(shed_stream(lambda: iter(edges), p))
    capacities = {
        node: round_half_up(p * graph.degree(node)) for node in graph.nodes()
    }
    assert is_b_matching(graph, kept, capacities)


@given(simple_edge_lists(), ratios, st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_reservoir_size_and_membership(edges, p, seed):
    kept = reservoir_shed(iter(edges), p, total_edges=len(edges), seed=seed)
    assert len(kept) == min(round_half_up(p * len(edges)), len(edges))
    assert set(map(frozenset, kept)) <= set(map(frozenset, edges))
