"""Property-based tests for greedy b-matching (hypothesis)."""

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.graph import (
    Graph,
    greedy_b_matching_ids,
    is_b_matching,
    is_maximal_b_matching,
)
from tests.oracles.core import greedy_b_matching


@st.composite
def graph_and_capacities(draw):
    n = draw(st.integers(2, 15))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda e: e[0] != e[1]
            ),
            max_size=3 * n,
        )
    )
    g = Graph(edges=edges, nodes=range(n))
    capacities = {
        node: draw(st.integers(0, 4)) for node in g.nodes()
    }
    return g, capacities


@given(graph_and_capacities())
@settings(max_examples=80, deadline=None)
def test_greedy_result_is_valid_b_matching(gc):
    g, capacities = gc
    matched = greedy_b_matching(g, capacities)
    assert is_b_matching(g, matched, capacities)


@given(graph_and_capacities())
@settings(max_examples=80, deadline=None)
def test_greedy_result_is_maximal(gc):
    g, capacities = gc
    matched = greedy_b_matching(g, capacities)
    assert is_maximal_b_matching(g, matched, capacities)


@given(graph_and_capacities(), st.integers(0, 2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_shuffled_scan_still_valid_and_maximal(gc, seed):
    g, capacities = gc
    matched = greedy_b_matching(g, capacities, shuffle_seed=seed)
    assert is_b_matching(g, matched, capacities)
    assert is_maximal_b_matching(g, matched, capacities)


@given(graph_and_capacities(), st.sampled_from([0, 1, 64]))
@settings(max_examples=60, deadline=None)
def test_ids_scan_matches_label_scan(gc, max_rounds):
    """greedy_b_matching_ids keeps exactly the label scan's edges, for any
    max_rounds (the fixpoint rounds plus scalar finish are exact)."""
    g, capacities = gc
    csr = g.csr()
    edge_u, edge_v = csr.edge_list_ids()
    caps = np.array([capacities[node] for node in csr.labels], dtype=np.int64)
    kept = greedy_b_matching_ids(edge_u, edge_v, caps, max_rounds=max_rounds)
    labels = csr.labels
    from_ids = [
        (labels[u], labels[v])
        for u, v in zip(edge_u[kept].tolist(), edge_v[kept].tolist())
    ]
    assert from_ids == greedy_b_matching(g, capacities)


@given(graph_and_capacities())
@settings(max_examples=50, deadline=None)
def test_greedy_is_half_approximation_vs_edge_count_bound(gc):
    """A maximal b-matching has at least half the edges of a maximum one;
    we check against the cheap upper bound sum(b)/2."""
    g, capacities = gc
    matched = greedy_b_matching(g, capacities)
    maximum_upper_bound = min(
        g.num_edges, sum(min(capacities[n], g.degree(n)) for n in g.nodes()) // 2
    )
    # Greedy >= maximum/2 >= upper_bound/2 does NOT follow in general, so
    # only assert the direction that always holds: matched <= upper bound.
    assert len(matched) <= maximum_upper_bound or maximum_upper_bound == 0
