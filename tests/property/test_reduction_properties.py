"""Property-based tests for CRR/BM2 invariants (hypothesis).

These are the load-bearing guarantees of the paper's algorithms:
edge budgets, subgraph-ness, theorem bounds, and monotone Δ repair.
"""

import hypothesis.strategies as st
from hypothesis import assume, given, settings

from repro.core import (
    BM2Shedder,
    CRRShedder,
    bm2_bound_for_graph,
    bm2_delta_envelope,
    compute_delta,
    crr_bound_for_graph,
    round_half_up,
)
from repro.graph import Graph
from repro.graph.generators import erdos_renyi
from tests.oracles.core import LabelTracker

# Connected-ish random graphs: a random tree plus extra random edges,
# guaranteeing num_edges >= 1 and no self-loops.
@st.composite
def graphs(draw, min_nodes=3, max_nodes=18):
    n = draw(st.integers(min_nodes, max_nodes))
    g = Graph(nodes=range(n))
    for node in range(1, n):
        parent = draw(st.integers(0, node - 1))
        g.add_edge(node, parent)
    extra = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda e: e[0] != e[1]
            ),
            max_size=2 * n,
        )
    )
    for u, v in extra:
        g.add_edge(u, v)
    return g


ratios = st.sampled_from([0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9])
seeds = st.integers(0, 2**31 - 1)


@given(graphs(), ratios, seeds)
@settings(max_examples=40, deadline=None)
def test_crr_edge_budget_and_subgraph(g, p, seed):
    result = CRRShedder(seed=seed).reduce(g, p)
    assert result.reduced.num_edges == min(round_half_up(p * g.num_edges), g.num_edges)
    for u, v in result.reduced.edges():
        assert g.has_edge(u, v)
    assert set(result.reduced.nodes()) == set(g.nodes())


@given(graphs(), ratios, seeds)
@settings(max_examples=40, deadline=None)
def test_crr_within_theorem1_bound(g, p, seed):
    result = CRRShedder(seed=seed).reduce(g, p)
    # The bound is on the average |dis|; allow the rounding slack that a
    # fixed integer edge count forces on tiny graphs.
    rounding_slack = 1.0 / g.num_nodes
    assert result.average_delta <= crr_bound_for_graph(g, p) + rounding_slack


# Graphs up to 40 nodes at any density: dense ones at high p are where
# BM2 exceeds Theorem 2's figure (about one run in nine of this space).
@st.composite
def dense_graphs(draw):
    g = erdos_renyi(
        draw(st.integers(5, 40)),
        draw(st.sampled_from([0.2, 0.4, 0.6, 0.8, 0.9, 1.0])),
        seed=draw(seeds),
    )
    assume(g.num_edges > 0)
    return g


@given(
    dense_graphs(),
    st.sampled_from([0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.85, 0.9, 0.95]),
    st.sampled_from(["half_up", "half_even", "floor", "ceil"]),
    seeds,
)
@settings(max_examples=60, deadline=None)
def test_bm2_within_delta_envelope(g, p, rounding, seed):
    """BM2's average Δ stays inside the bound its greedy maximal
    b-matching guarantees (``bm2_delta_envelope``)."""
    result = BM2Shedder(rounding=rounding, seed=seed).reduce(g, p)
    envelope = bm2_delta_envelope(p, g.num_edges, g.num_nodes, rounding)
    assert result.average_delta <= envelope + 1e-9


def test_bm2_envelope_holds_where_theorem2_figure_fails():
    """A genuine default run above Theorem 2's figure, inside the envelope."""
    g, p = erdos_renyi(25, 0.9, seed=1), 0.85
    average = BM2Shedder().reduce(g, p).average_delta
    assert bm2_bound_for_graph(g, p) < average
    assert average <= bm2_delta_envelope(p, g.num_edges, g.num_nodes, "half_up")


@given(graphs(), ratios, seeds)
@settings(max_examples=40, deadline=None)
def test_bm2_subgraph_and_nodes(g, p, seed):
    result = BM2Shedder(seed=seed).reduce(g, p)
    for u, v in result.reduced.edges():
        assert g.has_edge(u, v)
    assert set(result.reduced.nodes()) == set(g.nodes())


@given(graphs(), ratios, seeds)
@settings(max_examples=30, deadline=None)
def test_crr_rewiring_never_hurts(g, p, seed):
    """Phase 2 only accepts improving swaps: final Δ <= phase-1 Δ."""
    phase1 = CRRShedder(steps_factor=0.0, seed=seed).reduce(g, p)
    full = CRRShedder(steps_factor=10.0, seed=seed).reduce(g, p)
    assert full.delta <= phase1.delta + 1e-9


@given(graphs(), ratios, seeds)
@settings(max_examples=40, deadline=None)
def test_reported_delta_matches_recomputation(g, p, seed):
    for shedder in (CRRShedder(seed=seed), BM2Shedder(seed=seed)):
        result = shedder.reduce(g, p)
        recomputed = compute_delta(g, result.reduced, p)
        assert abs(result.delta - recomputed) < 1e-9


@given(graphs(), ratios, st.data())
@settings(max_examples=40, deadline=None)
def test_tracker_incremental_matches_batch(g, p, data):
    """The tracker's incremental Δ equals a from-scratch recomputation
    after an arbitrary add/remove sequence."""
    tracker = LabelTracker(g, p)
    edges = list(g.edges())
    tracked = set()
    operations = data.draw(st.lists(st.integers(0, len(edges) - 1), max_size=30))
    for index in operations:
        edge = edges[index]
        if frozenset(edge) in tracked:
            tracker.remove_edge(*edge)
            tracked.discard(frozenset(edge))
        else:
            tracker.add_edge(*edge)
            tracked.add(frozenset(edge))
    reduced = g.edge_subgraph([tuple(e) for e in tracked])
    assert abs(tracker.delta - compute_delta(g, reduced, p)) < 1e-9
