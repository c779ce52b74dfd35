"""Property tests pinning the dynamic maintainer's per-op invariants.

The contracts (ISSUE: dynamic shedding acceptance):

* ``G' ⊆ G`` after **every** operation;
* the tracker's checkpoint ``Δ`` (:meth:`exact_delta`) is **bit-identical**
  to a from-scratch ``compute_delta(G, G', p)`` on the live graphs;
* with ``cooldown_ops=0`` the post-op ``Δ`` never exceeds ``drift_ratio ×``
  the Theorem-2 envelope at the live graph size (a breach triggers an
  immediate rebuild, and a fresh BM2 lands inside the envelope);
* a BM2 seed plus the default repair pass preserves BM2's per-node
  guarantee ``dis(u) ≤ 1`` at every step.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core import compute_delta
from repro.dynamic import (
    DriftMonitor,
    DynamicDegreeTracker,
    IncrementalShedder,
    generate_workload,
)
from repro.graph import Graph

_RATIOS = [0.25, 0.4, 0.5, 0.6, 0.75]


@st.composite
def churn_scenario(draw):
    n = draw(st.integers(3, 12))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda e: e[0] != e[1]
            ),
            min_size=1,
            max_size=3 * n,
        )
    )
    g = Graph(edges=edges, nodes=range(n))
    p = draw(st.sampled_from(_RATIOS))
    workload = draw(st.sampled_from(["insert", "sliding", "mixed"]))
    workload_seed = draw(st.integers(0, 2**31 - 1))
    num_ops = draw(st.integers(1, 40))
    return g, p, workload, workload_seed, num_ops


def _subset(reduced: Graph, graph: Graph) -> bool:
    return all(graph.has_edge(u, v) for u, v in reduced.edges())


@given(churn_scenario())
@settings(max_examples=40, deadline=None)
def test_subset_and_bit_identical_delta_every_step(scenario):
    g, p, workload, workload_seed, num_ops = scenario
    ops = generate_workload(workload, g, num_ops, seed=workload_seed)
    shed = IncrementalShedder(g, p, seed=0)
    assert _subset(shed.reduced, shed.graph)
    assert shed.delta == compute_delta(shed.graph, shed.reduced, p)
    for op in ops:
        shed.apply(op)
        assert _subset(shed.reduced, shed.graph)
        assert shed.delta == compute_delta(shed.graph, shed.reduced, p)


@given(churn_scenario())
@settings(max_examples=40, deadline=None)
def test_delta_stays_within_drift_envelope(scenario):
    g, p, workload, workload_seed, num_ops = scenario
    ops = generate_workload(workload, g, num_ops, seed=workload_seed)
    monitor = DriftMonitor(p, drift_ratio=1.0, cooldown_ops=0)
    shed = IncrementalShedder(g, p, drift=monitor, seed=0)
    for op in ops:
        shed.apply(op)
        threshold = monitor.drift_ratio * monitor.envelope(
            shed.graph.num_nodes, shed.graph.num_edges
        )
        assert shed.delta <= threshold + 1e-6


@given(churn_scenario())
@settings(max_examples=40, deadline=None)
def test_bm2_per_node_guarantee_preserved(scenario):
    g, p, workload, workload_seed, num_ops = scenario
    ops = generate_workload(workload, g, num_ops, seed=workload_seed)
    shed = IncrementalShedder(g, p, seed=0)
    for op in ops:
        shed.apply(op)
        dis = shed.tracker.dis_array()
        assert dis.max() <= 1.0 + 1e-9


@given(churn_scenario())
@settings(max_examples=25, deadline=None)
def test_seeded_replay_is_deterministic(scenario):
    g, p, workload, workload_seed, num_ops = scenario
    ops = generate_workload(workload, g, num_ops, seed=workload_seed)
    runs = []
    for _ in range(2):
        shed = IncrementalShedder(g.copy(), p, seed=7)
        shed.apply_ops(list(ops))
        runs.append(
            (shed.delta, sorted(map(repr, shed.reduced.edges())), dict(shed.stats))
        )
    assert runs[0] == runs[1]


@given(churn_scenario())
@settings(max_examples=30, deadline=None)
def test_tracker_matches_graphs_after_churn(scenario):
    """deg/current arrays mirror the live graphs node-for-node."""
    g, p, workload, workload_seed, num_ops = scenario
    ops = generate_workload(workload, g, num_ops, seed=workload_seed)
    shed = IncrementalShedder(g, p, seed=0)
    shed.apply_ops(ops)
    tracker = shed.tracker
    assert tracker.num_nodes == shed.graph.num_nodes
    for node in shed.graph.nodes():
        node_id = tracker.id_of(node)
        assert tracker.graph_degree(node_id) == shed.graph.degree(node)
        expected_kept = (
            shed.reduced.degree(node) if shed.reduced.has_node(node) else 0
        )
        assert tracker.kept_degree(node_id) == expected_kept


@given(churn_scenario())
@settings(max_examples=20, deadline=None)
def test_fresh_tracker_agrees_with_maintained_one(scenario):
    """A tracker built from the final graphs equals the maintained state."""
    g, p, workload, workload_seed, num_ops = scenario
    ops = generate_workload(workload, g, num_ops, seed=workload_seed)
    shed = IncrementalShedder(g, p, seed=0)
    shed.apply_ops(ops)
    fresh = DynamicDegreeTracker(shed.graph, p)
    fresh.reset_kept(shed.reduced)
    assert fresh.exact_delta() == shed.tracker.exact_delta()
    assert (fresh.dis_array() == shed.tracker.dis_array()).all()


@given(churn_scenario())
@settings(max_examples=15, deadline=None)
def test_workloads_replay_cleanly_against_shadow(scenario):
    """Generated ops are always valid: inserts absent, deletes present."""
    g, p, workload, workload_seed, num_ops = scenario
    ops = generate_workload(workload, g, num_ops, seed=workload_seed)
    live = g.copy()
    for kind, u, v in ops:
        if kind == "insert":
            assert u != v and not live.has_edge(u, v)
            live.add_edge(u, v)
        else:
            assert live.has_edge(u, v)
            live.remove_edge(u, v)
