"""Unit tests for :class:`repro.dynamic.DynamicDegreeTracker`."""

import numpy as np
import pytest

from repro.core import compute_delta
from repro.dynamic import DynamicDegreeTracker
from repro.errors import InvalidRatioError
from repro.graph import Graph, paper_figure1_graph
from tests.oracles import dynamic as oracle


@pytest.fixture
def tracked():
    g = paper_figure1_graph()
    tracker = DynamicDegreeTracker(g, 0.5)
    return g, tracker


class TestConstruction:
    def test_bad_ratio(self):
        with pytest.raises(InvalidRatioError):
            DynamicDegreeTracker(Graph(), 0.0)

    def test_ids_follow_insertion_order(self, tracked):
        g, tracker = tracked
        for expected, node in enumerate(g.nodes()):
            assert tracker.id_of(node) == expected
            assert tracker.label_of(expected) == node

    def test_empty_kept_side(self, tracked):
        g, tracker = tracked
        empty = Graph(nodes=g.nodes())
        assert tracker.exact_delta() == compute_delta(g, empty, 0.5)

    def test_empty_graph_tracker(self):
        tracker = DynamicDegreeTracker(Graph(), 0.5)
        assert tracker.num_nodes == 0
        assert tracker.exact_delta() == 0.0


class TestNodeGrowth:
    def test_ensure_node_assigns_and_reuses(self, tracked):
        _, tracker = tracked
        n = tracker.num_nodes
        fresh = tracker.ensure_node("brand-new")
        assert fresh == n
        assert tracker.ensure_node("brand-new") == fresh
        assert tracker.graph_degree(fresh) == 0
        assert tracker.dis(fresh) == 0.0

    def test_arrays_grow_past_initial_capacity(self):
        tracker = DynamicDegreeTracker(Graph(), 0.5)
        ids = [tracker.ensure_node(k) for k in range(100)]
        assert ids == list(range(100))
        assert tracker.num_nodes == 100


class TestEvents:
    def test_graph_edge_moves_expectation(self, tracked):
        _, tracker = tracked
        u, v = tracker.id_of("u1"), tracker.id_of("u2")
        before_u = tracker.dis(u)
        oracle.graph_edge_added(tracker, u, v)
        assert tracker.dis(u) == pytest.approx(before_u - 0.5)
        oracle.graph_edge_removed(tracker, u, v)
        assert tracker.dis(u) == pytest.approx(before_u)

    def test_kept_edge_moves_current(self, tracked):
        _, tracker = tracked
        u, v = tracker.id_of("u1"), tracker.id_of("u2")
        tracker.kept_edge_added(u, v)
        assert tracker.kept_degree(u) == 1
        tracker.kept_edge_removed(u, v)
        assert tracker.kept_degree(u) == 0

    def test_approx_tracks_exact(self, tracked):
        g, tracker = tracked
        rng = np.random.default_rng(0)
        ids = list(range(tracker.num_nodes))
        for _ in range(200):
            u, v = rng.choice(ids, size=2, replace=False)
            tracker.kept_edge_added(int(u), int(v))
        assert tracker.approx_delta == pytest.approx(tracker.exact_delta(), abs=1e-9)


class TestCapacities:
    def test_capacity_is_rounded_expectation(self, tracked):
        _, tracker = tracked
        u7 = tracker.id_of("u7")  # degree 7, p=0.5 -> b = round(3.5) = 4
        assert tracker.capacity(u7) == 4
        assert tracker.spare_capacity(u7) == 4

    def test_vector_capacities_match_scalar(self, tracked):
        _, tracker = tracked
        ids = np.arange(tracker.num_nodes)
        vector = tracker.capacities(ids)
        assert [tracker.capacity(int(i)) for i in ids] == vector.tolist()


class TestResetKept:
    def test_reset_matches_compute_delta(self, tracked):
        g, tracker = tracked
        reduced = g.copy()
        removed = list(reduced.edges())[::2]
        for u, v in removed:
            reduced.remove_edge(u, v)
        tracker.reset_kept(reduced)
        assert tracker.exact_delta() == compute_delta(g, reduced, 0.5)
