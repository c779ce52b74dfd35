"""Unit tests for :class:`repro.dynamic.IncrementalShedder`."""

import pytest

from repro.core import compute_delta
from repro.dynamic import DriftMonitor, IncrementalShedder
from repro.errors import EdgeNotFoundError, ReductionError, SelfLoopError
from repro.graph import Graph, paper_figure1_graph
from repro.graph.generators import erdos_renyi
from tests.oracles import dynamic as oracle
from tests.oracles.core import LegacyBM2Shedder


@pytest.fixture
def small_er() -> Graph:
    return erdos_renyi(60, 0.1, seed=42)


class TestConstruction:
    def test_seed_reduction_is_subset(self, small_er):
        shed = IncrementalShedder(small_er, 0.5, seed=0)
        assert all(small_er.has_edge(u, v) for u, v in shed.reduced.edges())

    def test_seed_delta_matches_compute_delta(self, small_er):
        shed = IncrementalShedder(small_er, 0.5, seed=0)
        assert shed.delta == compute_delta(small_er, shed.reduced, 0.5)

    def test_reduced_covers_all_nodes(self, small_er):
        shed = IncrementalShedder(small_er, 0.5, seed=0)
        assert shed.reduced.num_nodes == small_er.num_nodes

    def test_mismatched_monitor_p_rejected(self, small_er):
        with pytest.raises(ReductionError):
            IncrementalShedder(small_er, 0.5, drift=DriftMonitor(0.4))

    def test_reservoir_holds_shed_edges(self, small_er):
        shed = IncrementalShedder(small_er, 0.5, seed=0)
        shed_count = small_er.num_edges - shed.reduced.num_edges
        assert len(shed.reservoir) == min(shed_count, shed.reservoir.capacity)


class TestInsert:
    def test_insert_updates_graph_and_delta(self, small_er):
        shed = IncrementalShedder(small_er, 0.5, seed=0)
        before = small_er.num_edges
        shed.insert("a", "b")
        assert shed.graph.num_edges == before + 1
        assert shed.graph.has_edge("a", "b")
        assert shed.delta == compute_delta(shed.graph, shed.reduced, 0.5)

    def test_duplicate_insert_rejected(self, small_er):
        u, v = next(iter(small_er.edges()))
        shed = IncrementalShedder(small_er, 0.5, seed=0)
        with pytest.raises(ReductionError):
            shed.insert(u, v)

    def test_self_loop_rejected(self, small_er):
        shed = IncrementalShedder(small_er, 0.5, seed=0)
        with pytest.raises(SelfLoopError):
            shed.insert(0, 0)

    def test_fresh_nodes_join_both_graphs(self, small_er):
        shed = IncrementalShedder(small_er, 0.5, seed=0)
        shed.insert("x", "y")
        assert shed.graph.has_node("x")
        assert shed.reduced.has_node("x")


class TestDelete:
    def test_delete_kept_edge_evicts(self, small_er):
        shed = IncrementalShedder(small_er, 0.5, seed=0)
        u, v = next(iter(shed.reduced.edges()))
        shed.delete(u, v)
        assert not shed.graph.has_edge(u, v)
        assert not shed.reduced.has_edge(u, v)
        assert shed.delta == compute_delta(shed.graph, shed.reduced, 0.5)

    def test_delete_missing_edge_raises(self, small_er):
        shed = IncrementalShedder(small_er, 0.5, seed=0)
        with pytest.raises(EdgeNotFoundError):
            shed.delete("nope", "nothere")

    def test_delete_shed_edge_leaves_reduced_alone(self, small_er):
        shed = IncrementalShedder(small_er, 0.5, seed=0)
        held = next(
            (u, v) for u, v in small_er.edges() if not shed.reduced.has_edge(u, v)
        )
        kept_before = shed.reduced.num_edges
        shed.delete(*held)
        assert shed.reduced.num_edges == kept_before


class TestApplyAndReplay:
    def test_apply_dispatches(self, small_er):
        shed = IncrementalShedder(small_er, 0.5, seed=0)
        shed.apply(("insert", "n1", "n2"))
        assert shed.graph.has_edge("n1", "n2")
        shed.apply(("delete", "n1", "n2"))
        assert not shed.graph.has_edge("n1", "n2")

    def test_apply_unknown_op_rejected(self, small_er):
        shed = IncrementalShedder(small_er, 0.5, seed=0)
        with pytest.raises(ReductionError):
            shed.apply(("frobnicate", 1, 2))

    def test_apply_ops_reports_batch(self, small_er):
        shed = IncrementalShedder(small_er, 0.5, seed=0)
        ops = [("insert", "a", "b"), ("insert", "b", "c"), ("delete", "a", "b")]
        report = shed.apply_ops(ops)
        assert (report.applied, report.skipped, report.rebuilds) == (3, 0, 0)
        assert report.decision.delta == shed.tracker.approx_delta
        assert shed.stats["ops"] == 3
        empty = shed.apply_ops([])
        assert (empty.applied, empty.decision) == (0, None)

    def test_apply_returns_the_per_op_decision(self, small_er):
        shed = IncrementalShedder(small_er, 0.5, seed=0)
        twin = IncrementalShedder(small_er.copy(), 0.5, seed=0)
        for op in [("insert", "a", "b"), ("delete", "a", "b")]:
            assert shed.apply(op) == oracle.apply(twin, op)


class TestRepairAndStats:
    def test_stats_account_for_every_insert(self, small_er):
        shed = IncrementalShedder(small_er, 0.5, seed=0)
        for k in range(20):
            shed.insert(("fresh", k), 0)
        stats = shed.stats
        assert stats["inserts"] == 20
        assert stats["admitted"] + stats["rejected"] == 20

    def test_no_repair_mode(self, small_er):
        shed = IncrementalShedder(small_er, 0.5, repair=False, seed=0)
        u, v = next(iter(shed.reduced.edges()))
        shed.delete(u, v)
        assert shed.stats["promoted"] == 0
        assert shed.delta == compute_delta(shed.graph, shed.reduced, 0.5)

    def test_repair_preserves_bm2_per_node_bound(self, small_er):
        shed = IncrementalShedder(small_er, 0.5, seed=0)
        edges = list(small_er.edges())[:30]
        for u, v in edges:
            shed.delete(u, v)
            assert shed.tracker.dis_array().max() <= 1.0 + 1e-9


class TestRebuild:
    def test_manual_rebuild_restores_envelope(self, small_er):
        shed = IncrementalShedder(small_er, 0.5, seed=0)
        shed.rebuild()
        envelope = shed.monitor.envelope(shed.graph.num_nodes, shed.graph.num_edges)
        assert shed.delta <= envelope + 1e-9
        assert shed.stats["rebuilds"] == 1
        assert shed.delta == compute_delta(shed.graph, shed.reduced, 0.5)

    def test_rebuild_replaces_reduced_object(self, small_er):
        shed = IncrementalShedder(small_er, 0.5, seed=0)
        old = shed.reduced
        shed.rebuild()
        assert shed.reduced is not old

    def test_rebuild_on_empty_graph_is_noop(self):
        g = Graph(edges=[(0, 1)], nodes=range(4))
        shed = IncrementalShedder(g, 0.5, seed=0)
        shed.delete(0, 1)
        rebuilds = shed.stats["rebuilds"]
        shed.rebuild()
        assert shed.stats["rebuilds"] == rebuilds
        assert shed.delta == 0.0

    def test_custom_rebuild_shedder_used(self, small_er):
        """Rebuilds re-run the shedder that produced the seed reduction."""
        legacy = LegacyBM2Shedder()
        shed = IncrementalShedder(small_er, 0.5, legacy, seed=0)
        shed.delete(*next(iter(small_er.edges())))
        shed.rebuild()
        expected = legacy.reduce(shed.graph, 0.5).reduced
        assert list(shed.reduced.edges()) == list(expected.edges())
        assert shed.delta == compute_delta(shed.graph, shed.reduced, 0.5)


class TestOutOfBandDetection:
    def test_direct_graph_mutation_detected(self, small_er):
        shed = IncrementalShedder(small_er, 0.5, seed=0)
        small_er.add_edge("rogue", "edge")
        with pytest.raises(ReductionError):
            shed.insert("x", "y")

    def test_direct_reduced_mutation_detected(self, small_er):
        shed = IncrementalShedder(small_er, 0.5, seed=0)
        u, v = next(iter(shed.reduced.edges()))
        shed.reduced.remove_edge(u, v)
        with pytest.raises(ReductionError):
            shed.delete(u, v)


class TestPaperFigure1:
    def test_figure1_graph_churns_cleanly(self):
        g = paper_figure1_graph()
        shed = IncrementalShedder(g, 0.5, seed=0)
        shed.insert("u1", "u4")
        shed.delete("u1", "u4")
        assert shed.delta == compute_delta(shed.graph, shed.reduced, 0.5)
