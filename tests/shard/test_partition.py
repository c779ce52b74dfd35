"""Tests for shard planning: node assignment, views, boundary bookkeeping."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph import Graph, communities, stochastic_block_model
from repro.graph.io import read_edge_list, write_edge_list
from repro.shard import PARTITION_METHODS, ShardedShedder, partition_graph


class TestValidation:
    def test_unknown_method_rejected(self, small_powerlaw):
        with pytest.raises(GraphError):
            partition_graph(small_powerlaw, 2, method="bogus")

    def test_non_positive_shards_rejected(self, small_powerlaw):
        with pytest.raises(GraphError):
            partition_graph(small_powerlaw, 0)

    def test_methods_registry(self):
        assert PARTITION_METHODS == ("community", "contiguous")


class TestPlanInvariants:
    @pytest.mark.parametrize("method", PARTITION_METHODS)
    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_nodes_partitioned_exactly_once(self, small_powerlaw, method, num_shards):
        plan = partition_graph(small_powerlaw, num_shards, method=method, seed=0)
        assert plan.num_shards == num_shards
        covered = np.concatenate([shard.node_ids for shard in plan.shards])
        assert covered.shape[0] == small_powerlaw.num_nodes
        assert len(set(covered.tolist())) == small_powerlaw.num_nodes
        for shard in plan.shards:
            assert shard.num_nodes > 0
            # view_of contract: strictly increasing ids
            assert np.all(np.diff(shard.node_ids) > 0)
            assert np.array_equal(plan.shard_of[shard.node_ids], np.full(shard.num_nodes, shard.index))

    @pytest.mark.parametrize("method", PARTITION_METHODS)
    def test_edges_are_interior_or_boundary_exactly_once(self, small_powerlaw, method):
        plan = partition_graph(small_powerlaw, 4, method=method, seed=0)
        interior = sum(shard.interior_edges for shard in plan.shards)
        assert interior + plan.num_boundary == small_powerlaw.num_edges
        # every boundary edge really crosses shards
        assert np.all(plan.shard_of[plan.boundary_u] != plan.shard_of[plan.boundary_v])

    def test_single_shard_is_identity_plan(self, small_powerlaw):
        plan = partition_graph(small_powerlaw, 1)
        assert plan.num_boundary == 0
        assert plan.shards[0].num_nodes == small_powerlaw.num_nodes
        assert plan.shards[0].interior_edges == small_powerlaw.num_edges
        view = plan.shards[0].view
        assert np.array_equal(view.indptr, plan.csr.indptr)
        assert np.array_equal(view.indices, plan.csr.indices)

    def test_num_shards_clamped_to_node_count(self, triangle):
        plan = partition_graph(triangle, 10)
        assert plan.num_shards == 3

    def test_view_to_global_roundtrip(self, small_powerlaw):
        plan = partition_graph(small_powerlaw, 3, method="contiguous")
        for shard in plan.shards:
            local = np.arange(shard.num_nodes, dtype=np.int64)
            assert np.array_equal(shard.view.to_global(local), shard.node_ids)

    def test_describe_is_json_friendly(self, small_powerlaw):
        import json

        plan = partition_graph(small_powerlaw, 2, seed=0)
        summary = plan.describe()
        json.dumps(summary)
        assert summary["num_shards"] == 2
        assert summary["method"] in PARTITION_METHODS
        assert sum(summary["shard_interior_edges"]) + summary["boundary_edges"] == (
            small_powerlaw.num_edges
        )
        assert (summary["sweeps"], summary["converged"]) == (plan.sweeps, plan.converged)


class TestMethods:
    def test_contiguous_is_deterministic(self, small_powerlaw):
        a = partition_graph(small_powerlaw, 4, method="contiguous")
        b = partition_graph(small_powerlaw, 4, method="contiguous")
        assert np.array_equal(a.shard_of, b.shard_of)

    def test_community_is_deterministic_by_seed(self, small_powerlaw):
        a = partition_graph(small_powerlaw, 4, method="community", seed=7)
        b = partition_graph(small_powerlaw, 4, method="community", seed=7)
        assert np.array_equal(a.shard_of, b.shard_of)

    def test_community_falls_back_when_too_few_communities(self, k5):
        # A clique is one community; asking for 3 shards must fall back.
        plan = partition_graph(k5, 3, method="community", seed=0)
        assert plan.method == "contiguous"
        assert plan.num_shards == 3

    def test_community_beats_contiguous_boundary_on_modular_graph(self):
        # Two dense blocks joined by a couple of edges: community-aligned
        # shards should cut (far) fewer edges than an id-order split that
        # ignores structure.  Node ids interleave the blocks so contiguous
        # ranges cannot accidentally align with them.
        # Register nodes 0..39 up front: CSR ids follow insertion order,
        # so the parity blocks interleave in id space.
        g = Graph(nodes=range(40))
        blocks = {0: [i for i in range(40) if i % 2 == 0], 1: [i for i in range(40) if i % 2 == 1]}
        for members in blocks.values():
            for i, u in enumerate(members):
                for v in members[i + 1 :]:
                    g.add_edge(u, v)
        g.add_edge(0, 1)
        g.add_edge(2, 3)
        community = partition_graph(g, 2, method="community", seed=0)
        contiguous = partition_graph(g, 2, method="contiguous")
        assert community.method == "community"
        assert community.num_boundary < contiguous.num_boundary
        assert community.num_boundary <= 2


class TestLabelPropagationReport:
    """The plan reports the label propagation behind it, so a partition
    that hit the sweep cap never passes as settled."""

    @staticmethod
    def _two_blocks():
        # A seeded 2-block SBM plus 12 bridge nodes, each with one
        # neighbour in either block: every bridge is tied between the two
        # block labels for good and flips at random on every sweep.
        g = stochastic_block_model([60, 60], [[0.2, 0.01], [0.01, 0.2]], seed=4)
        for i in range(12):
            g.add_edge(120 + i, i)
            g.add_edge(120 + i, 60 + i)
        return g

    def test_community_plan_converges_well_before_the_cap(self):
        # A rule that counted the bridges' tie flips as changes would run
        # all 100 sweeps here (it does with LPA seed 0).
        plan = partition_graph(self._two_blocks(), 2, method="community", seed=0)
        assert plan.method == "community"
        assert plan.converged is True
        assert 1 <= plan.sweeps <= 20

    def test_capped_plan_reports_not_converged(self):
        plan = partition_graph(
            self._two_blocks(), 2, method="community", seed=0, max_iterations=1
        )
        assert (plan.sweeps, plan.converged) == (1, False)

    @pytest.mark.parametrize(
        "num_shards, method", [(1, "community"), (2, "contiguous")]
    )
    def test_no_label_propagation_reports_none(self, small_powerlaw, num_shards, method):
        plan = partition_graph(small_powerlaw, num_shards, method=method, seed=0)
        assert (plan.sweeps, plan.converged) == (0, None)

    def test_fallback_plan_reports_the_propagation_that_ran(self, k5):
        plan = partition_graph(k5, 3, method="community", seed=0)
        assert plan.method == "contiguous"
        assert plan.converged is True and plan.sweeps >= 1


class TestPartitionCost:
    """Guards for what the community partition costs: it reads the graph's
    arrays, and label propagation resolves only the nodes whose label may
    still move."""

    def test_sharded_path_builds_no_dicts(self, tmp_path):
        probs = [[0.3 if i == j else 0.01 for j in range(3)] for i in range(3)]
        source = stochastic_block_model([40, 40, 40], probs, seed=1)
        write_edge_list(source, tmp_path / "in.txt")
        graph = read_edge_list(tmp_path / "in.txt")
        plan = partition_graph(graph, 2, seed=1)
        assert plan.method == "community" and plan.sweeps >= 1
        assert graph._ids is not None  # dicts still unbuilt
        result = ShardedShedder(method="crr", num_shards=2, seed=1).reduce(graph, 0.5)
        write_edge_list(result.reduced, tmp_path / "out.txt")
        assert graph._ids is not None

    def test_late_sweeps_resolve_few_nodes(self, monkeypatch):
        probs = [[0.25 if i == j else 0.001 for j in range(16)] for i in range(16)]
        g = stochastic_block_model([60] * 16, probs, seed=2)
        resolved = [0]  # nodes resolved per sweep
        propagate, margins = communities._propagate_block, communities._label_margins

        def counting_propagate(block, *args):
            resolved[-1] += block.shape[0]
            return propagate(block, *args)

        def sweep_end(*args):
            resolved.append(0)
            return margins(*args)

        monkeypatch.setattr(communities, "_propagate_block", counting_propagate)
        monkeypatch.setattr(communities, "_label_margins", sweep_end)
        plan = partition_graph(g, 2, seed=2)
        resolved.pop()
        assert plan.sweeps == len(resolved) >= 4
        assert resolved[0] == g.num_nodes
        assert all(count < 0.1 * g.num_nodes for count in resolved[2:])
