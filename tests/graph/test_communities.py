"""Tests for label propagation, modularity, and NMI."""

import numpy as np
import pytest

from repro.graph import (
    Graph,
    complete_graph,
    erdos_renyi,
    label_propagation,
    modularity,
    normalized_mutual_information,
    partition_sizes,
    stochastic_block_model,
)
from repro.graph.communities import _label_propagation_ids
from tests.oracles.graph import (
    _label_propagation_legacy,
    label_propagation_scan,
    label_propagation_settled,
)


class TestLabelPropagation:
    def test_clique_is_one_community(self, k5):
        labels = label_propagation(k5, seed=0)
        assert len(set(labels.values())) == 1

    def test_two_cliques_bridge(self):
        g = Graph(
            edges=[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)]
        )
        labels = label_propagation(g, seed=0)
        assert labels[0] == labels[1] == labels[2]
        assert labels[3] == labels[4] == labels[5]
        assert labels[0] != labels[3]

    def test_sbm_blocks_recovered(self):
        g = stochastic_block_model([25, 25], [[0.5, 0.01], [0.01, 0.5]], seed=2)
        labels = label_propagation(g, seed=0)
        block_a = {labels[i] for i in range(25)}
        block_b = {labels[i] for i in range(25, 50)}
        # dominant label differs between blocks
        assert max(block_a, key=lambda l: sum(1 for i in range(25) if labels[i] == l)) != max(
            block_b, key=lambda l: sum(1 for i in range(25, 50) if labels[i] == l)
        )

    def test_isolated_nodes_keep_singletons(self):
        g = Graph(edges=[(0, 1)], nodes=[2, 3])
        labels = label_propagation(g, seed=0)
        assert labels[2] != labels[3]
        assert labels[2] not in (labels[0], labels[1])

    def test_trailing_isolated_nodes_match_legacy(self):
        # Node 4's last neighbour ends the flat adjacency; the isolated
        # nodes after it must not drop that neighbour from the check that
        # splits a sweep into blocks.
        g = Graph(edges=[(0, 4), (2, 4)], nodes=range(7))
        for seed in range(4):
            assert label_propagation(g, max_iterations=2, seed=seed) == (
                _label_propagation_legacy(g, max_iterations=2, seed=seed)
            )

    def test_labels_densely_numbered(self, small_powerlaw):
        labels = label_propagation(small_powerlaw, seed=0)
        distinct = set(labels.values())
        assert distinct == set(range(len(distinct)))

    def test_deterministic_by_seed(self, small_powerlaw):
        a = label_propagation(small_powerlaw, seed=5)
        b = label_propagation(small_powerlaw, seed=5)
        assert a == b


class TestPartitionSizes:
    def test_counts(self):
        sizes = partition_sizes({1: 0, 2: 0, 3: 1})
        assert sizes == {0: 2, 1: 1}


class TestModularity:
    def test_single_community_zero(self, k5):
        labels = dict.fromkeys(k5.nodes(), 0)
        assert modularity(k5, labels) == pytest.approx(0.0)

    def test_good_partition_positive(self):
        g = Graph(edges=[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)])
        labels = {0: 0, 1: 0, 2: 0, 3: 1, 4: 1, 5: 1}
        assert modularity(g, labels) > 0.2

    def test_networkx_oracle(self, small_powerlaw):
        import networkx as nx

        labels = label_propagation(small_powerlaw, seed=0)
        communities = {}
        for node, label in labels.items():
            communities.setdefault(label, set()).add(node)
        nx_graph = nx.Graph(list(small_powerlaw.edges()))
        nx_graph.add_nodes_from(small_powerlaw.nodes())
        expected = nx.community.modularity(nx_graph, communities.values())
        assert modularity(small_powerlaw, labels) == pytest.approx(expected, abs=1e-9)

    def test_edgeless(self):
        assert modularity(Graph(nodes=[1, 2]), {1: 0, 2: 1}) == 0.0


class TestNMI:
    def test_identical_partitions(self):
        labels = {i: i % 3 for i in range(30)}
        assert normalized_mutual_information(labels, labels) == pytest.approx(1.0)

    def test_independent_partitions_low(self):
        a = {i: i % 2 for i in range(400)}
        b = {i: (i // 2) % 2 for i in range(400)}
        assert normalized_mutual_information(a, b) < 0.1

    def test_relabeling_invariant(self):
        a = {i: i % 3 for i in range(30)}
        b = {i: (i % 3 + 1) % 3 for i in range(30)}
        assert normalized_mutual_information(a, b) == pytest.approx(1.0)

    def test_trivial_partitions(self):
        single = dict.fromkeys(range(10), 0)
        assert normalized_mutual_information(single, single) == 1.0

    def test_mismatched_elements_rejected(self):
        with pytest.raises(ValueError):
            normalized_mutual_information({1: 0}, {2: 0})

    def test_empty(self):
        assert normalized_mutual_information({}, {}) == 1.0

    def test_sklearn_style_bounds(self):
        a = {i: i % 4 for i in range(40)}
        b = {i: i % 5 for i in range(40)}
        value = normalized_mutual_information(a, b)
        assert 0.0 <= value <= 1.0


class TestLabelPropagationEngines:
    """The CSR sweep must replay the legacy per-node sweep
    (``tests/oracles``) bit-for-bit."""

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_csr_matches_legacy(self, seed):
        from repro.graph import erdos_renyi

        g = erdos_renyi(60, 0.08, seed=seed)
        legacy = _label_propagation_legacy(g, seed=seed)
        csr = label_propagation(g, seed=seed)
        assert csr == legacy

    def test_csr_matches_legacy_on_blocks(self):
        g = stochastic_block_model([20, 20], [[0.4, 0.02], [0.02, 0.4]], seed=3)
        assert label_propagation(g, seed=5) == _label_propagation_legacy(g, seed=5)

    @pytest.mark.parametrize("seed", range(6))
    def test_array_built_graph_matches_legacy(self, seed):
        # A planted partition (2-5 blocks of 5-40 nodes) built from a
        # shuffled edge array: the engine reads the graph's arrays, and
        # must neither build its dicts nor leave the per-node scan.
        rng = np.random.default_rng(seed)
        sizes = rng.integers(5, 41, rng.integers(2, 6))
        block = np.repeat(np.arange(sizes.shape[0]), sizes)
        u, v = np.triu_indices(block.shape[0], 1)
        chosen = rng.random(u.shape[0]) < np.where(block[u] == block[v], 0.4, 0.02)
        edges = rng.permutation(np.flatnonzero(chosen))
        labels = rng.permutation(block.shape[0]).tolist()
        g = Graph.from_edge_ids(labels, u[edges], v[edges], snapshot=False)
        for cap in (1, 2, 3, 100):
            engine, sweeps, converged = _label_propagation_ids(g, cap, seed)
            assert g._ids is not None  # dicts still unbuilt
            expected = label_propagation_scan(g, cap, seed)
            g = Graph.from_edge_ids(labels, u[edges], v[edges], snapshot=False)
            assert (dict(zip(labels, engine.tolist())), sweeps, converged) == expected

    def test_unknown_engine_rejected(self, k5):
        # One implementation: there is no engine to select.
        with pytest.raises(TypeError):
            label_propagation(k5, seed=0, engine="numpy")


class TestStoppingRule:
    """Label propagation stops after the first sweep k* whose labelling is
    settled: capping it anywhere from k* up returns the same labels, and
    every cap below k* returns an unsettled labelling (so the capped runs
    are the uncapped sweep sequence, truncated)."""

    @staticmethod
    def _graph(family, seed):
        if family == "er":
            return erdos_renyi(80, 0.06, seed=seed)
        probs = [[0.3 if i == j else 0.02 for j in range(3)] for i in range(3)]
        return stochastic_block_model([25, 25, 25], probs, seed=seed)

    @pytest.mark.parametrize("seed", [0, 1, 3])
    @pytest.mark.parametrize("family", ["er", "sbm"])
    def test_caps_truncate_at_the_settled_sweep(self, family, seed):
        g = self._graph(family, seed)
        _, k_star, converged = _label_propagation_ids(g, 100, seed)
        assert converged and k_star > 1
        settled = label_propagation(g, max_iterations=k_star, seed=seed)
        assert label_propagation_settled(g, settled)
        assert label_propagation(g, max_iterations=k_star + 1, seed=seed) == settled
        assert label_propagation(g, max_iterations=100, seed=seed) == settled
        for cap in range(1, k_star):
            labels, sweeps, capped_converged = _label_propagation_ids(g, cap, seed)
            assert (sweeps, capped_converged) == (cap, False)
            assert not label_propagation_settled(g, dict(zip(g.nodes(), labels.tolist())))

    def test_edgeless_graph_settles_after_one_sweep(self):
        labels, sweeps, converged = _label_propagation_ids(Graph(nodes=[1, 2, 3]), 100, 0)
        assert labels.tolist() == [0, 1, 2]
        assert (sweeps, converged) == (1, True)

    def test_zero_cap_runs_no_sweep(self, k5):
        labels, sweeps, converged = _label_propagation_ids(k5, 0, 0)
        assert labels.tolist() == list(range(5))
        assert (sweeps, converged) == (0, False)
