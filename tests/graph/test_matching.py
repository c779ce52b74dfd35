"""Tests for greedy b-matching."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph import (
    Graph,
    greedy_b_matching_ids,
    is_b_matching,
    is_maximal_b_matching,
    paper_figure1_graph,
    star_graph,
)
from tests.oracles.core import greedy_b_matching


def _id_arrays(graph, capacities):
    """Map a graph + label-keyed capacities to the id-array calling convention."""
    csr = graph.csr()
    edge_u, edge_v = csr.edge_list_ids()
    caps = np.array([capacities[node] for node in csr.labels], dtype=np.int64)
    return csr, edge_u, edge_v, caps


class TestGreedyBMatching:
    def test_respects_capacities(self, k5):
        capacities = {node: 2 for node in k5.nodes()}
        matched = greedy_b_matching(k5, capacities)
        assert is_b_matching(k5, matched, capacities)

    def test_is_maximal(self, k5):
        capacities = {node: 2 for node in k5.nodes()}
        matched = greedy_b_matching(k5, capacities)
        assert is_maximal_b_matching(k5, matched, capacities)

    def test_zero_capacity_keeps_nothing(self, star4):
        capacities = dict.fromkeys(star4.nodes(), 0)
        assert greedy_b_matching(star4, capacities) == []

    def test_star_hub_capacity_limits(self):
        g = star_graph(5)
        capacities = {0: 2, **{leaf: 1 for leaf in range(1, 6)}}
        matched = greedy_b_matching(g, capacities)
        assert len(matched) == 2

    def test_paper_figure1_matching(self):
        """BM2 phase 1 on the worked example selects {(u7,u9), (u8,u10)}."""
        g = paper_figure1_graph()
        capacities = {node: round(0.4 * g.degree(node)) for node in g.nodes()}
        matched = greedy_b_matching(g, capacities)
        matched_sets = {frozenset(edge) for edge in matched}
        assert frozenset(("u7", "u9")) in matched_sets
        assert len(matched) == 2
        # the second edge covers u8 plus one of u10/u11
        other = next(e for e in matched_sets if e != frozenset(("u7", "u9")))
        assert "u8" in other

    def test_missing_capacity_rejected(self, triangle):
        with pytest.raises(GraphError):
            greedy_b_matching(triangle, {0: 1, 1: 1})

    def test_negative_capacity_rejected(self, triangle):
        with pytest.raises(GraphError):
            greedy_b_matching(triangle, {0: 1, 1: 1, 2: -1})

    def test_explicit_edge_order(self, triangle):
        capacities = dict.fromkeys(triangle.nodes(), 1)
        matched = greedy_b_matching(triangle, capacities, edge_order=[(1, 2), (0, 1), (2, 0)])
        assert matched[0] == (1, 2)
        assert len(matched) == 1

    def test_edge_order_with_non_edge_rejected(self, path5):
        with pytest.raises(GraphError):
            greedy_b_matching(path5, dict.fromkeys(path5.nodes(), 1), edge_order=[(0, 4)])

    def test_shuffle_seed_changes_result(self):
        g = star_graph(8)
        capacities = {0: 1, **{leaf: 1 for leaf in range(1, 9)}}
        picks = {
            frozenset(greedy_b_matching(g, capacities, shuffle_seed=seed)[0])
            for seed in range(10)
        }
        assert len(picks) > 1


class TestGreedyBMatchingIds:
    def test_matches_label_scan(self, k5):
        capacities = {node: 2 for node in k5.nodes()}
        csr, edge_u, edge_v, caps = _id_arrays(k5, capacities)
        kept = greedy_b_matching_ids(edge_u, edge_v, caps)
        labels = csr.labels
        from_ids = [
            (labels[u], labels[v])
            for u, v in zip(edge_u[kept].tolist(), edge_v[kept].tolist())
        ]
        assert from_ids == greedy_b_matching(k5, capacities)

    def test_matches_label_scan_on_paper_example(self):
        g = paper_figure1_graph()
        capacities = {node: round(0.4 * g.degree(node)) for node in g.nodes()}
        csr, edge_u, edge_v, caps = _id_arrays(g, capacities)
        kept = greedy_b_matching_ids(edge_u, edge_v, caps)
        assert int(np.count_nonzero(kept)) == 2

    def test_empty_edge_arrays(self):
        empty = np.empty(0, dtype=np.int64)
        kept = greedy_b_matching_ids(empty, empty, np.array([1, 1], dtype=np.int64))
        assert kept.shape == (0,)
        assert kept.dtype == bool

    def test_zero_capacity_keeps_nothing(self, star4):
        csr, edge_u, edge_v, caps = _id_arrays(star4, dict.fromkeys(star4.nodes(), 0))
        assert not greedy_b_matching_ids(edge_u, edge_v, caps).any()

    def test_negative_capacity_rejected(self, triangle):
        csr, edge_u, edge_v, _ = _id_arrays(triangle, dict.fromkeys(triangle.nodes(), 1))
        with pytest.raises(GraphError):
            greedy_b_matching_ids(edge_u, edge_v, np.array([1, 1, -1], dtype=np.int64))

    @pytest.mark.parametrize("max_rounds", [1, 2, 64])
    def test_fixpoint_rounds_match_plain_scan(self, max_rounds):
        from repro.graph import erdos_renyi

        g = erdos_renyi(80, 0.08, seed=7)
        rng = np.random.default_rng(7)
        capacities = {node: int(rng.integers(0, 4)) for node in g.nodes()}
        _, edge_u, edge_v, caps = _id_arrays(g, capacities)
        baseline = greedy_b_matching_ids(edge_u, edge_v, caps, max_rounds=0)
        np.testing.assert_array_equal(
            greedy_b_matching_ids(edge_u, edge_v, caps, max_rounds=max_rounds),
            baseline,
        )


class TestValidity:
    def test_is_b_matching_detects_overload(self, k5):
        capacities = dict.fromkeys(k5.nodes(), 1)
        assert not is_b_matching(k5, [(0, 1), (0, 2)], capacities)

    def test_is_b_matching_rejects_non_edges(self, path5):
        with pytest.raises(GraphError):
            is_b_matching(path5, [(0, 3)], dict.fromkeys(path5.nodes(), 2))

    def test_is_b_matching_rejects_duplicates(self, triangle):
        with pytest.raises(GraphError):
            is_b_matching(triangle, [(0, 1), (1, 0)], dict.fromkeys(triangle.nodes(), 2))

    def test_not_maximal_when_edge_addable(self, k5):
        capacities = dict.fromkeys(k5.nodes(), 2)
        assert not is_maximal_b_matching(k5, [(0, 1)], capacities)

    def test_empty_is_maximal_under_zero_capacity(self, triangle):
        assert is_maximal_b_matching(triangle, [], dict.fromkeys(triangle.nodes(), 0))


class TestBlockedAdmission:
    """The block-admission path must replay the sequential greedy scan."""

    def _case(self, seed):
        from repro.graph import erdos_renyi

        g = erdos_renyi(70, 0.1, seed=seed)
        rng = np.random.default_rng(seed)
        capacities = {node: int(rng.integers(0, 4)) for node in g.nodes()}
        return _id_arrays(g, capacities)

    @pytest.mark.parametrize("block_size", [1, 2, 7, 64, 10**6])
    def test_matches_sequential_scan(self, block_size):
        for seed in range(4):
            _, edge_u, edge_v, caps = self._case(seed)
            baseline = greedy_b_matching_ids(edge_u, edge_v, caps, max_rounds=0)
            np.testing.assert_array_equal(
                greedy_b_matching_ids(
                    edge_u, edge_v, caps, max_rounds=0, block_size=block_size
                ),
                baseline,
            )

    def test_zero_block_size_is_sequential(self, k5):
        csr, edge_u, edge_v, caps = _id_arrays(k5, dict.fromkeys(k5.nodes(), 2))
        np.testing.assert_array_equal(
            greedy_b_matching_ids(edge_u, edge_v, caps, block_size=0),
            greedy_b_matching_ids(edge_u, edge_v, caps),
        )
