"""Tests for node2vec walk generation."""

import numpy as np
import pytest

from repro.embedding import generate_walk_matrix, generate_walks
from repro.errors import EmbeddingError
from repro.graph import Graph, cycle_graph, path_graph, powerlaw_cluster
from tests.oracles.embedding import _legacy_generate_walks

#: The batched walker and the scalar oracle share one walk contract.
WALKERS = {"batched": generate_walks, "legacy": _legacy_generate_walks}
ENGINES = list(WALKERS)


@pytest.mark.parametrize("engine", ENGINES)
class TestWalkGeneration:
    def test_walk_count(self, cycle6, engine):
        walks = WALKERS[engine](cycle6, num_walks=3, walk_length=5, seed=0)
        assert len(walks) == 3 * 6

    def test_walk_length(self, k5, engine):
        walks = WALKERS[engine](k5, num_walks=1, walk_length=7, seed=0)
        assert all(len(walk) == 7 for walk in walks)

    def test_walks_follow_edges(self, cycle6, engine):
        from repro.graph import CSRAdjacency

        csr = CSRAdjacency.from_graph(cycle6)
        walks = WALKERS[engine](cycle6, num_walks=2, walk_length=6, seed=1)
        for walk in walks:
            for a, b in zip(walk, walk[1:]):
                assert cycle6.has_edge(csr.labels[a], csr.labels[b])

    def test_isolated_nodes_skipped(self, engine):
        g = Graph(edges=[(0, 1)], nodes=[2])
        walks = WALKERS[engine](g, num_walks=2, walk_length=4, seed=0)
        assert len(walks) == 2 * 2  # only the two connected nodes start walks

    def test_deterministic_by_seed(self, cycle6, engine):
        a = WALKERS[engine](cycle6, num_walks=2, walk_length=5, seed=3)
        b = WALKERS[engine](cycle6, num_walks=2, walk_length=5, seed=3)
        assert a == b

    def test_biased_walk_return_parameter(self, engine):
        """With huge p (no returns) on a path, walks cannot backtrack."""
        g = path_graph(10)
        walks = WALKERS[engine](
            g, num_walks=5, walk_length=6, p=1e9, q=1.0, seed=0
        )
        for walk in walks:
            for i in range(2, len(walk)):
                if walk[i] == walk[i - 2]:
                    # returning is only allowed when forced (dead end)
                    assert g.degree(walk[i - 1]) == 1

    def test_validation(self, cycle6, engine):
        with pytest.raises(EmbeddingError):
            WALKERS[engine](cycle6, num_walks=0)
        with pytest.raises(EmbeddingError):
            WALKERS[engine](cycle6, walk_length=0)
        with pytest.raises(EmbeddingError):
            WALKERS[engine](cycle6, p=0)


class TestBatchedEngine:
    def test_unknown_engine_rejected(self, cycle6):
        # One implementation: there is no engine to select.
        with pytest.raises(TypeError):
            generate_walks(cycle6, engine="simd")

    def test_matrix_matches_list_wrapper(self, cycle6):
        matrix = generate_walk_matrix(cycle6, num_walks=3, walk_length=5, seed=9)
        assert matrix.dtype == np.int64
        assert matrix.tolist() == generate_walks(
            cycle6, num_walks=3, walk_length=5, seed=9
        )

    def test_matrix_row_order_is_epoch_major(self, cycle6):
        matrix = generate_walk_matrix(cycle6, num_walks=2, walk_length=4, seed=0)
        # Each epoch contributes one walk per non-isolated node, in id order.
        np.testing.assert_array_equal(matrix[:6, 0], np.arange(6))
        np.testing.assert_array_equal(matrix[6:, 0], np.arange(6))

    def test_empty_graph_gives_empty_matrix(self):
        g = Graph(nodes=[0, 1, 2])
        matrix = generate_walk_matrix(g, num_walks=2, walk_length=4, seed=0)
        assert matrix.shape == (0, 4)

    @pytest.mark.parametrize("p,q", [(1.0, 1.0), (0.25, 4.0)])
    def test_workers_bit_identical_to_serial(self, p, q):
        g = powerlaw_cluster(60, 2, 0.3, seed=5)
        serial = generate_walk_matrix(g, num_walks=4, walk_length=10, p=p, q=q, seed=11)
        fanned = generate_walk_matrix(
            g, num_walks=4, walk_length=10, p=p, q=q, seed=11, workers=2
        )
        np.testing.assert_array_equal(serial, fanned)

    def test_invalid_workers_rejected(self, cycle6):
        with pytest.raises(EmbeddingError):
            generate_walk_matrix(cycle6, num_walks=2, seed=0, workers=0)
