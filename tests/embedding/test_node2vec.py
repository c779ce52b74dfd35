"""Tests for the high-level Node2Vec model."""

import numpy as np

from repro.embedding import node2vec_embed
from repro.graph import Graph, stochastic_block_model
from tests.oracles.embedding import legacy_node2vec_embed


class TestNode2VecEmbed:
    def test_shape_and_mapping(self, cycle6):
        model = node2vec_embed(cycle6, dimensions=8, num_walks=2, walk_length=6, seed=0)
        assert model.embeddings.shape == (6, 8)
        assert set(model.labels) == set(cycle6.nodes())
        for node in cycle6.nodes():
            np.testing.assert_array_equal(
                model.vector(node), model.embeddings[model.index_of[node]]
            )

    def test_deterministic_by_seed(self, cycle6):
        a = node2vec_embed(cycle6, dimensions=4, num_walks=2, walk_length=5, seed=3)
        b = node2vec_embed(cycle6, dimensions=4, num_walks=2, walk_length=5, seed=3)
        np.testing.assert_array_equal(a.embeddings, b.embeddings)

    def test_community_structure_recovered(self):
        """On a 2-block SBM, within-block similarity should exceed
        cross-block similarity on average."""
        graph = stochastic_block_model(
            [25, 25], [[0.4, 0.01], [0.01, 0.4]], seed=1
        )
        model = node2vec_embed(
            graph, dimensions=16, num_walks=8, walk_length=20, epochs=3, seed=2
        )
        embeddings = model.embeddings
        normalized = embeddings / np.linalg.norm(embeddings, axis=1, keepdims=True)
        within = []
        cross = []
        for i in range(0, 25, 5):
            for j in range(1, 25, 5):
                if i != j:
                    within.append(normalized[i] @ normalized[j])
                cross.append(normalized[i] @ normalized[25 + j])
        assert np.mean(within) > np.mean(cross)

    def test_string_labels(self):
        g = Graph(edges=[("a", "b"), ("b", "c"), ("c", "a")])
        model = node2vec_embed(g, dimensions=4, num_walks=2, walk_length=4, seed=0)
        assert model.vector("a").shape == (4,)


class TestEnginesAndWorkers:
    def test_legacy_engine_deterministic(self, cycle6):
        a = legacy_node2vec_embed(cycle6, dimensions=4, num_walks=2, walk_length=5, seed=3)
        b = legacy_node2vec_embed(cycle6, dimensions=4, num_walks=2, walk_length=5, seed=3)
        np.testing.assert_array_equal(a.embeddings, b.embeddings)

    def test_unknown_engine_rejected(self, cycle6):
        import pytest

        # One implementation: there is no engine to select.
        with pytest.raises(TypeError):
            node2vec_embed(cycle6, engine="cuda")

    def test_workers_bit_identical_to_serial(self):
        """Parallel walk fan-out must not change the trained embeddings:
        same walk matrix, same downstream RNG state."""
        graph = stochastic_block_model([15, 15], [[0.4, 0.05], [0.05, 0.4]], seed=4)
        serial = node2vec_embed(
            graph, dimensions=8, num_walks=4, walk_length=10, seed=6
        )
        fanned = node2vec_embed(
            graph, dimensions=8, num_walks=4, walk_length=10, seed=6, workers=2
        )
        np.testing.assert_array_equal(serial.embeddings, fanned.embeddings)

    def test_stage_timings_recorded(self, cycle6):
        model = node2vec_embed(cycle6, dimensions=4, num_walks=2, walk_length=5, seed=0)
        assert model.walk_seconds > 0.0
        assert model.sgns_seconds > 0.0
