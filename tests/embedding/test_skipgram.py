"""Tests for the SGNS trainer (and its per-center oracle) and the pair builder."""

import numpy as np
import pytest

from repro.embedding import build_skipgram_pairs, train_skipgram
from repro.errors import EmbeddingError
from tests.oracles.embedding import legacy_train_skipgram

#: The mini-batched trainer and the per-center oracle share one contract.
TRAINERS = {"batched": train_skipgram, "legacy": legacy_train_skipgram}
ENGINES = list(TRAINERS)


@pytest.mark.parametrize("engine", ENGINES)
class TestTrainSkipgram:
    def test_output_shape(self, engine):
        walks = [[0, 1, 2, 1, 0], [2, 1, 0, 1, 2]]
        embeddings = TRAINERS[engine](
            walks, num_nodes=3, dimensions=8, seed=0)
        assert embeddings.shape == (3, 8)
        assert np.isfinite(embeddings).all()

    def test_cooccurring_nodes_more_similar(self, engine):
        """Two tight 'communities' in the corpus: embeddings should place
        same-community nodes closer than cross-community ones."""
        rng = np.random.default_rng(0)
        walks = []
        for _ in range(150):
            walks.append(list(rng.permutation([0, 1, 2])))
            walks.append(list(rng.permutation([3, 4, 5])))
        embeddings = TRAINERS[engine](
            walks, num_nodes=6, dimensions=16, epochs=5, seed=1)
        normalized = embeddings / np.linalg.norm(embeddings, axis=1, keepdims=True)
        same = normalized[0] @ normalized[1]
        cross = normalized[0] @ normalized[4]
        assert same > cross

    def test_deterministic(self, engine):
        walks = [[0, 1, 2], [2, 1, 0]]
        a = TRAINERS[engine](walks, num_nodes=3, dimensions=4, seed=5)
        b = TRAINERS[engine](walks, num_nodes=3, dimensions=4, seed=5)
        np.testing.assert_array_equal(a, b)

    def test_unseen_nodes_keep_initialisation(self, engine):
        walks = [[0, 1], [1, 0]]
        embeddings = TRAINERS[engine](
            walks, num_nodes=4, dimensions=4, seed=0)
        # nodes 2,3 never updated: still within the small init range
        assert np.abs(embeddings[2]).max() <= 0.5 / 4 + 1e-12

    def test_out_of_range_node_rejected(self, engine):
        with pytest.raises(EmbeddingError):
            TRAINERS[engine]([[0, 7]], num_nodes=3)

    def test_negative_node_rejected(self, engine):
        with pytest.raises(EmbeddingError):
            TRAINERS[engine]([[0, -1]], num_nodes=3)

    def test_empty_corpus_rejected(self, engine):
        with pytest.raises(EmbeddingError):
            TRAINERS[engine]([], num_nodes=3)

    def test_matrix_input_matches_list_input(self, engine):
        """A dense walk matrix and the equivalent list corpus train to the
        exact same embeddings for the same seed."""
        matrix = np.array([[0, 1, 2, 1], [2, 1, 0, 1], [1, 2, 0, 2]])
        lists = matrix.tolist()
        from_matrix = TRAINERS[engine](
            matrix, num_nodes=3, dimensions=4, seed=2)
        from_lists = TRAINERS[engine](
            lists, num_nodes=3, dimensions=4, seed=2)
        np.testing.assert_array_equal(from_matrix, from_lists)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_nodes": 0},
            {"num_nodes": 3, "dimensions": 0},
            {"num_nodes": 3, "window": 0},
            {"num_nodes": 3, "negatives": -1},
        ],
    )
    def test_parameter_validation(self, kwargs, engine):
        with pytest.raises(EmbeddingError):
            TRAINERS[engine]([[0, 1]], **kwargs)


class TestBatchedEngineOnly:
    def test_unknown_engine_rejected(self):
        # One implementation: there is no engine to select.
        with pytest.raises(TypeError):
            train_skipgram([[0, 1]], num_nodes=2, engine="gpu")

    def test_invalid_batch_size_rejected(self):
        with pytest.raises(EmbeddingError):
            train_skipgram([[0, 1]], num_nodes=2, batch_size=0)

    def test_no_negatives_trains(self):
        walks = [[0, 1, 2], [2, 1, 0]]
        embeddings = train_skipgram(
            walks, num_nodes=3, dimensions=4, negatives=0, seed=0
        )
        assert np.isfinite(embeddings).all()


def _brute_force_pairs(walks, window):
    """The per-position sliding-window multiset the builder must match."""
    pairs = []
    for walk in walks:
        for position, center in enumerate(walk):
            lo = max(0, position - window)
            hi = min(len(walk), position + window + 1)
            for i in range(lo, hi):
                if i != position:
                    pairs.append((center, walk[i]))
    return sorted(pairs)


class TestBuildSkipgramPairs:
    @pytest.mark.parametrize("window", [1, 2, 5])
    def test_matches_brute_force(self, window):
        rng = np.random.default_rng(4)
        walks = [list(rng.integers(0, 8, size=rng.integers(1, 7))) for _ in range(20)]
        centers, contexts = build_skipgram_pairs(walks, window)
        assert sorted(zip(centers.tolist(), contexts.tolist())) == _brute_force_pairs(
            walks, window
        )

    def test_matrix_input_matches_brute_force(self):
        matrix = np.array([[0, 1, 2, 3], [3, 2, 1, 0]])
        centers, contexts = build_skipgram_pairs(matrix, 2)
        assert sorted(zip(centers.tolist(), contexts.tolist())) == _brute_force_pairs(
            matrix.tolist(), 2
        )

    def test_padding_never_pairs(self):
        matrix = np.array([[0, 1, -1, -1], [2, 3, 4, -1]])
        centers, contexts = build_skipgram_pairs(matrix, 3)
        assert (centers >= 0).all() and (contexts >= 0).all()
        assert sorted(zip(centers.tolist(), contexts.tolist())) == _brute_force_pairs(
            [[0, 1], [2, 3, 4]], 3
        )

    def test_window_too_small_rejected(self):
        with pytest.raises(EmbeddingError):
            build_skipgram_pairs([[0, 1]], 0)

    def test_single_node_walks_give_no_pairs(self):
        centers, contexts = build_skipgram_pairs([[0], [1]], 5)
        assert centers.size == 0 and contexts.size == 0
