"""Tests for the link prediction task (task 7)."""

from unittest import mock

import pytest

from repro.core import BM2Shedder
from repro.embedding import node2vec_embed
from repro.graph import Graph, star_graph, stochastic_block_model
from repro.tasks import LinkPredictionTask, two_hop_pairs
from tests.oracles.embedding import legacy_node2vec_embed


class TestTwoHopPairs:
    def test_star_pairs(self):
        pairs = two_hop_pairs(star_graph(4))
        assert len(pairs) == 6  # all leaf pairs

    def test_triangle_has_none(self, triangle):
        assert two_hop_pairs(triangle) == set()

    def test_path_pairs(self, path5):
        pairs = two_hop_pairs(path5)
        assert frozenset((0, 2)) in pairs
        assert frozenset((0, 3)) not in pairs  # distance 3
        assert len(pairs) == 3

    def test_excludes_adjacent(self, k5):
        assert two_hop_pairs(k5) == set()


class TestLinkPredictionTask:
    @pytest.fixture
    def sbm(self):
        return stochastic_block_model([20, 20], [[0.4, 0.02], [0.02, 0.4]], seed=3)

    def test_artifact_is_subset_of_two_hop_pairs(self, sbm):
        task = LinkPredictionTask(seed=0, num_walks=3, walk_length=10)
        value = task.compute(sbm).value
        assert value <= two_hop_pairs(sbm)

    def test_empty_graph_returns_empty(self):
        task = LinkPredictionTask(seed=0)
        value = task.compute(Graph(edges=[(0, 1)])).value
        assert value == set()  # no 2-hop pairs at all

    def test_identity_utility(self, sbm):
        task = LinkPredictionTask(seed=0, num_walks=3, walk_length=10)
        artifact = task.compute(sbm)
        assert task.utility(artifact, artifact) == pytest.approx(1.0)

    def test_mostly_within_community_predictions(self, sbm):
        """On a clean SBM, most predicted pairs stay inside a block."""
        task = LinkPredictionTask(seed=0, num_walks=8, walk_length=20, epochs=2)
        predictions = task.compute(sbm).value
        assert predictions  # non-trivial prediction set
        within = sum(1 for pair in predictions if len({n < 20 for n in pair}) == 1)
        assert within / len(predictions) > 0.6

    def test_full_evaluation_pipeline(self, sbm):
        task = LinkPredictionTask(seed=0, num_walks=3, walk_length=10)
        result = BM2Shedder(seed=0).reduce(sbm, 0.6)
        evaluation = task.evaluate(sbm, result)
        assert 0.0 <= evaluation.utility <= 1.0

    def test_deterministic_by_seed(self, sbm):
        task_a = LinkPredictionTask(seed=5, num_walks=3, walk_length=10)
        task_b = LinkPredictionTask(seed=5, num_walks=3, walk_length=10)
        assert task_a.compute(sbm).value == task_b.compute(sbm).value

    def test_embedding_timings_recorded(self, sbm):
        task = LinkPredictionTask(seed=0, num_walks=3, walk_length=10)
        task.compute(sbm)
        assert len(task.embedding_timings) == 1
        entry = task.embedding_timings[0]
        assert entry["nodes"] == 40.0
        assert entry["walk_seconds"] > 0.0
        assert entry["sgns_seconds"] > 0.0


class TestEngineParity:
    """The batched pipeline must deliver the same task utility as the
    legacy oracle pipeline (``tests/oracles``).

    Engines consume the RNG differently, so single-seed utilities are
    sampling noise (observed spread ~0.1); the pin compares means over
    four seeds, where the observed engine gap is ~0.03.
    """

    @pytest.fixture(scope="class")
    def sbm(self):
        return stochastic_block_model([20, 20], [[0.4, 0.02], [0.02, 0.4]], seed=3)

    @pytest.fixture(scope="class")
    def reduction(self, sbm):
        return BM2Shedder(seed=0).reduce(sbm, 0.6)

    def _mean_utility(self, sbm, reduction, engine, **kwargs):
        embed = {"batched": node2vec_embed, "legacy": legacy_node2vec_embed}[engine]
        with mock.patch("repro.tasks.link_prediction.node2vec_embed", embed):
            utilities = [
                LinkPredictionTask(seed=seed, **kwargs).evaluate(sbm, reduction).utility
                for seed in range(4)
            ]
        return sum(utilities) / len(utilities)

    def test_engine_utilities_agree(self, sbm, reduction):
        params = dict(num_walks=4, walk_length=12)
        batched = self._mean_utility(sbm, reduction, "batched", **params)
        legacy = self._mean_utility(sbm, reduction, "legacy", **params)
        assert batched == pytest.approx(legacy, abs=0.12)

    @pytest.mark.slow
    def test_engine_utilities_agree_high_budget(self, sbm, reduction):
        params = dict(num_walks=8, walk_length=20, epochs=3)
        batched = self._mean_utility(sbm, reduction, "batched", **params)
        legacy = self._mean_utility(sbm, reduction, "legacy", **params)
        assert batched == pytest.approx(legacy, abs=0.1)

    def test_workers_give_identical_artifact(self, sbm):
        serial = LinkPredictionTask(seed=2, num_walks=3, walk_length=10)
        fanned = LinkPredictionTask(seed=2, num_walks=3, walk_length=10, workers=2)
        assert serial.compute(sbm).value == fanned.compute(sbm).value
