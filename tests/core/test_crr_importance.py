"""Tests for CRR's Phase-1 importance signal."""

import pytest

from repro.core import CRRShedder


class TestImportanceOptions:
    def test_default_is_betweenness(self):
        assert CRRShedder().importance == "betweenness"

    def test_skip_ranking_alias_removed(self):
        # importance="random" is the one way to skip the ranking.
        with pytest.raises(TypeError):
            CRRShedder(skip_ranking=True)

    def test_invalid_string_rejected(self):
        with pytest.raises(ValueError):
            CRRShedder(importance="pagerank")

    def test_callable_rejected(self):
        # The id core runs on shard views as well as whole graphs, so a
        # Graph -> {edge: score} callable has nothing to score.
        with pytest.raises(ValueError):
            CRRShedder(importance=lambda g: {e: 1.0 for e in g.edges()})

    def test_stats_label(self, small_powerlaw):
        result = CRRShedder(steps=0, seed=0).reduce(small_powerlaw, 0.5)
        assert result.stats["initial_ranking"] == "betweenness"
