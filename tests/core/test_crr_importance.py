"""Tests for CRR's pluggable Phase-1 importance signal."""

import pytest

from repro.core import CRRShedder, round_half_up


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

    def test_stats_label(self, small_powerlaw):
        custom = CRRShedder(
            importance=lambda g: {e: 1.0 for e in g.edges()}, steps=0, seed=0
        )
        result = custom.reduce(small_powerlaw, 0.5)
        assert result.stats["initial_ranking"] == "custom"


class TestCustomImportance:
    def test_degree_product_importance(self, small_powerlaw):
        """Rank edges by endpoint degree product: valid custom signal."""

        def degree_product(graph):
            return {
                (u, v): graph.degree(u) * graph.degree(v) for u, v in graph.edges()
            }

        result = CRRShedder(importance=degree_product, steps=0, seed=0).reduce(
            small_powerlaw, 0.3
        )
        target = round_half_up(0.3 * small_powerlaw.num_edges)
        assert result.reduced.num_edges == target
        # the kept set favours high-degree-product edges: its minimum
        # product should beat the shed set's maximum only at the boundary,
        # so compare means instead
        scores = degree_product(small_powerlaw)
        kept = {small_powerlaw.canonical_edge(u, v) for u, v in result.reduced.edges()}
        kept_mean = sum(scores[e] for e in kept) / len(kept)
        shed_scores = [s for e, s in scores.items() if e not in kept]
        shed_mean = sum(shed_scores) / len(shed_scores)
        assert kept_mean > shed_mean

    def test_incomplete_scores_rejected(self, small_powerlaw):
        def partial(graph):
            edges = list(graph.edges())
            return {edges[0]: 1.0}

        with pytest.raises(ValueError):
            CRRShedder(importance=partial, steps=0).reduce(small_powerlaw, 0.5)

    def test_rewiring_still_runs_on_custom_ranking(self, small_powerlaw):
        def uniform(graph):
            return {e: 0.0 for e in graph.edges()}

        with_rewiring = CRRShedder(importance=uniform, seed=0).reduce(small_powerlaw, 0.5)
        without = CRRShedder(importance=uniform, steps=0, seed=0).reduce(small_powerlaw, 0.5)
        assert with_rewiring.delta <= without.delta
