"""Tests for the CRR shedder (Algorithm 1)."""

import pytest

from repro.core import CRRShedder, compute_delta, crr_bound_for_graph, round_half_up
from repro.core.crr import IndexedEdgePool
from repro.errors import InvalidRatioError, ReductionError
from repro.graph import Graph
from repro.rng import ensure_rng
from tests.oracles.core import LegacyCRRShedder


class TestIndexedEdgePool:
    def test_add_and_len(self):
        pool = IndexedEdgePool([(1, 2), (2, 3)])
        assert len(pool) == 2
        assert (1, 2) in pool

    def test_duplicate_add_rejected(self):
        pool = IndexedEdgePool([(1, 2)])
        with pytest.raises(ValueError):
            pool.add((1, 2))

    def test_remove(self):
        pool = IndexedEdgePool([(1, 2), (2, 3), (3, 4)])
        pool.remove((2, 3))
        assert (2, 3) not in pool
        assert len(pool) == 2

    def test_remove_unknown_raises(self):
        with pytest.raises(KeyError):
            IndexedEdgePool().remove((1, 2))

    def test_sample_empty_raises(self):
        with pytest.raises(IndexError):
            IndexedEdgePool().sample(ensure_rng(0))

    def test_sample_returns_member(self):
        pool = IndexedEdgePool([(1, 2), (2, 3)])
        rng = ensure_rng(0)
        for _ in range(20):
            assert pool.sample(rng) in pool

    def test_items_after_churn(self):
        pool = IndexedEdgePool([(i, i + 1) for i in range(10)])
        for i in range(0, 10, 2):
            pool.remove((i, i + 1))
        assert sorted(pool.items()) == [(i, i + 1) for i in range(1, 10, 2)]

    def test_accepts_any_iterable(self):
        pool = IndexedEdgePool(e for e in [(1, 2), (2, 3)])
        assert len(pool) == 2
        assert IndexedEdgePool(()).items() == []


class TestCRRBasics:
    def test_edge_count_is_nearest_integer(self, figure1):
        result = CRRShedder(seed=0).reduce(figure1, 0.4)
        assert result.reduced.num_edges == round_half_up(0.4 * 11) == 4

    @pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
    def test_edge_budget_exact(self, small_powerlaw, p):
        result = CRRShedder(seed=0, num_betweenness_sources=32).reduce(small_powerlaw, p)
        assert result.reduced.num_edges == round_half_up(p * small_powerlaw.num_edges)

    def test_output_is_subgraph(self, small_powerlaw):
        result = CRRShedder(seed=1, num_betweenness_sources=32).reduce(small_powerlaw, 0.5)
        for u, v in result.reduced.edges():
            assert small_powerlaw.has_edge(u, v)

    def test_node_set_preserved(self, small_powerlaw):
        result = CRRShedder(seed=1, num_betweenness_sources=32).reduce(small_powerlaw, 0.5)
        assert set(result.reduced.nodes()) == set(small_powerlaw.nodes())

    def test_invalid_ratio(self, triangle):
        with pytest.raises(InvalidRatioError):
            CRRShedder().reduce(triangle, 1.2)

    def test_empty_graph_rejected(self):
        with pytest.raises(ReductionError):
            CRRShedder().reduce(Graph(nodes=[1, 2]), 0.5)

    def test_invalid_steps(self):
        with pytest.raises(ValueError):
            CRRShedder(steps=-1)

    def test_invalid_steps_factor(self):
        with pytest.raises(ValueError):
            CRRShedder(steps_factor=-2.0)

    def test_delta_reported_matches_recomputation(self, small_powerlaw):
        result = CRRShedder(seed=2, num_betweenness_sources=32).reduce(small_powerlaw, 0.4)
        assert result.delta == pytest.approx(
            compute_delta(small_powerlaw, result.reduced, 0.4)
        )
        assert result.stats["tracker_delta"] == pytest.approx(result.delta)


class TestCRRQuality:
    def test_paper_example_reaches_optimal_delta(self, figure1):
        """Example 1 ends at delta = 4.4; CRR should find it."""
        result = CRRShedder(seed=0).reduce(figure1, 0.4)
        assert result.delta == pytest.approx(4.4)

    def test_within_theorem1_bound(self, small_powerlaw):
        for p in (0.3, 0.5, 0.7):
            result = CRRShedder(seed=0, num_betweenness_sources=32).reduce(small_powerlaw, p)
            assert result.average_delta <= crr_bound_for_graph(small_powerlaw, p)

    def test_rewiring_improves_on_no_rewiring(self, small_powerlaw):
        no_rewire = CRRShedder(steps_factor=0.0, num_betweenness_sources=32, seed=0)
        rewire = CRRShedder(steps_factor=10.0, num_betweenness_sources=32, seed=0)
        delta_without = no_rewire.reduce(small_powerlaw, 0.5).delta
        delta_with = rewire.reduce(small_powerlaw, 0.5).delta
        assert delta_with < delta_without

    def test_ranking_preserves_larger_giant_component(self, medium_powerlaw):
        """Phase 1's betweenness ranking keeps the bridges that hold the
        giant component together (it sheds redundant intra-cluster edges and
        leaf edges instead).  Compared before rewiring (steps = 0), where
        the initial selection is the whole story."""
        from repro.graph import largest_component

        ranked = CRRShedder(steps_factor=0.0, seed=5).reduce(medium_powerlaw, 0.3)
        random_init = CRRShedder(
            steps_factor=0.0, importance="random", seed=5
        ).reduce(medium_powerlaw, 0.3)
        assert len(largest_component(ranked.reduced)) > len(
            largest_component(random_init.reduced)
        )

    def test_explicit_steps_used(self, small_powerlaw):
        result = CRRShedder(steps=17, num_betweenness_sources=32, seed=0).reduce(
            small_powerlaw, 0.5
        )
        assert result.stats["steps"] == 17
        assert result.stats["attempted_swaps"] == 17

    def test_default_steps_is_ten_p(self, figure1):
        result = CRRShedder(seed=0).reduce(figure1, 0.4)
        assert result.stats["steps"] == round_half_up(10 * 0.4 * 11) == 44

    def test_deterministic_for_seed(self, small_powerlaw):
        a = CRRShedder(seed=11, num_betweenness_sources=32).reduce(small_powerlaw, 0.5)
        b = CRRShedder(seed=11, num_betweenness_sources=32).reduce(small_powerlaw, 0.5)
        assert a.reduced == b.reduced

    def test_stats_record_ranking_mode(self, small_powerlaw):
        result = CRRShedder(importance="random", seed=0).reduce(small_powerlaw, 0.5)
        assert result.stats["initial_ranking"] == "random"


class TestCRREngines:
    """The array rewiring engine must replay the scalar loop of the
    label-space oracle (``tests/oracles``) exactly."""

    def test_invalid_engine(self):
        # One implementation: there is no engine to select.
        with pytest.raises(TypeError):
            CRRShedder(engine="gpu")

    @pytest.mark.parametrize("p", [0.3, 0.5, 0.7])
    def test_engines_produce_identical_reductions(self, small_powerlaw, p):
        legacy = LegacyCRRShedder(seed=9, num_betweenness_sources=32).reduce(
            small_powerlaw, p
        )
        array = CRRShedder(seed=9, num_betweenness_sources=32).reduce(
            small_powerlaw, p
        )
        assert array.reduced == legacy.reduced
        assert array.stats["accepted_swaps"] == legacy.stats["accepted_swaps"]
        assert array.stats["attempted_swaps"] == legacy.stats["attempted_swaps"]
        assert array.stats["tracker_delta"] == pytest.approx(
            legacy.stats["tracker_delta"], abs=1e-9
        )

    def test_engines_agree_with_random_ranking(self, small_powerlaw):
        legacy = LegacyCRRShedder(seed=3, importance="random").reduce(
            small_powerlaw, 0.5
        )
        array = CRRShedder(seed=3, importance="random").reduce(
            small_powerlaw, 0.5
        )
        assert array.reduced == legacy.reduced
        # p = 0.5 keeps every p·deg exactly representable: Δ is bit-identical.
        assert array.stats["tracker_delta"] == legacy.stats["tracker_delta"]

    def test_legacy_engine_reaches_paper_optimum(self, figure1):
        result = LegacyCRRShedder(seed=0).reduce(figure1, 0.4)
        assert result.delta == pytest.approx(4.4)

    @pytest.mark.parametrize("engine", ["array", "legacy"])
    def test_phase_timings_recorded(self, small_powerlaw, engine):
        shedder = {"array": CRRShedder, "legacy": LegacyCRRShedder}[engine]
        result = shedder(seed=0, num_betweenness_sources=32).reduce(small_powerlaw, 0.5)
        assert result.stats["ranking_seconds"] >= 0.0
        assert result.stats["rewiring_seconds"] >= 0.0


class TestCRREdgeCases:
    def test_p_rounding_up_to_full_graph(self):
        g = Graph(edges=[(0, 1), (1, 2)])
        # P = 0.9 * 2 = 1.8 -> target 2 = |E|: nothing to shed or swap
        result = CRRShedder(seed=0).reduce(g, 0.9)
        assert result.reduced.num_edges == 2

    def test_p_rounding_down_to_empty(self):
        g = Graph(edges=[(0, 1), (1, 2)])
        # P = 0.1 * 2 = 0.2 -> target 0 edges
        result = CRRShedder(seed=0).reduce(g, 0.1)
        assert result.reduced.num_edges == 0
        assert result.reduced.num_nodes == 3

    def test_single_edge_graph(self):
        g = Graph(edges=[(0, 1)])
        result = CRRShedder(seed=0).reduce(g, 0.6)
        assert result.reduced.num_edges == 1
