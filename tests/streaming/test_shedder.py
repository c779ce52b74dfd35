"""Tests for the streaming shedder."""

import pytest

from repro.core import compute_delta, round_half_up
from repro.errors import InvalidRatioError, ReductionError
from repro.graph import Graph, paper_figure1_graph, powerlaw_cluster
from repro.streaming import count_stream_degrees, reservoir_shed, shed_stream


class TestCountStreamDegrees:
    def test_basic(self, figure1):
        degrees = count_stream_degrees(figure1.edges())
        assert degrees["u7"] == 7
        assert degrees["u1"] == 1

    def test_self_loop_rejected(self):
        with pytest.raises(ReductionError):
            count_stream_degrees([(1, 1)])

    def test_duplicate_rejected(self):
        with pytest.raises(ReductionError):
            count_stream_degrees([(1, 2), (2, 1)])

    def test_empty_stream(self):
        assert count_stream_degrees([]) == {}


class TestShedStream:
    def test_matches_in_memory_b_matching(self, medium_powerlaw):
        """The streaming pass equals BM2 phase 1 on the same edge order."""
        from repro.core.discrepancy import round_half_up as rhu
        from tests.oracles.core import greedy_b_matching

        p = 0.5
        edges = list(medium_powerlaw.edges())
        streamed = list(shed_stream(lambda: iter(edges), p))
        capacities = {
            node: rhu(p * medium_powerlaw.degree(node))
            for node in medium_powerlaw.nodes()
        }
        in_memory = greedy_b_matching(medium_powerlaw, capacities, edge_order=edges)
        assert streamed == in_memory

    def test_degree_guarantee(self, medium_powerlaw):
        """No node exceeds its rounded capacity."""
        p = 0.4
        edges = list(medium_powerlaw.edges())
        kept = list(shed_stream(lambda: iter(edges), p))
        reduced = medium_powerlaw.edge_subgraph(kept)
        for node in medium_powerlaw.nodes():
            assert reduced.degree(node) <= round_half_up(p * medium_powerlaw.degree(node))

    def test_delta_bounded(self, medium_powerlaw):
        """Theorem 2's phase-1 building block: avg |dis| <= 1/2 + p|E|/|V|...
        here we check the concrete BM2-phase-1 bound."""
        p = 0.4
        edges = list(medium_powerlaw.edges())
        kept = list(shed_stream(lambda: iter(edges), p))
        reduced = medium_powerlaw.edge_subgraph(kept)
        delta = compute_delta(medium_powerlaw, reduced, p)
        bound = 0.5 * medium_powerlaw.num_nodes + p * medium_powerlaw.num_edges
        assert delta <= bound

    def test_invalid_ratio(self):
        with pytest.raises(InvalidRatioError):
            list(shed_stream(lambda: iter([(0, 1)]), 1.5))

    def test_yields_in_stream_order(self, figure1):
        edges = list(figure1.edges())
        kept = list(shed_stream(lambda: iter(edges), 0.6))
        positions = [edges.index(edge) for edge in kept]
        assert positions == sorted(positions)


class TestReservoirShed:
    def test_exact_size(self):
        edges = [(i, i + 1) for i in range(100)]
        kept = reservoir_shed(iter(edges), 0.3, total_edges=100, seed=0)
        assert len(kept) == 30

    def test_subset_of_stream(self):
        edges = [(i, i + 1) for i in range(50)]
        kept = reservoir_shed(iter(edges), 0.5, total_edges=50, seed=1)
        assert set(kept) <= set(edges)

    def test_short_stream_fills_partially(self):
        edges = [(0, 1), (1, 2)]
        kept = reservoir_shed(iter(edges), 0.5, total_edges=100, seed=0)
        assert kept == edges  # reservoir target 50, only 2 available

    def test_roughly_uniform(self):
        """Each edge appears in the reservoir with probability ~ p."""
        edges = [(i, i + 1) for i in range(40)]
        hits = dict.fromkeys(edges, 0)
        runs = 300
        for seed in range(runs):
            for edge in reservoir_shed(iter(edges), 0.5, 40, seed=seed):
                hits[edge] += 1
        for edge, count in hits.items():
            assert 0.3 < count / runs < 0.7

    def test_negative_total_rejected(self):
        with pytest.raises(ReductionError):
            reservoir_shed(iter([]), 0.5, total_edges=-1)

    def test_invalid_ratio(self):
        with pytest.raises(InvalidRatioError):
            reservoir_shed(iter([]), 0.0, total_edges=10)


class TestReservoirSampleTelemetry:
    def test_full_stream_fill_ratio_is_one(self):
        edges = [(i, i + 1) for i in range(40)]
        sample = reservoir_shed(iter(edges), 0.5, total_edges=40, seed=0)
        assert sample.target == 20
        assert sample.fill_ratio == 1.0

    def test_short_stream_surfaces_underfill(self):
        sample = reservoir_shed(iter([(0, 1), (1, 2)]), 0.5, total_edges=100, seed=0)
        assert sample.target == 50
        assert sample.fill_ratio == pytest.approx(2 / 50)

    def test_zero_target_fill_ratio_is_one(self):
        sample = reservoir_shed(iter([(0, 1)]), 0.3, total_edges=1, seed=0)
        assert sample.target == 0
        assert sample == []
        assert sample.fill_ratio == 1.0

    def test_zero_target_consumes_no_rng(self):
        """Regression: target == 0 used to draw rng.integers per edge."""
        import numpy as np

        edges = [(i, i + 1) for i in range(25)]
        rng = np.random.default_rng(7)
        reservoir_shed(iter(edges), 0.3, total_edges=1, seed=rng)
        untouched = np.random.default_rng(7)
        assert rng.integers(10**9) == untouched.integers(10**9)

    def test_is_still_a_plain_list(self):
        sample = reservoir_shed(iter([(0, 1), (1, 2)]), 0.5, total_edges=2, seed=0)
        assert isinstance(sample, list)


class TestReservoirSlot:
    def test_zero_capacity_rejects_without_drawing(self):
        import numpy as np

        from repro.streaming import reservoir_slot

        rng = np.random.default_rng(3)
        assert reservoir_slot(rng, seen=10, capacity=0) == -1
        untouched = np.random.default_rng(3)
        assert rng.integers(10**9) == untouched.integers(10**9)

    def test_slot_in_range_or_rejected(self):
        import numpy as np

        from repro.streaming import reservoir_slot

        rng = np.random.default_rng(4)
        for seen in range(5, 50):
            slot = reservoir_slot(rng, seen=seen, capacity=5)
            assert -1 <= slot < 5


class TestEdgeReservoir:
    def _reservoir(self, capacity=4, seed=0):
        from repro.streaming import EdgeReservoir

        return EdgeReservoir(capacity, seed=seed)

    def test_fills_then_replaces(self):
        pool = self._reservoir(capacity=3)
        for k in range(3):
            assert pool.offer((k, k + 1))
        assert len(pool) == 3
        pool.offer((99, 100))  # may or may not replace, but never overflows
        assert len(pool) == 3

    def test_duplicates_refused_without_rng(self):
        import numpy as np

        from repro.streaming import EdgeReservoir

        rng = np.random.default_rng(5)
        pool = EdgeReservoir(1, seed=rng)
        pool.offer((0, 1))
        assert not pool.offer((0, 1))
        untouched = np.random.default_rng(5)
        assert rng.integers(10**9) == untouched.integers(10**9)

    def test_discard_swap_pop(self):
        pool = self._reservoir()
        for k in range(4):
            pool.offer((k, k + 1))
        assert pool.discard((1, 2))
        assert (1, 2) not in pool
        assert len(pool) == 3
        assert not pool.discard((1, 2))

    def test_sample_bounded_and_distinct(self):
        pool = self._reservoir(capacity=10)
        for k in range(10):
            pool.offer((k, k + 1))
        picked = pool.sample(4)
        assert len(picked) == len(set(picked)) == 4
        assert set(pool.sample(99)) == set(pool.items())

    def test_probe_bounded_distinct_and_held(self):
        pool = self._reservoir(capacity=10)
        for k in range(10):
            pool.offer((k, k + 1))
        picked = pool.probe(4)
        assert 1 <= len(picked) <= 4  # collisions shrink, never grow
        assert len(picked) == len(set(picked))
        assert set(picked) <= set(pool.items())

    def test_probe_returns_everything_when_count_covers_pool(self):
        pool = self._reservoir(capacity=5)
        for k in range(3):
            pool.offer((k, k + 1))
        assert set(pool.probe(3)) == set(pool.items())
        assert pool.probe(99) == pool.items()
        assert self._reservoir(capacity=2).probe(4) == []

    def test_fill_ratio(self):
        pool = self._reservoir(capacity=4)
        assert pool.fill_ratio == 0.0
        pool.offer((0, 1))
        assert pool.fill_ratio == 0.25
        assert self._reservoir(capacity=0).fill_ratio == 1.0

    def test_clear(self):
        pool = self._reservoir()
        pool.offer((0, 1))
        pool.clear()
        assert len(pool) == 0 and (0, 1) not in pool

    def test_negative_capacity_rejected(self):
        from repro.streaming import EdgeReservoir

        with pytest.raises(ReductionError):
            EdgeReservoir(-1)

    def test_long_offer_stream_roughly_uniform(self):
        """Algorithm-R replacement leaves a near-uniform sample."""
        from repro.streaming import EdgeReservoir

        hits = dict.fromkeys(range(40), 0)
        runs = 300
        for seed in range(runs):
            pool = EdgeReservoir(20, seed=seed)
            for k in range(40):
                pool.offer((k, k + 1))
            for u, _ in pool.items():
                hits[u] += 1
        for count in hits.values():
            assert 0.3 < count / runs < 0.7
