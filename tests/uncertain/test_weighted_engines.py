"""Weighted CRR/BM2 engines: degeneration, quality, and kernel contracts."""

import numpy as np
import pytest

from repro.core import BM2Shedder, CRRShedder
from repro.core.bm2 import weighted_bipartite_repair_ids
from repro.core.discrepancy import ArrayDegreeTracker
from repro.errors import GraphError
from repro.graph import Graph
from repro.graph.matching import greedy_b_matching_ids
from repro.uncertain import (
    WeightedBM2Shedder,
    WeightedCRRShedder,
    attach_random_weights,
    uncertain_erdos_renyi,
)


def _edge_set(graph):
    return sorted(graph.edges())


class TestDegeneration:
    """On unweighted (or all-ones weighted) graphs the weighted engines
    are bit-identical to the unweighted array engines."""

    @pytest.mark.parametrize("p", [0.3, 0.5, 0.7])
    def test_wbm2_equals_bm2_on_unweighted(self, small_powerlaw, p):
        plain = BM2Shedder(seed=0).reduce(small_powerlaw, p)
        weighted = WeightedBM2Shedder(seed=0).reduce(small_powerlaw, p)
        assert _edge_set(weighted.reduced) == _edge_set(plain.reduced)
        assert weighted.delta == plain.delta

    @pytest.mark.parametrize("p", [0.3, 0.5, 0.7])
    def test_wcrr_equals_crr_on_unweighted(self, small_powerlaw, p):
        plain = CRRShedder(seed=0).reduce(small_powerlaw, p)
        weighted = WeightedCRRShedder(seed=0).reduce(small_powerlaw, p)
        assert _edge_set(weighted.reduced) == _edge_set(plain.reduced)
        assert weighted.delta == plain.delta
        assert (
            weighted.stats["accepted_swaps"] == plain.stats["accepted_swaps"]
        )

    @pytest.mark.parametrize("p", [0.3, 0.5])
    def test_all_ones_weights_identical(self, small_powerlaw, p):
        ones = small_powerlaw.copy()
        for u, v in ones.edges():
            ones.set_edge_weight(u, v, 1.0)
        assert ones.is_weighted
        plain = BM2Shedder(seed=0).reduce(small_powerlaw, p)
        weighted = WeightedBM2Shedder(seed=0).reduce(ones, p)
        assert _edge_set(weighted.reduced) == _edge_set(plain.reduced)
        crr_plain = CRRShedder(seed=0).reduce(small_powerlaw, p)
        crr_weighted = WeightedCRRShedder(seed=0).reduce(ones, p)
        assert _edge_set(crr_weighted.reduced) == _edge_set(crr_plain.reduced)

    def test_sparse_variant_degenerates_too(self, small_powerlaw):
        plain = BM2Shedder(seed=0, sparsify="edcs").reduce(small_powerlaw, 0.5)
        weighted = WeightedBM2Shedder(seed=0, sparsify="edcs").reduce(
            small_powerlaw, 0.5
        )
        assert _edge_set(weighted.reduced) == _edge_set(plain.reduced)


class TestQuality:
    """The ISSUE acceptance bar: weighted shedders strictly beat their
    weight-blind counterparts on expected-degree distance at equal p."""

    @pytest.mark.parametrize("p", [0.3, 0.5])
    def test_weighted_bm2_beats_blind_bm2(self, p):
        graph = uncertain_erdos_renyi(300, 0.034, seed=11)
        aware = WeightedBM2Shedder(seed=0).reduce(graph, p)
        blind = BM2Shedder(seed=0).reduce(graph, p)
        assert (
            aware.stats["expected_degree_distance"]
            < blind.stats["expected_degree_distance"]
        )

    @pytest.mark.parametrize("p", [0.3, 0.5])
    def test_weighted_crr_beats_blind_crr(self, p):
        graph = uncertain_erdos_renyi(300, 0.034, seed=11)
        aware = WeightedCRRShedder(seed=0).reduce(graph, p)
        blind = CRRShedder(seed=0).reduce(graph, p)
        assert (
            aware.stats["expected_degree_distance"]
            < blind.stats["expected_degree_distance"]
        )

    def test_stats_carry_weighted_provenance(self):
        graph = uncertain_erdos_renyi(100, 0.08, seed=1)
        result = WeightedBM2Shedder(seed=0).reduce(graph, 0.5)
        assert result.stats["repair_engine"] == "weighted-heap"
        assert result.method == "W-BM2"
        assert result.reduced.is_weighted


class TestWeightedBMatching:
    def test_respects_fractional_capacities(self):
        edge_u = np.array([0, 0, 1], dtype=np.int64)
        edge_v = np.array([1, 2, 2], dtype=np.int64)
        weights = np.array([0.6, 0.6, 0.3])
        caps = np.array([1.0, 0.8, 1.0])
        kept = greedy_b_matching_ids(edge_u, edge_v, caps, weights)
        # (0,1) fits (loads 0.6/0.6); (0,2) would push node 0 to 1.2 > 1.0;
        # (1,2) would push node 1 to 0.9 > 0.8.
        assert kept.tolist() == [True, False, False]

    def test_all_ones_matches_integer_matching(self, small_powerlaw):
        csr = small_powerlaw.csr()
        edge_u, edge_v = csr.edge_list_ids()
        caps_int = np.full(csr.num_nodes, 3, dtype=np.int64)
        ones = np.ones(edge_u.shape[0])
        kept_w = greedy_b_matching_ids(
            edge_u, edge_v, caps_int.astype(np.float64), ones
        )
        kept_i = greedy_b_matching_ids(edge_u, edge_v, caps_int)
        assert np.array_equal(kept_w, kept_i)

    def test_rejects_negative_inputs(self):
        edge_u = np.array([0], dtype=np.int64)
        edge_v = np.array([1], dtype=np.int64)
        with pytest.raises(GraphError):
            greedy_b_matching_ids(
                edge_u, edge_v, np.array([1.0, 1.0]), np.array([-0.1])
            )
        with pytest.raises(GraphError):
            greedy_b_matching_ids(
                edge_u, edge_v, np.array([-1.0, 1.0]), np.array([0.5])
            )


class TestWeightedRepair:
    def test_requires_weighted_tracker(self, small_powerlaw):
        csr = small_powerlaw.csr()
        tracker = ArrayDegreeTracker(csr, 0.5, weighted=False)
        with pytest.raises(ValueError):
            weighted_bipartite_repair_ids(
                tracker,
                np.array([0], dtype=np.int64),
                np.array([1], dtype=np.int64),
            )

    def test_repair_never_increases_delta(self):
        graph = uncertain_erdos_renyi(120, 0.08, seed=3)
        csr = graph.csr()
        tracker = ArrayDegreeTracker(csr, 0.5, weighted=True)
        # Start from the empty reduction: every dis(v) = -p*E[deg] <= 0.
        before = tracker.delta
        edge_u, edge_v = csr.edge_list_ids()
        sel_a, sel_b = weighted_bipartite_repair_ids(tracker, edge_u, edge_v)
        assert tracker.delta <= before
        assert sel_a.shape == sel_b.shape
        assert sel_a.shape[0] <= edge_u.shape[0]


class TestWeightRange:
    """The weighted engines read weights as probabilities: anything outside
    [0, 1] is rejected up front, naming the edge and its value."""

    @staticmethod
    def _graph(bad_edge, bad_value):
        graph = Graph()
        for u, v in [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (3, 4), (4, 5)]:
            graph.add_edge(u, v, weight=0.5)
        graph.set_edge_weight(*bad_edge, bad_value)
        return graph

    @pytest.mark.parametrize("engine", [WeightedBM2Shedder, WeightedCRRShedder])
    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), float("-inf"), -0.5, 1.5]
    )
    def test_out_of_range_weight_rejected(self, engine, value):
        graph = self._graph((2, 3), value)
        with pytest.raises(GraphError) as info:
            engine(seed=0).reduce(graph, 0.5)
        message = str(info.value)
        assert "edge (2, 3)" in message
        assert repr(value) in message

    @pytest.mark.parametrize("engine", [WeightedBM2Shedder, WeightedCRRShedder])
    def test_first_offender_in_edge_scan_order_is_named(self, engine):
        graph = self._graph((4, 5), 2.0)
        graph.set_edge_weight(1, 2, -1.0)
        with pytest.raises(GraphError, match=r"edge \(1, 2\) has weight -1\.0"):
            engine(seed=0).reduce(graph, 0.5)

    @pytest.mark.parametrize("value", [0.0, 1.0])
    def test_interval_endpoints_accepted(self, value):
        graph = self._graph((2, 3), value)
        for engine in (WeightedBM2Shedder, WeightedCRRShedder):
            engine(seed=0).reduce(graph, 0.5)

    def test_weight_blind_engines_unaffected(self):
        graph = self._graph((2, 3), 1.5)
        plain = BM2Shedder(seed=0).reduce(graph, 0.5)
        assert plain.reduced.num_edges > 0
        CRRShedder(seed=0).reduce(graph, 0.5)
