"""Tests for the BM2 shedder (Algorithms 2 and 3)."""

import pytest

from repro.core import BM2Shedder, bm2_bound_for_graph, compute_delta
from repro.errors import InvalidRatioError, ReductionError
from repro.graph import Graph, is_b_matching
from tests.oracles.core import (
    DegreeTracker,
    LegacyBM2Shedder,
    bipartite_repair,
    greedy_b_matching,
)


class TestBM2PaperExample:
    """Example 2 walked end to end."""

    def test_final_edge_set(self, figure1):
        result = BM2Shedder(seed=0).reduce(figure1, 0.4)
        edges = {frozenset(e) for e in result.reduced.edges()}
        # Phase 1 picks (u7,u9) plus one u8-edge; phase 2 adds two u7 leaves.
        assert frozenset(("u7", "u9")) in edges
        assert sum(1 for e in edges if "u7" in e) == 3
        assert len(edges) == 4

    def test_delta_matches_example(self, figure1):
        result = BM2Shedder(seed=0).reduce(figure1, 0.4)
        assert result.delta == pytest.approx(4.4)

    def test_zero_gain_edge_optional(self, figure1):
        without = BM2Shedder(seed=0, accept_zero_gain=False).reduce(figure1, 0.4)
        with_zero = BM2Shedder(seed=0, accept_zero_gain=True).reduce(figure1, 0.4)
        assert with_zero.reduced.num_edges == without.reduced.num_edges + 1
        # the zero-gain edge leaves delta unchanged, by definition
        assert with_zero.delta == pytest.approx(without.delta)

    def test_phase_stats(self, figure1):
        result = BM2Shedder(seed=0).reduce(figure1, 0.4)
        assert result.stats["matched_edges"] == 2
        assert result.stats["repair_edges"] == 2
        assert result.stats["group_a_size"] == 2
        assert result.stats["group_b_size"] == 7


class TestBM2Invariants:
    def test_output_is_subgraph(self, small_powerlaw):
        result = BM2Shedder(seed=0).reduce(small_powerlaw, 0.5)
        for u, v in result.reduced.edges():
            assert small_powerlaw.has_edge(u, v)

    def test_node_set_preserved(self, small_powerlaw):
        result = BM2Shedder(seed=0).reduce(small_powerlaw, 0.5)
        assert set(result.reduced.nodes()) == set(small_powerlaw.nodes())

    @pytest.mark.parametrize("p", [0.2, 0.4, 0.6, 0.8])
    def test_within_theorem2_bound(self, small_powerlaw, p):
        result = BM2Shedder(seed=0).reduce(small_powerlaw, p)
        assert result.average_delta <= bm2_bound_for_graph(small_powerlaw, p)

    def test_phase1_is_valid_b_matching(self, small_powerlaw):
        from repro.core.discrepancy import round_half_up

        p = 0.5
        capacities = {
            node: round_half_up(p * small_powerlaw.degree(node))
            for node in small_powerlaw.nodes()
        }
        matched = greedy_b_matching(small_powerlaw, capacities)
        assert is_b_matching(small_powerlaw, matched, capacities)

    def test_repair_never_worsens_delta(self, small_powerlaw):
        """Phase 2 only adds gain >= 0 edges, so it cannot increase Δ."""
        from repro.core.discrepancy import round_half_up

        p = 0.45
        capacities = {
            node: round_half_up(p * small_powerlaw.degree(node))
            for node in small_powerlaw.nodes()
        }
        matched = greedy_b_matching(small_powerlaw, capacities)
        phase1 = small_powerlaw.edge_subgraph(matched)
        phase1_delta = compute_delta(small_powerlaw, phase1, p)
        final = BM2Shedder(seed=0).reduce(small_powerlaw, p)
        assert final.delta <= phase1_delta + 1e-9

    def test_delta_reported_matches_recomputation(self, small_powerlaw):
        result = BM2Shedder(seed=3).reduce(small_powerlaw, 0.35)
        assert result.delta == pytest.approx(
            compute_delta(small_powerlaw, result.reduced, 0.35)
        )

    def test_invalid_ratio(self, triangle):
        with pytest.raises(InvalidRatioError):
            BM2Shedder().reduce(triangle, 0.0)

    def test_invalid_rounding(self):
        with pytest.raises(ValueError):
            BM2Shedder(rounding="nearest")

    def test_deterministic(self, small_powerlaw):
        a = BM2Shedder(seed=0).reduce(small_powerlaw, 0.5)
        b = BM2Shedder(seed=0).reduce(small_powerlaw, 0.5)
        assert a.reduced == b.reduced


class TestRoundingRules:
    def test_floor_keeps_fewest_edges(self, small_powerlaw):
        floor_edges = BM2Shedder(rounding="floor").reduce(small_powerlaw, 0.5).reduced.num_edges
        ceil_edges = BM2Shedder(rounding="ceil").reduce(small_powerlaw, 0.5).reduced.num_edges
        assert floor_edges <= ceil_edges

    @pytest.mark.parametrize("rounding", ["half_up", "half_even", "floor", "ceil"])
    def test_all_rules_produce_valid_reductions(self, small_powerlaw, rounding):
        result = BM2Shedder(rounding=rounding).reduce(small_powerlaw, 0.5)
        assert 0 < result.reduced.num_edges <= small_powerlaw.num_edges

    def test_shuffled_scan_still_valid(self, small_powerlaw):
        result = BM2Shedder(shuffle_edges=True, seed=4).reduce(small_powerlaw, 0.5)
        for u, v in result.reduced.edges():
            assert small_powerlaw.has_edge(u, v)


class TestBM2Engines:
    """The array phases must keep the identical edge set as the dict scan
    of the label-space oracle (``tests/oracles``)."""

    _STAT_KEYS = (
        "matched_edges",
        "repair_edges",
        "group_a_size",
        "group_b_size",
        "candidate_edges",
    )

    def test_invalid_engine(self):
        # One implementation: there is no engine to select.
        with pytest.raises(TypeError):
            BM2Shedder(engine="gpu")

    @pytest.mark.parametrize("p", [0.25, 0.4, 0.5, 0.65])
    def test_engines_produce_identical_reductions(self, small_powerlaw, p):
        legacy = LegacyBM2Shedder(seed=1).reduce(small_powerlaw, p)
        array = BM2Shedder(seed=1).reduce(small_powerlaw, p)
        assert array.reduced == legacy.reduced
        for key in self._STAT_KEYS:
            assert array.stats[key] == legacy.stats[key]
        assert array.delta == pytest.approx(legacy.delta, abs=1e-9)

    def test_engines_agree_with_shuffled_scan(self, small_powerlaw):
        legacy = LegacyBM2Shedder(seed=6, shuffle_edges=True).reduce(
            small_powerlaw, 0.5
        )
        array = BM2Shedder(seed=6, shuffle_edges=True).reduce(
            small_powerlaw, 0.5
        )
        assert array.reduced == legacy.reduced
        for key in self._STAT_KEYS:
            assert array.stats[key] == legacy.stats[key]

    @pytest.mark.parametrize("rounding", ["half_up", "half_even", "floor", "ceil"])
    def test_engines_agree_on_every_rounding_rule(self, small_powerlaw, rounding):
        legacy = LegacyBM2Shedder(rounding=rounding).reduce(small_powerlaw, 0.45)
        array = BM2Shedder(rounding=rounding).reduce(small_powerlaw, 0.45)
        assert array.reduced == legacy.reduced

    def test_engines_agree_with_zero_gain_edges(self, figure1):
        legacy = LegacyBM2Shedder(accept_zero_gain=True).reduce(figure1, 0.4)
        array = BM2Shedder(accept_zero_gain=True).reduce(figure1, 0.4)
        assert array.reduced == legacy.reduced

    def test_legacy_engine_matches_paper_example(self, figure1):
        result = LegacyBM2Shedder(seed=0).reduce(figure1, 0.4)
        assert result.delta == pytest.approx(4.4)
        assert result.stats["matched_edges"] == 2

    @pytest.mark.parametrize("engine", ["array", "legacy"])
    def test_phase_timings_recorded(self, small_powerlaw, engine):
        shedder = {"array": BM2Shedder, "legacy": LegacyBM2Shedder}[engine]()
        result = shedder.reduce(small_powerlaw, 0.5)
        assert result.stats["phase1_seconds"] >= 0.0
        assert result.stats["phase2_seconds"] >= 0.0


class TestBipartiteRepair:
    def _tracker(self, graph, p, matched):
        tracker = DegreeTracker(graph, p)
        for edge in matched:
            tracker.add_edge(*edge)
        return tracker

    def test_empty_candidates(self, figure1):
        tracker = self._tracker(figure1, 0.4, [("u7", "u9")])
        assert bipartite_repair(tracker, []) == []

    def test_negative_gain_edges_skipped(self, figure1):
        # u8 (dis >= 0 after matching u8-u10) is not a valid B node, but the
        # function trusts its caller; feed it a pair whose gain is negative.
        tracker = self._tracker(figure1, 0.4, [])
        # all dis are negative-expected; pick a pair with tiny |dis(b)|
        selected = bipartite_repair(tracker, [("u1", "u2")])
        # gain for a=u1 (dis -0.4), b=u2 (dis -0.4): 0.4+0.8-0.6-1 < 0
        assert selected == []

    def test_duplicate_candidates_rejected(self, figure1):
        tracker = self._tracker(figure1, 0.4, [])
        with pytest.raises(ReductionError):
            bipartite_repair(tracker, [("u7", "u1"), ("u7", "u1")])

    def test_selected_edges_added_to_tracker(self, figure1):
        tracker = self._tracker(figure1, 0.4, [("u7", "u9"), ("u8", "u10")])
        candidates = [("u7", leaf) for leaf in ("u1", "u2", "u3", "u4", "u5", "u6")]
        selected = bipartite_repair(tracker, candidates)
        assert len(selected) == 2  # u7's deficit absorbs exactly two leaves
        for a, b in selected:
            assert tracker.has_edge(a, b)

    def test_b_node_used_at_most_once(self, star4):
        # a = hub deficit; every leaf is a B candidate
        tracker = DegreeTracker(star4, 0.6)
        candidates = [(0, leaf) for leaf in (1, 2, 3, 4)]
        selected = bipartite_repair(tracker, candidates)
        used_b = [b for _, b in selected]
        assert len(used_b) == len(set(used_b))
