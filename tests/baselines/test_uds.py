"""Tests for the UDS summarization baseline."""

import pytest

from repro.baselines import GraphSummary, UDSSummarizer
from repro.errors import InvalidRatioError
from tests.oracles.uds import LegacyUDSSummarizer


class TestUDSBasics:
    def test_result_metadata(self, small_powerlaw):
        result = UDSSummarizer(seed=0).reduce(small_powerlaw, 0.5)
        assert result.method == "UDS"
        assert isinstance(result.stats["summary"], GraphSummary)
        assert result.stats["threshold"] == 0.5

    def test_utility_respects_threshold(self, small_powerlaw):
        for p in (0.3, 0.6, 0.9):
            result = UDSSummarizer(seed=0).reduce(small_powerlaw, p)
            assert result.stats["final_utility"] >= p - 1e-9

    def test_lower_threshold_more_merging(self, small_powerlaw):
        high = UDSSummarizer(seed=0).reduce(small_powerlaw, 0.8)
        low = UDSSummarizer(seed=0).reduce(small_powerlaw, 0.2)
        assert low.stats["num_supernodes"] < high.stats["num_supernodes"]
        assert low.stats["merges"] > high.stats["merges"]

    def test_node_set_preserved(self, small_powerlaw):
        result = UDSSummarizer(seed=0).reduce(small_powerlaw, 0.5)
        assert set(result.reduced.nodes()) == set(small_powerlaw.nodes())

    def test_invalid_ratio(self, small_powerlaw):
        with pytest.raises(InvalidRatioError):
            UDSSummarizer().reduce(small_powerlaw, 1.5)

    def test_invalid_max_sweeps(self):
        with pytest.raises(ValueError):
            UDSSummarizer(max_sweeps=0)

    def test_invalid_rule(self, small_powerlaw):
        with pytest.raises(ValueError):
            UDSSummarizer(superedge_rule="bogus").reduce(small_powerlaw, 0.5)

    def test_deterministic_by_seed(self, small_powerlaw):
        a = UDSSummarizer(seed=9).reduce(small_powerlaw, 0.5).reduced
        b = UDSSummarizer(seed=9).reduce(small_powerlaw, 0.5).reduced
        assert a == b


class TestUDSQuality:
    def test_worse_delta_than_bm2(self, small_powerlaw):
        """The headline: UDS does not preserve degrees, BM2/CRR do."""
        from repro.core import BM2Shedder

        uds = UDSSummarizer(seed=0).reduce(small_powerlaw, 0.5)
        bm2 = BM2Shedder(seed=0).reduce(small_powerlaw, 0.5)
        assert uds.delta > 2 * bm2.delta

    def test_high_threshold_keeps_structure(self, small_powerlaw):
        """At tau close to 1 there is little merging; the reconstruction
        keeps most original edges."""
        result = UDSSummarizer(seed=0).reduce(small_powerlaw, 0.95)
        original_edges = {frozenset(e) for e in small_powerlaw.edges()}
        reconstructed = {frozenset(e) for e in result.reduced.edges()}
        kept = len(original_edges & reconstructed)
        assert kept >= 0.7 * len(original_edges)

    def test_both_superedge_rules_valid(self, small_powerlaw):
        """The two rules steer different merge trajectories; both must meet
        the utility threshold and produce non-trivial reconstructions."""
        for rule in ("majority", "cheaper"):
            result = UDSSummarizer(seed=0, superedge_rule=rule).reduce(small_powerlaw, 0.3)
            assert result.stats["final_utility"] >= 0.3 - 1e-9
            assert result.reduced.num_edges > 0

    def test_sampled_utilities_still_work(self, small_powerlaw):
        result = UDSSummarizer(seed=0, num_betweenness_sources=32).reduce(
            small_powerlaw, 0.5
        )
        assert result.stats["final_utility"] >= 0.5 - 1e-9

    def test_max_sweeps_caps_work(self, small_powerlaw):
        capped = UDSSummarizer(seed=0, max_sweeps=1).reduce(small_powerlaw, 0.1)
        free = UDSSummarizer(seed=0, max_sweeps=50).reduce(small_powerlaw, 0.1)
        assert capped.stats["merges"] <= free.stats["merges"]


class TestUDSEngines:
    """Array engine pinned against the legacy (frozenset) oracle in
    ``tests/oracles``.

    The engines scan merge candidates in different orders, so they are
    statistically equivalent (same invariants, comparable trajectories)
    rather than bit-identical — unlike the CRR/BM2 engine pairs.
    """

    def test_invalid_engine(self):
        # One implementation: there is no engine to select.
        with pytest.raises(TypeError):
            UDSSummarizer(engine="bogus")

    def test_legacy_engine_selectable(self, small_powerlaw):
        result = LegacyUDSSummarizer(seed=0).reduce(small_powerlaw, 0.5)
        assert result.stats["engine"] == "legacy"

    def test_engines_agree_statistically(self, small_powerlaw):
        for p in (0.3, 0.6):
            array = UDSSummarizer(seed=0).reduce(small_powerlaw, p)
            legacy = LegacyUDSSummarizer(seed=0).reduce(small_powerlaw, p)
            for result in (array, legacy):
                assert result.stats["final_utility"] >= p - 1e-9
            assert array.stats["merges"] == pytest.approx(
                legacy.stats["merges"], rel=0.3, abs=3
            )
            assert array.stats["final_utility"] == pytest.approx(
                legacy.stats["final_utility"], abs=0.1
            )

    def test_array_summary_partitions_nodes(self, small_powerlaw):
        result = UDSSummarizer(seed=0).reduce(small_powerlaw, 0.3)
        summary = result.stats["summary"]
        seen = set()
        for rep in summary.supernodes():
            members = summary.members(rep)
            assert not (members & seen)
            seen |= members
        assert seen == set(small_powerlaw.nodes())

    def test_array_superedges_reference_live_representatives(self, small_powerlaw):
        """The merge-log replay must land superedge keys on the summary's
        current representatives (the survivor rules must match)."""
        result = UDSSummarizer(seed=0).reduce(small_powerlaw, 0.3)
        summary = result.stats["summary"]
        for rep_a, rep_b in summary.superedges():
            assert summary.representative(rep_a) == rep_a
            assert summary.representative(rep_b) == rep_b

    def test_array_deterministic_by_seed(self, small_powerlaw):
        a = UDSSummarizer(seed=9).reduce(small_powerlaw, 0.5)
        b = UDSSummarizer(seed=9).reduce(small_powerlaw, 0.5)
        assert a.reduced == b.reduced
        assert a.stats["merges"] == b.stats["merges"]

    def test_both_rules_on_array_engine(self, small_powerlaw):
        for rule in ("majority", "cheaper"):
            result = UDSSummarizer(seed=0, superedge_rule=rule).reduce(small_powerlaw, 0.3)
            assert result.stats["final_utility"] >= 0.3 - 1e-9
            assert result.reduced.num_edges > 0
