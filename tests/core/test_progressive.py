"""Tests for progressive (nested) reduction."""

import pytest

from repro.core import BM2Shedder, CRRShedder, compute_delta, progressive_reduce
from repro.errors import ReductionError
from repro.graph.generators import erdos_renyi, powerlaw_cluster
from repro.service import make_shedder


class TestProgressiveReduce:
    def test_levels_are_nested(self, medium_powerlaw):
        results = progressive_reduce(
            BM2Shedder(seed=0), medium_powerlaw, [0.8, 0.5, 0.2]
        )
        assert len(results) == 3
        for outer, inner in zip(results, results[1:]):
            for u, v in inner.reduced.edges():
                assert outer.reduced.has_edge(u, v)

    def test_levels_are_subgraphs_of_original(self, medium_powerlaw):
        results = progressive_reduce(
            CRRShedder(seed=0, num_betweenness_sources=32), medium_powerlaw, [0.7, 0.3]
        )
        for result in results:
            for u, v in result.reduced.edges():
                assert medium_powerlaw.has_edge(u, v)

    def test_levels_that_do_not_nest_are_refused(self):
        graph = powerlaw_cluster(200, 3, 0.3, seed=1)
        with pytest.raises(ReductionError, match=r"^UDS level 0 \(p=0.8\) keeps 52 edges"):
            progressive_reduce(make_shedder("uds", seed=0), graph, [0.8, 0.5, 0.2])

    def test_absolute_ratios_recorded(self, medium_powerlaw):
        results = progressive_reduce(BM2Shedder(seed=0), medium_powerlaw, [0.8, 0.4])
        assert [r.p for r in results] == [0.8, 0.4]
        assert results[1].stats["relative_p"] == pytest.approx(0.5)

    def test_delta_scored_against_original(self, medium_powerlaw):
        results = progressive_reduce(BM2Shedder(seed=0), medium_powerlaw, [0.8, 0.4])
        for result in results:
            assert result.delta == pytest.approx(
                compute_delta(medium_powerlaw, result.reduced, result.p)
            )

    def test_edge_counts_close_to_targets(self, medium_powerlaw):
        results = progressive_reduce(BM2Shedder(seed=0), medium_powerlaw, [0.8, 0.4])
        m = medium_powerlaw.num_edges
        for result in results:
            assert result.reduced.num_edges <= result.p * m * 1.1 + 1

    def test_method_label(self, medium_powerlaw):
        results = progressive_reduce(BM2Shedder(seed=0), medium_powerlaw, [0.5])
        assert results[0].method == "BM2 (progressive)"

    def test_validation(self, medium_powerlaw):
        shedder = BM2Shedder(seed=0)
        with pytest.raises(ReductionError):
            progressive_reduce(shedder, medium_powerlaw, [])
        with pytest.raises(ReductionError):
            progressive_reduce(shedder, medium_powerlaw, [0.5, 0.5])
        with pytest.raises(ReductionError):
            progressive_reduce(shedder, medium_powerlaw, [0.3, 0.6])
        with pytest.raises(ReductionError):
            progressive_reduce(shedder, medium_powerlaw, [1.2])

    @pytest.mark.parametrize(
        "shedder, ratios",
        [
            (BM2Shedder(), [0.5, 0.03, 0.01]),
            (CRRShedder(seed=0), [0.5, 0.03, 0.01, 0.001]),
        ],
        ids=["bm2", "crr"],
    )
    def test_levels_after_an_edgeless_level_stay_edgeless(self, shedder, ratios):
        graph = erdos_renyi(20, 0.2, seed=1)
        results = progressive_reduce(shedder, graph, ratios)
        assert [r.p for r in results] == ratios
        first_empty = next(
            i for i, r in enumerate(results) if r.reduced.num_edges == 0
        )
        assert first_empty < len(ratios) - 1
        for index in range(first_empty + 1, len(ratios)):
            result, previous = results[index], results[index - 1]
            assert result.reduced is not previous.reduced
            assert result.reduced.num_edges == 0
            assert list(result.reduced.nodes()) == list(graph.nodes())
            assert result.delta == compute_delta(graph, result.reduced, result.p)
            assert result.elapsed_seconds == 0.0
            assert result.stats == {
                "relative_p": ratios[index] / ratios[index - 1],
                "level": index,
            }
