"""Tests for the Theorem 1/2 bound functions."""

import pytest

from repro.core import (
    BM2Shedder,
    bm2_average_delta_bound,
    bm2_bound_for_graph,
    crr_average_delta_bound,
    crr_bound_for_graph,
)
from repro.core.bounds import bm2_delta_envelope
from repro.errors import InvalidRatioError
from repro.graph import erdos_renyi, powerlaw_cluster


class TestCRRBound:
    def test_formula(self):
        # 4 * 0.5 * 0.5 * 100 / 50 = 2.0
        assert crr_average_delta_bound(0.5, 100, 50) == pytest.approx(2.0)

    def test_symmetric_in_p(self):
        assert crr_average_delta_bound(0.3, 100, 50) == pytest.approx(
            crr_average_delta_bound(0.7, 100, 50)
        )

    def test_maximised_at_half(self):
        at_half = crr_average_delta_bound(0.5, 100, 50)
        assert crr_average_delta_bound(0.2, 100, 50) < at_half
        assert crr_average_delta_bound(0.9, 100, 50) < at_half

    def test_invalid_p(self):
        with pytest.raises(InvalidRatioError):
            crr_average_delta_bound(1.0, 10, 10)

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            crr_average_delta_bound(0.5, 10, 0)
        with pytest.raises(ValueError):
            crr_average_delta_bound(0.5, -1, 10)

    def test_graph_helper(self, figure1):
        expected = crr_average_delta_bound(0.4, 11, 11)
        assert crr_bound_for_graph(figure1, 0.4) == pytest.approx(expected)


class TestBM2Bound:
    def test_formula(self):
        # 0.5 + 0.5 * 100 / 50 = 1.5
        assert bm2_average_delta_bound(0.5, 100, 50) == pytest.approx(1.5)

    def test_decreasing_in_p(self):
        assert bm2_average_delta_bound(0.9, 100, 50) < bm2_average_delta_bound(0.1, 100, 50)

    def test_floor_is_half(self):
        assert bm2_average_delta_bound(0.999, 0, 50) == pytest.approx(0.5)

    def test_invalid_p(self):
        with pytest.raises(InvalidRatioError):
            bm2_average_delta_bound(0.0, 10, 10)

    def test_graph_helper(self, figure1):
        expected = bm2_average_delta_bound(0.4, 11, 11)
        assert bm2_bound_for_graph(figure1, 0.4) == pytest.approx(expected)


class TestBM2Envelope:
    @pytest.mark.parametrize(
        "rounding, slack",
        [("half_up", 0.75), ("half_even", 0.75), ("floor", 1.5), ("ceil", 1.0), (None, 1.5)],
    )
    def test_formula(self, rounding, slack):
        # rho + p * r_lo + 2 * 0.5 * 0.5 * 100 / 50, at p = 0.5
        assert bm2_delta_envelope(0.5, 100, 50, rounding) == pytest.approx(slack + 1.0)

    def test_above_theorem_2_figure_past_half(self):
        assert bm2_delta_envelope(0.9, 2000, 50) > bm2_average_delta_bound(0.9, 2000, 50)
        assert bm2_delta_envelope(0.2, 2000, 50, "half_up") < bm2_average_delta_bound(0.2, 2000, 50)

    def test_invalid_arguments(self):
        with pytest.raises(InvalidRatioError):
            bm2_delta_envelope(1.0, 10, 10)
        with pytest.raises(ValueError):
            bm2_delta_envelope(0.5, 10, 0)

    @pytest.mark.parametrize("rounding", ["half_up", "half_even", "floor", "ceil"])
    @pytest.mark.parametrize("p", [0.15, 0.5, 0.85, 0.95])
    def test_bm2_runs_stay_inside(self, rounding, p):
        for graph in (erdos_renyi(40, 0.8, seed=3), powerlaw_cluster(80, 6, 0.3, seed=3)):
            for settings in (
                {},
                {"accept_zero_gain": True},
                {"sparsify": "edcs", "sparsify_beta": 1},
            ):
                result = BM2Shedder(seed=0, rounding=rounding, **settings).reduce(graph, p)
                envelope = bm2_delta_envelope(p, graph.num_edges, graph.num_nodes, rounding)
                assert result.average_delta <= envelope + 1e-9
