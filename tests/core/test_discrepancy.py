"""Tests for the ArrayDegreeTracker and Δ computation.

The label-keyed contract runs against the dict ``DegreeTracker`` oracle
and against the array tracker addressed by labels (``LabelTracker``).
"""

import numpy as np
import pytest

from repro.core import compute_delta, round_half_up
from repro.errors import EdgeNotFoundError, InvalidRatioError, ReductionError
from repro.graph import Graph
from tests.oracles.core import DegreeTracker, IdsView, LabelTracker


@pytest.fixture(params=[DegreeTracker, LabelTracker], ids=["dict", "array"])
def tracker_cls(request):
    """Both tracker flavours must satisfy the same label-keyed contract."""
    return request.param


class TestRoundHalfUp:
    @pytest.mark.parametrize(
        "value, expected",
        [(0.4, 0), (0.5, 1), (1.5, 2), (2.4, 2), (2.5, 3), (4.4, 4), (10.0, 10)],
    )
    def test_positive(self, value, expected):
        assert round_half_up(value) == expected

    @pytest.mark.parametrize("value, expected", [(-0.4, 0), (-0.5, -1), (-1.5, -2)])
    def test_negative(self, value, expected):
        assert round_half_up(value) == expected

    def test_differs_from_bankers(self):
        assert round_half_up(2.5) == 3
        assert round(2.5) == 2  # Python's banker's rounding, by contrast


class TestTrackerBasics:
    def test_invalid_ratio(self, triangle, tracker_cls):
        with pytest.raises(InvalidRatioError):
            tracker_cls(triangle, 0.0)
        with pytest.raises(InvalidRatioError):
            tracker_cls(triangle, 1.0)

    def test_initial_state(self, star4, tracker_cls):
        tracker = tracker_cls(star4, 0.5)
        # empty edge set: delta = sum of expected degrees = p * 2|E|
        assert tracker.delta == pytest.approx(0.5 * 2 * star4.num_edges)
        assert tracker.num_edges == 0
        assert tracker.dis(0) == pytest.approx(-2.0)

    def test_expected_degree(self, figure1, tracker_cls):
        tracker = tracker_cls(figure1, 0.4)
        assert tracker.expected_degree("u7") == pytest.approx(2.8)
        assert tracker.expected_degree("u1") == pytest.approx(0.4)

    def test_average_delta(self, star4, tracker_cls):
        tracker = tracker_cls(star4, 0.5)
        assert tracker.average_delta() == pytest.approx(tracker.delta / 5)


class TestTrackerMutation:
    def test_add_edge_updates_dis(self, triangle, tracker_cls):
        tracker = tracker_cls(triangle, 0.5)
        tracker.add_edge(0, 1)
        assert tracker.current_degree(0) == 1
        assert tracker.dis(0) == pytest.approx(0.0)
        assert tracker.has_edge(1, 0)

    def test_add_foreign_edge_rejected(self, path5, tracker_cls):
        tracker = tracker_cls(path5, 0.5)
        with pytest.raises(EdgeNotFoundError):
            tracker.add_edge(0, 4)

    def test_double_add_rejected(self, triangle, tracker_cls):
        tracker = tracker_cls(triangle, 0.5)
        tracker.add_edge(0, 1)
        with pytest.raises(ReductionError):
            tracker.add_edge(1, 0)

    def test_remove_untracked_rejected(self, triangle, tracker_cls):
        tracker = tracker_cls(triangle, 0.5)
        with pytest.raises(EdgeNotFoundError):
            tracker.remove_edge(0, 1)

    def test_add_remove_round_trip(self, figure1, tracker_cls):
        tracker = tracker_cls(figure1, 0.4)
        before = tracker.delta
        tracker.add_edge("u1", "u7")
        tracker.remove_edge("u1", "u7")
        assert tracker.delta == pytest.approx(before)
        assert tracker.num_edges == 0

    def test_delta_matches_from_scratch(self, figure1, tracker_cls):
        tracker = tracker_cls(figure1, 0.4)
        kept = [("u1", "u7"), ("u7", "u9"), ("u8", "u10")]
        for edge in kept:
            tracker.add_edge(*edge)
        reduced = figure1.edge_subgraph(kept)
        assert tracker.delta == pytest.approx(compute_delta(figure1, reduced, 0.4))


class TestHypotheticalMoves:
    def test_add_change_matches_paper_formula(self, figure1, tracker_cls):
        tracker = tracker_cls(figure1, 0.4)
        du, dv = tracker.dis("u8"), tracker.dis("u10")
        expected = abs(du + 1) + abs(dv + 1) - (abs(du) + abs(dv))
        assert tracker.add_change("u8", "u10") == pytest.approx(expected)

    def test_remove_change_matches_paper_formula(self, figure1, tracker_cls):
        tracker = tracker_cls(figure1, 0.4)
        tracker.add_edge("u5", "u7")
        du, dv = tracker.dis("u5"), tracker.dis("u7")
        expected = abs(du - 1) + abs(dv - 1) - (abs(du) + abs(dv))
        assert tracker.remove_change("u5", "u7") == pytest.approx(expected)

    def test_swap_change_disjoint_equals_d1_plus_d2(self, figure1, tracker_cls):
        """The paper's worked swap: d1 + d2 = -2.4."""
        tracker = tracker_cls(figure1, 0.4)
        for edge in [("u1", "u7"), ("u2", "u7"), ("u7", "u9"), ("u5", "u7")]:
            tracker.add_edge(*edge)
        # Example 1 swaps out (u5,u7) and in (u8,u10): total change -2.4.
        change = tracker.swap_change(("u5", "u7"), ("u8", "u10"))
        d1 = tracker.remove_change("u5", "u7")
        d2 = tracker.add_change("u8", "u10")
        assert change == pytest.approx(d1 + d2)
        assert change == pytest.approx(-2.4)

    def test_swap_change_shared_endpoint_exact(self, figure1, tracker_cls):
        """With a shared endpoint, swap_change is exact while d1+d2 is not."""
        tracker = tracker_cls(figure1, 0.4)
        tracker.add_edge("u1", "u7")
        before = tracker.delta
        change = tracker.swap_change(("u1", "u7"), ("u2", "u7"))
        tracker.apply_swap(("u1", "u7"), ("u2", "u7"))
        assert tracker.delta == pytest.approx(before + change)

    def test_apply_swap_consistency(self, figure1, tracker_cls):
        tracker = tracker_cls(figure1, 0.4)
        tracker.add_edge("u1", "u7")
        predicted = tracker.swap_change(("u1", "u7"), ("u8", "u10"))
        before = tracker.delta
        tracker.apply_swap(("u1", "u7"), ("u8", "u10"))
        assert tracker.delta == pytest.approx(before + predicted)


class TestArrayTracker:
    """Behaviour specific to the array tracker: the id API and batched moves."""

    def _ids(self, tracker, *labels):
        return [tracker._csr.index_of[label] for label in labels]

    def test_dis_matches_dict_tracker_bitwise(self, figure1):
        oracle = DegreeTracker(figure1, 0.4)
        tracker = LabelTracker(figure1, 0.4)
        for edge in [("u1", "u7"), ("u7", "u9"), ("u8", "u10")]:
            oracle.add_edge(*edge)
            tracker.add_edge(*edge)
        for node in figure1.nodes():
            assert tracker.dis(node) == oracle.dis(node)  # bitwise, not approx
        assert tracker.delta == pytest.approx(oracle.delta, abs=1e-9)

    def test_id_api_mirrors_label_api(self, figure1):
        by_label = LabelTracker(figure1, 0.4)
        by_id = LabelTracker(figure1, 0.4)
        u, v = self._ids(by_id, "u1", "u7")
        by_label.add_edge("u1", "u7")
        by_id.add_edge_ids(u, v)
        assert by_id.delta == by_label.delta
        assert by_id.has_edge("u1", "u7")
        by_id.remove_edge_ids(u, v)
        by_label.remove_edge("u1", "u7")
        assert by_id.delta == by_label.delta
        assert by_id.num_edges == 0

    def test_add_edge_ids_validates_like_scalar(self, path5):
        tracker = LabelTracker(path5, 0.5)
        with pytest.raises(EdgeNotFoundError):
            tracker.add_edge_ids(0, 4)  # not a graph edge
        tracker.add_edge_ids(0, 1)
        with pytest.raises(ReductionError):
            tracker.add_edge_ids(1, 0)  # already tracked
        with pytest.raises(EdgeNotFoundError):
            tracker.remove_edge_ids(1, 2)  # never tracked

    def test_bulk_add_matches_scalar_adds(self, figure1):
        scalar = LabelTracker(figure1, 0.4)
        bulk = LabelTracker(figure1, 0.4)
        edges = [("u1", "u7"), ("u2", "u7"), ("u7", "u9"), ("u8", "u10")]
        for edge in edges:
            scalar.add_edge(*edge)
        ids = [self._ids(bulk, u, v) for u, v in edges]
        bulk.add_edges_ids(
            np.array([u for u, _ in ids]), np.array([v for _, v in ids])
        )
        assert bulk.num_edges == scalar.num_edges
        assert bulk.delta == pytest.approx(scalar.delta, abs=1e-9)
        np.testing.assert_array_equal(bulk.dis_array(), scalar.dis_array())

    def test_bulk_add_rejects_duplicates_within_batch(self, triangle):
        tracker = LabelTracker(triangle, 0.5)
        with pytest.raises(ReductionError):
            tracker.add_edges_ids(np.array([0, 1]), np.array([1, 0]))

    def test_bulk_add_rejects_already_tracked(self, triangle):
        tracker = LabelTracker(triangle, 0.5)
        tracker.add_edge(0, 1)
        with pytest.raises(ReductionError):
            tracker.add_edges_ids(np.array([1]), np.array([0]))

    def test_bulk_add_rejects_foreign_edges(self, path5):
        tracker = LabelTracker(path5, 0.5)
        with pytest.raises(EdgeNotFoundError):
            tracker.add_edges_ids(np.array([0]), np.array([4]))

    def test_admit_matches_scalar_adds_bitwise(self, figure1):
        """Distinct-endpoint admission replays scalar adds exactly (Δ order)."""
        scalar = LabelTracker(figure1, 0.4)
        batch = LabelTracker(figure1, 0.4)
        edges = [("u1", "u7"), ("u8", "u10"), ("u9", "u11")]
        for edge in edges:
            scalar.add_edge(*edge)
        ids = [self._ids(batch, u, v) for u, v in edges]
        batch.admit_edges_ids(
            np.array([u for u, _ in ids]), np.array([v for _, v in ids])
        )
        assert batch.delta == scalar.delta  # bitwise, not approx
        np.testing.assert_array_equal(batch.dis_array(), scalar.dis_array())
        assert batch.num_edges == scalar.num_edges

    def test_admit_repeated_endpoints_falls_back_to_scalar(self, figure1):
        """Shared endpoints in a batch still match the sequential oracle."""
        scalar = LabelTracker(figure1, 0.4)
        batch = LabelTracker(figure1, 0.4)
        edges = [("u1", "u7"), ("u2", "u7"), ("u7", "u9")]  # u7 repeats
        for edge in edges:
            scalar.add_edge(*edge)
        ids = [self._ids(batch, u, v) for u, v in edges]
        batch.admit_edges_ids(
            np.array([u for u, _ in ids]), np.array([v for _, v in ids])
        )
        assert batch.delta == scalar.delta
        np.testing.assert_array_equal(batch.dis_array(), scalar.dis_array())

    def test_admit_empty_batch_is_noop(self, triangle):
        tracker = LabelTracker(triangle, 0.5)
        before = tracker.delta
        tracker.admit_edges_ids(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        )
        assert tracker.delta == before
        assert tracker.num_edges == 0

    def test_admit_validates_and_leaves_tracker_untouched(self, path5):
        """On the vectorized (distinct-endpoint) path, a bad batch is atomic."""
        tracker = LabelTracker(path5, 0.5)
        with pytest.raises(EdgeNotFoundError):
            tracker.admit_edges_ids(np.array([0, 2]), np.array([1, 4]))  # (2,4) foreign
        assert tracker.num_edges == 0  # nothing from the failed batch landed
        tracker.add_edge_ids(0, 1)
        with pytest.raises(ReductionError):
            tracker.admit_edges_ids(np.array([1]), np.array([0]))  # already tracked
        assert tracker.num_edges == 1

    def test_batched_changes_match_scalar(self, figure1):
        tracker = LabelTracker(figure1, 0.4)
        for edge in [("u1", "u7"), ("u7", "u9"), ("u8", "u10")]:
            tracker.add_edge(*edge)
        csr = figure1.csr()
        edge_u, edge_v = csr.edge_list_ids()
        labels = csr.labels
        added = tracker.add_change_ids(edge_u, edge_v)
        removed = tracker.remove_change_ids(edge_u, edge_v)
        for k, (u, v) in enumerate(zip(edge_u.tolist(), edge_v.tolist())):
            assert added[k] == tracker.add_change(labels[u], labels[v])
            assert removed[k] == tracker.remove_change(labels[u], labels[v])

    def test_batched_swap_change_handles_shared_endpoints(self, figure1):
        tracker = LabelTracker(figure1, 0.4)
        tracker.add_edge("u1", "u7")
        tracker.add_edge("u7", "u9")
        u1, u2, u7, u9, u8, u10 = self._ids(
            tracker, "u1", "u2", "u7", "u9", "u8", "u10"
        )
        # Batch mixes disjoint swaps with ones sharing an endpoint (u7).
        out_u = np.array([u1, u1, u7])
        out_v = np.array([u7, u7, u9])
        in_u = np.array([u8, u2, u2])
        in_v = np.array([u10, u7, u7])
        batched = tracker.swap_change_ids(out_u, out_v, in_u, in_v)
        for k in range(3):
            exact = tracker.swap_change_scalar_ids(
                int(out_u[k]), int(out_v[k]), int(in_u[k]), int(in_v[k])
            )
            if k == 0:
                # Disjoint swap: the vector d1+d2 differs from the scalar
                # touched-set loop only in summation order (~1e-16 noise,
                # far inside the acceptance threshold's 1e-9 guard band).
                assert batched[k] == pytest.approx(exact, abs=1e-12)
            else:
                # Shared endpoint (u7): recomputed with the exact scalar
                # joint formula, so the match is bitwise.
                assert batched[k] == exact

    def test_ids_view_proxies_tracker(self, figure1):
        tracker = LabelTracker(figure1, 0.4)
        view = IdsView(tracker.tracker)
        u7, u9 = self._ids(tracker, "u7", "u9")
        assert view.dis(u7) == tracker.dis("u7")
        view.add_edge(u7, u9)
        assert tracker.has_edge("u7", "u9")
        assert view.dis(u7) == tracker.dis("u7")

    def test_edges_returns_labels(self, figure1):
        tracker = LabelTracker(figure1, 0.4)
        tracker.add_edge("u7", "u9")
        tracker.add_edge("u8", "u10")
        assert {frozenset(e) for e in tracker.edges()} == {
            frozenset(("u7", "u9")),
            frozenset(("u8", "u10")),
        }


class TestComputeDelta:
    def test_empty_reduction(self, star4):
        reduced = star4.edge_subgraph([])
        assert compute_delta(star4, reduced, 0.5) == pytest.approx(0.5 * 2 * 4)

    def test_full_graph(self, star4):
        assert compute_delta(star4, star4, 0.5) == pytest.approx(0.5 * 2 * 4)

    def test_missing_nodes_count_as_zero_degree(self, triangle):
        reduced = Graph(edges=[(0, 1)])  # node 2 absent entirely
        # expected degrees are 0.5*2 = 1: nodes 0/1 hit it, node 2 misses by 1
        assert compute_delta(triangle, reduced, 0.5) == pytest.approx(1.0)

    def test_invalid_ratio(self, triangle):
        with pytest.raises(InvalidRatioError):
            compute_delta(triangle, triangle, 1.5)
