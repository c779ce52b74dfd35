"""Property tests pinning the array shedding engines to their scalar oracles.

The dict-based ``DegreeTracker`` and the label-space CRR/BM2 shedders in
``tests/oracles`` are the reference semantics; :class:`ArrayDegreeTracker`
and :class:`CRRShedder` / :class:`BM2Shedder` must replay them — identical
``dis`` per node (bitwise), ``Δ`` within float-association noise, and
identical reduced graphs under the same seed.
"""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.core import BM2Shedder, CRRShedder
from repro.graph import Graph
from tests.oracles.core import (
    DegreeTracker,
    LabelTracker,
    LegacyBM2Shedder,
    LegacyCRRShedder,
)

_RATIOS = [0.25, 0.4, 0.5, 0.6, 0.75]


@st.composite
def graph_and_ratio(draw):
    n = draw(st.integers(2, 12))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda e: e[0] != e[1]
            ),
            min_size=1,
            max_size=3 * n,
        )
    )
    g = Graph(edges=edges, nodes=range(n))
    p = draw(st.sampled_from(_RATIOS))
    return g, p


@st.composite
def tracker_scenario(draw):
    g, p = draw(graph_and_ratio())
    # Opcode stream interpreted against the live tracked/untracked pools:
    # 0 = add, 1 = remove, 2 = swap (indices wrap around the pool sizes, so
    # shared-endpoint swaps arise naturally).
    ops = draw(
        st.lists(
            st.tuples(
                st.integers(0, 2), st.integers(0, 10**6), st.integers(0, 10**6)
            ),
            max_size=40,
        )
    )
    return g, p, ops


@given(tracker_scenario())
@settings(max_examples=60, deadline=None)
def test_array_tracker_replays_dict_oracle(scenario):
    g, p, ops = scenario
    oracle = DegreeTracker(g, p)
    tracker = LabelTracker(g, p)
    tracked = []
    untracked = list(g.edges())
    for op, i, j in ops:
        if op == 0 and untracked:
            edge = untracked.pop(i % len(untracked))
            oracle.add_edge(*edge)
            tracker.add_edge(*edge)
            tracked.append(edge)
        elif op == 1 and tracked:
            edge = tracked.pop(i % len(tracked))
            oracle.remove_edge(*edge)
            tracker.remove_edge(*edge)
            untracked.append(edge)
        elif op == 2 and tracked and untracked:
            edge_out = tracked.pop(i % len(tracked))
            edge_in = untracked.pop(j % len(untracked))
            predicted = oracle.swap_change(edge_out, edge_in)
            assert tracker.swap_change(edge_out, edge_in) == pytest.approx(
                predicted, abs=1e-9
            )
            oracle.apply_swap(edge_out, edge_in)
            tracker.apply_swap(edge_out, edge_in)
            tracked.append(edge_in)
            untracked.append(edge_out)
        assert tracker.num_edges == oracle.num_edges
        assert tracker.delta == pytest.approx(oracle.delta, abs=1e-9)
    for node in g.nodes():
        assert tracker.dis(node) == oracle.dis(node)  # bitwise, not approx
        assert tracker.current_degree(node) == oracle.current_degree(node)
    for u, v in g.edges():
        assert tracker.has_edge(u, v) == oracle.has_edge(u, v)


@given(graph_and_ratio(), st.integers(0, 2**40))
@settings(max_examples=40, deadline=None)
def test_bulk_add_matches_scalar_adds(scenario, subset_bits):
    """add_edges on any edge subset leaves the same state as scalar adds."""
    g, p = scenario
    edges = [e for k, e in enumerate(g.edges()) if (subset_bits >> k) & 1]
    scalar = LabelTracker(g, p)
    for u, v in edges:
        scalar.add_edge(u, v)
    bulk = LabelTracker(g, p)
    bulk.add_edges(np.array([bulk.edge_id(u, v) for u, v in edges], dtype=np.int64))
    assert bulk.num_edges == scalar.num_edges
    assert bulk.delta == pytest.approx(scalar.delta, abs=1e-9)
    np.testing.assert_array_equal(bulk.dis_array(), scalar.dis_array())


@given(graph_and_ratio(), st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_crr_engines_agree_end_to_end(scenario, seed):
    g, p = scenario
    legacy = LegacyCRRShedder(seed=seed).reduce(g, p)
    array = CRRShedder(seed=seed).reduce(g, p)
    assert array.reduced == legacy.reduced
    assert array.stats["accepted_swaps"] == legacy.stats["accepted_swaps"]
    assert array.stats["attempted_swaps"] == legacy.stats["attempted_swaps"]
    assert array.delta == pytest.approx(legacy.delta, abs=1e-9)


@given(
    graph_and_ratio(),
    st.booleans(),
    st.sampled_from(["half_up", "half_even", "floor", "ceil"]),
)
@settings(max_examples=25, deadline=None)
def test_bm2_engines_agree_end_to_end(scenario, shuffle, rounding):
    g, p = scenario
    legacy = LegacyBM2Shedder(seed=11, shuffle_edges=shuffle, rounding=rounding).reduce(g, p)
    array = BM2Shedder(seed=11, shuffle_edges=shuffle, rounding=rounding).reduce(g, p)
    assert array.reduced == legacy.reduced
    assert array.stats["matched_edges"] == legacy.stats["matched_edges"]
    assert array.stats["repair_edges"] == legacy.stats["repair_edges"]
    assert array.delta == pytest.approx(legacy.delta, abs=1e-9)
