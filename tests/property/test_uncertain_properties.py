"""Property tests for the weighted tracker and engine degeneration.

Two families:

* the weighted :class:`ArrayDegreeTracker` against a brute-force oracle
  that recomputes ``Δ_E = Σ|E[deg_G'(v)] − p·E[deg_G(v)]|`` from scratch
  after every mutation;
* the weights=None / all-ones degeneration — the weighted engines must
  be *bit-identical* to the unweighted array engines (the expression
  shapes share association order by construction).
"""

import math

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.core import BM2Shedder, CRRShedder
from repro.graph import Graph
from repro.graph.generators import erdos_renyi, powerlaw_cluster
from repro.uncertain import WeightedBM2Shedder, WeightedCRRShedder
from tests.oracles.core import LabelTracker


@st.composite
def weighted_graphs(draw):
    """Small random weighted graphs with a derived mutation sequence."""
    n = draw(st.integers(5, 16))
    seed = draw(st.integers(0, 2**16))
    density = draw(st.floats(0.15, 0.5))
    graph = erdos_renyi(n, density, seed=seed)
    if graph.num_edges == 0:
        graph.add_edge(0, 1)
    rng = np.random.default_rng(seed)
    for u, v in list(graph.edges()):
        graph.set_edge_weight(u, v, float(rng.uniform(0.05, 1.0)))
    return graph


def _oracle_delta(original: Graph, tracker: LabelTracker, p: float) -> float:
    """Recompute Δ_E from the tracker's live edge set, the slow way."""
    csr = original.csr()
    mass = {node: 0.0 for node in csr.labels}
    for u, v in tracker.edges():
        w = original.edge_weight(u, v)
        mass[u] += w
        mass[v] += w
    return sum(
        abs(mass[node] - p * original.weighted_degree(node)) for node in csr.labels
    )


@given(weighted_graphs(), st.floats(0.2, 0.8), st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_weighted_tracker_matches_oracle_under_churn(graph, p, op_seed):
    """Incremental Δ bookkeeping equals brute-force recomputation."""
    tracker = LabelTracker(graph, p, weighted=True)
    edges = list(graph.edges())
    rng = np.random.default_rng(op_seed)
    # The tracker starts from the empty reduction; check there, then fill
    # it, then randomly remove and re-add edges, checking after each op.
    assert math.isclose(
        tracker.delta, _oracle_delta(graph, tracker, p), rel_tol=1e-9, abs_tol=1e-9
    )
    for u, v in edges:
        tracker.add_edge(u, v)
    assert math.isclose(
        tracker.delta, _oracle_delta(graph, tracker, p), rel_tol=1e-9, abs_tol=1e-9
    )
    removed = []
    order = rng.permutation(len(edges))
    for idx in order[: max(1, len(edges) // 2)]:
        u, v = edges[idx]
        tracker.remove_edge(u, v)
        removed.append((u, v))
        assert math.isclose(
            tracker.delta, _oracle_delta(graph, tracker, p), rel_tol=1e-9, abs_tol=1e-9
        )
    for u, v in removed:
        tracker.add_edge(u, v)
        assert math.isclose(
            tracker.delta, _oracle_delta(graph, tracker, p), rel_tol=1e-9, abs_tol=1e-9
        )


@given(weighted_graphs(), st.floats(0.2, 0.8))
@settings(max_examples=40, deadline=None)
def test_weighted_dis_matches_definition(graph, p):
    """dis(v) = current_mass(v) − p·E[deg(v)] for the full reduction."""
    tracker = LabelTracker(graph, p, weighted=True)
    for u, v in graph.edges():
        tracker.add_edge(u, v)
    for node in graph.nodes():
        expected = graph.weighted_degree(node)
        assert math.isclose(
            tracker.dis(node), expected - p * expected, rel_tol=1e-9, abs_tol=1e-9
        )
        assert math.isclose(
            tracker.expected_degree(node), p * expected, rel_tol=1e-9
        )


@given(st.integers(0, 2**16), st.floats(0.25, 0.75))
@settings(max_examples=15, deadline=None)
def test_all_ones_tracker_is_bit_identical(seed, p):
    """All-ones weighted tracker state == unweighted tracker state, exactly."""
    graph = powerlaw_cluster(40, 2, 0.3, seed=seed)
    ones = graph.copy()
    for u, v in ones.edges():
        ones.set_edge_weight(u, v, 1.0)
    plain = LabelTracker(graph, p, weighted=False)
    weighted = LabelTracker(ones, p, weighted=True)
    assert weighted.delta == plain.delta  # bit-equal, not approx
    edges = list(graph.edges())
    for u, v in edges:
        plain.add_edge(u, v)
        weighted.add_edge(u, v)
        assert weighted.delta == plain.delta
    for u, v in edges[: len(edges) // 2]:
        plain.remove_edge(u, v)
        weighted.remove_edge(u, v)
        assert weighted.delta == plain.delta
    for node in graph.nodes():
        assert weighted.dis(node) == plain.dis(node)


@given(st.integers(0, 2**16), st.sampled_from([0.3, 0.5, 0.7]))
@settings(max_examples=10, deadline=None)
def test_weighted_engines_degenerate_bit_identically(seed, p):
    """W-BM2/W-CRR on weights=None inputs == BM2/CRR array engines."""
    graph = powerlaw_cluster(50, 2, 0.3, seed=seed)
    bm2 = BM2Shedder(seed=0).reduce(graph, p)
    wbm2 = WeightedBM2Shedder(seed=0).reduce(graph, p)
    assert sorted(wbm2.reduced.edges()) == sorted(bm2.reduced.edges())
    assert wbm2.delta == bm2.delta
    crr = CRRShedder(seed=0).reduce(graph, p)
    wcrr = WeightedCRRShedder(seed=0).reduce(graph, p)
    assert sorted(wcrr.reduced.edges()) == sorted(crr.reduced.edges())
    assert wcrr.delta == crr.delta
