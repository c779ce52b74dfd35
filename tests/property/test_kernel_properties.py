"""Property tests: CSR array kernels agree with the legacy dict Brandes.

The legacy per-source dict implementation (kept in
``tests/oracles/graph.py`` as ``_legacy_*``) is the reference oracle: on
arbitrary graphs up to ~200 nodes the vectorised CSR kernels must
reproduce node and edge betweenness to 1e-9 and make the *identical*
top-k edge selection for identical seeds — CRR's Phase 1 depends on the
ranking, not just the scores.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.graph import (
    Graph,
    barabasi_albert,
    edge_betweenness,
    erdos_renyi,
    node_betweenness,
    powerlaw_cluster,
    top_edges_by_betweenness,
)
from tests.oracles.graph import (
    _legacy_edge_betweenness,
    _legacy_node_betweenness,
    _legacy_top_edges_by_betweenness,
)

# Arbitrary (possibly disconnected, possibly empty) small graphs.
edge_lists = st.lists(
    st.tuples(st.integers(0, 24), st.integers(0, 24)).filter(lambda e: e[0] != e[1]),
    max_size=80,
)

# Seeded generator graphs up to ~200 nodes exercise realistic topologies.
GENERATED = [
    erdos_renyi(200, 0.03, seed=11),
    erdos_renyi(150, 0.008, seed=12),  # sparse => disconnected
    barabasi_albert(200, 2, seed=13),
    powerlaw_cluster(180, 3, 0.4, seed=14),
]


def _diamond_chain_edges(num_diamonds):
    edges = []
    for i in range(num_diamonds):
        top, left, right, bottom = 3 * i, 3 * i + 1, 3 * i + 2, 3 * i + 3
        edges += [(top, left), (top, right), (left, bottom), (right, bottom)]
    return edges


# Adversarial structured topologies the random generators never hit:
# a diamond chain (many equal-length parallel paths => duplicate-heavy
# frontiers, sigma up to 2^25) and a long path (diameter ~ n => the
# sparse-frontier np.unique branch of the kernels).
STRUCTURED = [
    Graph(edges=_diamond_chain_edges(25)),
    Graph(edges=[(i, i + 1) for i in range(300)]),
]


@pytest.mark.parametrize("graph", STRUCTURED, ids=["diamond-chain", "path300"])
def test_structured_graphs_match_legacy(graph):
    kernel = edge_betweenness(graph)
    legacy = _legacy_edge_betweenness(graph)
    assert list(kernel) == list(legacy)
    for edge, value in legacy.items():
        assert kernel[edge] == pytest.approx(value, abs=1e-9)
    kernel_nodes = node_betweenness(graph)
    legacy_nodes = _legacy_node_betweenness(graph)
    for node, value in legacy_nodes.items():
        assert kernel_nodes[node] == pytest.approx(value, abs=1e-9)


@given(edge_lists)
@settings(max_examples=60, deadline=None)
def test_node_betweenness_matches_legacy(edges):
    graph = Graph(edges=edges)
    kernel = node_betweenness(graph, normalized=False)
    legacy = _legacy_node_betweenness(graph, normalized=False)
    assert set(kernel) == set(legacy)
    for node, value in legacy.items():
        assert kernel[node] == pytest.approx(value, abs=1e-9)


@given(edge_lists)
@settings(max_examples=60, deadline=None)
def test_edge_betweenness_matches_legacy(edges):
    graph = Graph(edges=edges)
    kernel = edge_betweenness(graph, normalized=False)
    legacy = _legacy_edge_betweenness(graph, normalized=False)
    # Same keys in the same (graph.edges) iteration order, same values.
    assert list(kernel) == list(legacy)
    for edge, value in legacy.items():
        assert kernel[edge] == pytest.approx(value, abs=1e-9)


@pytest.mark.parametrize("graph", GENERATED, ids=["er200", "er150-sparse", "ba200", "plc180"])
def test_generated_graphs_match_legacy(graph):
    kernel = edge_betweenness(graph)
    legacy = _legacy_edge_betweenness(graph)
    assert list(kernel) == list(legacy)
    for edge, value in legacy.items():
        assert kernel[edge] == pytest.approx(value, abs=1e-9)
    kernel_nodes = node_betweenness(graph)
    legacy_nodes = _legacy_node_betweenness(graph)
    for node, value in legacy_nodes.items():
        assert kernel_nodes[node] == pytest.approx(value, abs=1e-9)


@pytest.mark.parametrize("graph", GENERATED, ids=["er200", "er150-sparse", "ba200", "plc180"])
@pytest.mark.parametrize("seed", [0, 7, 123])
def test_top_edges_identical_selection(graph, seed):
    """Exact same ranked edge list as legacy, including random tie-breaks."""
    k = max(1, graph.num_edges // 3)
    kernel = top_edges_by_betweenness(graph, k, seed=seed, tie_seed=seed)
    legacy = _legacy_top_edges_by_betweenness(graph, k, seed=seed, tie_seed=seed)
    assert kernel == legacy


@pytest.mark.parametrize("graph", GENERATED[:2], ids=["er200", "er150-sparse"])
def test_sampled_estimator_matches_legacy(graph):
    """Sampled-source mode picks the same sources and sums the same way."""
    kernel = edge_betweenness(graph, num_sources=25, seed=99)
    legacy = _legacy_edge_betweenness(graph, num_sources=25, seed=99)
    assert list(kernel) == list(legacy)
    for edge, value in legacy.items():
        assert kernel[edge] == pytest.approx(value, abs=1e-9)
