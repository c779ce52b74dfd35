"""Tests for the CSR adjacency export."""

import numpy as np
import pytest

from repro.errors import EdgeNotFoundError
from repro.graph import CSRAdjacency, Graph, star_graph


class TestCSRAdjacency:
    def test_shapes(self, triangle):
        csr = CSRAdjacency.from_graph(triangle)
        assert csr.num_nodes == 3
        assert csr.num_edges == 3
        assert csr.indptr.shape == (4,)
        assert csr.indices.shape == (6,)

    def test_empty_graph(self):
        csr = CSRAdjacency.from_graph(Graph())
        assert csr.num_nodes == 0
        assert csr.num_edges == 0

    def test_neighbors_sorted(self):
        g = Graph(edges=[(0, 3), (0, 1), (0, 2)])
        csr = CSRAdjacency.from_graph(g)
        hub = csr.index_of[0]
        assert list(csr.neighbors(hub)) == sorted(csr.neighbors(hub))

    def test_label_round_trip(self):
        g = Graph(edges=[("x", "y"), ("y", "z")])
        csr = CSRAdjacency.from_graph(g)
        for label in g.nodes():
            assert csr.labels[csr.index_of[label]] == label

    def test_degree_array_matches_graph(self, figure1):
        csr = CSRAdjacency.from_graph(figure1)
        degrees = csr.degree_array()
        for label, index in csr.index_of.items():
            assert degrees[index] == figure1.degree(label)

    def test_star_structure(self):
        csr = CSRAdjacency.from_graph(star_graph(5))
        assert csr.degree_array().max() == 5
        np.testing.assert_array_equal(np.sort(csr.neighbors(0)), np.arange(1, 6))

    def test_isolated_node_has_empty_slice(self):
        g = Graph(edges=[(0, 1)], nodes=[2])
        csr = CSRAdjacency.from_graph(g)
        assert csr.neighbors(csr.index_of[2]).size == 0


class TestEdgeIds:
    """``edge_ids_of``: the one place an endpoint pair becomes a snapshot edge id."""

    def test_ids_are_scan_positions_in_either_orientation(self, figure1):
        csr = figure1.csr()
        edge_u, edge_v = csr.edge_list_ids()
        ids = np.arange(edge_u.shape[0])
        np.testing.assert_array_equal(csr.edge_ids_of(edge_u, edge_v), ids)
        np.testing.assert_array_equal(csr.edge_ids_of(edge_v, edge_u), ids)

    def test_non_edges_get_minus_one(self, path5):
        csr = path5.csr()
        n = csr.num_nodes
        # (0, 2) and (2, 2) are absent; (0, n + 1) would alias key n + 1 = (1, 1)
        # and (-1, 3) key 3 = (0, 3) if out-of-range ids were not masked.
        got = csr.edge_ids_of(np.array([0, 2, 0, -1, 1]), np.array([2, 2, n + 1, 3, 0]))
        assert got.tolist() == [-1, -1, -1, -1, int(csr.edge_ids_of([0], [1])[0])]
        assert got[-1] >= 0

    def test_empty_input_and_empty_snapshot(self, triangle):
        empty = np.empty(0, dtype=np.int64)
        assert triangle.csr().edge_ids_of(empty, empty).shape == (0,)
        lonely = Graph(nodes=[0, 1]).csr()
        assert lonely.edge_ids_of(empty, empty).dtype == np.int64
        assert lonely.edge_ids_of(np.array([0]), np.array([1])).tolist() == [-1]

    def test_view_maps_local_pairs_to_its_own_ids(self, figure1):
        csr = figure1.csr()
        view = csr.view_of(np.arange(2, csr.num_nodes))
        local_u, local_v = view.edge_list_ids()
        ids = view.edge_ids_of(local_v, local_u)
        np.testing.assert_array_equal(ids, np.arange(local_u.shape[0]))
        # The same local pairs name other edges (or none) in the parent.
        parent = csr.edge_ids_of(view.to_global(local_u), view.to_global(local_v))
        parent_u, parent_v = csr.edge_list_ids()
        np.testing.assert_array_equal(parent_u[parent], view.to_global(local_u))
        np.testing.assert_array_equal(parent_v[parent], view.to_global(local_v))

    def test_existing_edge_ids_names_the_first_missing_pair(self, path5):
        csr = path5.csr()
        with pytest.raises(EdgeNotFoundError, match=r"edge \(0, 4\)"):
            csr.existing_edge_ids(np.array([0, 0, 1]), np.array([1, 4, 3]))
        with pytest.raises(EdgeNotFoundError, match=r"edge \(0, 9\)"):
            csr.existing_edge_ids(np.array([0]), np.array([9]))
