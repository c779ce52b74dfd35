"""Tests for graph I/O."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph import (
    Graph,
    graph_from_payload,
    read_edge_list,
    read_edge_list_with_summary,
    read_json,
    write_edge_list,
    write_json,
)
from repro.graph.csr import CSRAdjacency
from repro.service.request import make_shedder
from repro.service.scheduler import _reduce_job


class TestEdgeList:
    def test_round_trip(self, tmp_path, figure1):
        path = tmp_path / "g.txt"
        write_edge_list(figure1, path)
        loaded = read_edge_list(path)
        assert loaded == figure1

    def test_header_written(self, tmp_path, triangle):
        path = tmp_path / "g.txt"
        write_edge_list(triangle, path, header="my graph")
        content = path.read_text()
        assert content.startswith("# my graph")
        assert "# nodes: 3 edges: 3" in content

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# comment\n\n% other comment\n1 2\n2 3\n")
        g = read_edge_list(path)
        assert g.num_edges == 2

    def test_integer_nodes_parsed(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("1\t2\n")
        g = read_edge_list(path)
        assert g.has_edge(1, 2)
        assert not g.has_node("1")

    def test_string_nodes_preserved(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("alice bob\n")
        g = read_edge_list(path)
        assert g.has_edge("alice", "bob")

    def test_self_loops_skipped(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("1 1\n1 2\n")
        g = read_edge_list(path)
        assert g.num_edges == 1

    def test_duplicate_lines_collapse(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("1 2\n2 1\n1 2\n")
        assert read_edge_list(path).num_edges == 1

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("justonetoken\n")
        with pytest.raises(GraphError):
            read_edge_list(path)


class TestParseSummary:
    def test_counts_all_line_categories(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# header\n\n% note\n1 2\n2 1\n3 3\n2 3\n")
        graph, summary = read_edge_list_with_summary(path)
        assert graph.num_edges == 2
        assert summary.lines_total == 7
        assert summary.comment_lines == 3
        assert summary.edges_added == 2
        assert summary.self_loops_skipped == 1
        assert summary.duplicates_skipped == 1
        assert summary.skipped == 2

    def test_clean_file_has_nothing_skipped(self, tmp_path, figure1):
        path = tmp_path / "g.txt"
        write_edge_list(figure1, path)
        graph, summary = read_edge_list_with_summary(path)
        assert graph == figure1
        assert summary.skipped == 0
        assert summary.edges_added == figure1.num_edges

    def test_describe_mentions_counts(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("1 1\n1 2\n")
        _, summary = read_edge_list_with_summary(path)
        text = summary.describe()
        assert "1 self-loops skipped" in text
        assert "1 edges kept" in text

    def test_read_edge_list_matches_summary_variant(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("1 2\n2 1\n3 1\n")
        assert read_edge_list(path) == read_edge_list_with_summary(path)[0]


class TestJSON:
    def test_round_trip_with_isolates(self, tmp_path):
        g = Graph(edges=[(1, 2)], nodes=[5])
        path = tmp_path / "g.json"
        write_json(g, path)
        loaded = read_json(path)
        assert loaded == g
        assert loaded.has_node(5)

    def test_round_trip_figure1(self, tmp_path, figure1):
        path = tmp_path / "g.json"
        write_json(figure1, path)
        assert read_json(path) == figure1

    def test_malformed_payload(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"not": "a graph"}')
        with pytest.raises(GraphError):
            read_json(path)

    def test_malformed_edge_entry(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"nodes": [1, 2], "edges": [[1, 2, 3]]}')
        with pytest.raises(GraphError):
            read_json(path)

    @pytest.mark.parametrize(
        "payload",
        [
            {"nodes": [], "edges": [[[1], [2]]]},  # unhashable labels
            {"nodes": [[1], 2], "edges": []},
            {"nodes": [1, 2], "edges": [7]},  # an int edge entry
            {"nodes": 5, "edges": []},  # non-iterable nodes
            {"nodes": [1, 2], "edges": [[1, 2]], "weights": 0.5},  # scalar weights
            {"nodes": [1, 2], "edges": [[1, 2]], "weights": ["heavy"]},
            {"nodes": [1], "edges": [[1, 1]]},  # a self-loop
        ],
    )
    def test_malformed_payload_shapes_raise_graph_error(self, payload):
        with pytest.raises(GraphError, match=r"^where: "):
            graph_from_payload(payload, where="where")

    def test_nan_payload_weight_stored_as_given(self):
        graph = graph_from_payload({"nodes": [], "edges": [[1, 2]], "weights": [float("nan")]})
        assert np.isnan(graph.edge_weight(1, 2))


class TestSnapshotMemo:
    """Ingest builds the CSR snapshot once; reductions reuse it."""

    @pytest.fixture
    def from_graph_calls(self, monkeypatch):
        calls = []
        build = CSRAdjacency.from_graph.__func__

        def counting(cls, graph):
            calls.append(graph)
            return build(cls, graph)

        monkeypatch.setattr(CSRAdjacency, "from_graph", classmethod(counting))
        return calls

    @pytest.fixture
    def path(self, tmp_path, small_powerlaw):
        path = tmp_path / "g.txt"
        write_edge_list(small_powerlaw, path)
        return path

    def test_reader_memoises_snapshot(self, path):
        assert read_edge_list(path).cached_csr() is not None

    def test_reduce_reuses_reader_snapshot(self, path, from_graph_calls):
        graph = read_edge_list(path)
        make_shedder("bm2-sparse", seed=1).reduce(graph, 0.4)
        assert from_graph_calls == []

    def test_process_worker_reuses_payload_snapshot(self, path, from_graph_calls):
        csr = read_edge_list(path).csr()
        u_ids, v_ids = csr.edge_list_ids()
        payload = (csr.labels, u_ids, v_ids, None, "bm2-sparse", 0.4, 1, None, False)
        out_u, _, _, delta, _, _, _ = _reduce_job(payload)
        assert out_u.shape[0] > 0 and delta >= 0.0
        assert from_graph_calls == []

    def test_mutation_drops_memo(self, path):
        graph = read_edge_list(path)
        graph.add_edge("fresh", "node")
        assert graph.cached_csr() is None
