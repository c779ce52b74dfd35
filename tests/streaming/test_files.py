"""Tests for disk-to-disk streaming reduction."""

import pytest

from repro.errors import GraphError, ReductionError
from repro.graph import powerlaw_cluster, read_edge_list, write_edge_list
from repro.streaming import iter_edge_list, shed_edge_list_file


class TestIterEdgeList:
    def test_streams_edges(self, tmp_path, figure1):
        path = tmp_path / "g.txt"
        write_edge_list(figure1, path)
        edges = list(iter_edge_list(path))
        assert len(edges) == figure1.num_edges

    def test_comments_skipped(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# header\n1 2\n% other\n3 4\n")
        assert list(iter_edge_list(path)) == [(1, 2), (3, 4)]

    def test_malformed_raises(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("loneley\n")
        with pytest.raises(GraphError):
            list(iter_edge_list(path))

    def test_malformed_line_named_like_the_reader(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# header\n1 2\n\n  lonely \n3 4\n")
        message = f"{path}:4: expected two node tokens, got 'lonely'"
        with pytest.raises(GraphError) as streamed:
            list(iter_edge_list(path))
        with pytest.raises(GraphError) as read:
            read_edge_list(path)
        assert str(streamed.value) == str(read.value) == message

    def test_undecodable_byte_named_like_the_reader(self, tmp_path):
        """Lines before a non-UTF-8 byte stream out; its line is named."""
        path = tmp_path / "g.txt"
        path.write_bytes(b"1 2\n\xe9 3\n4 5\n")
        streamed = []
        with pytest.raises(GraphError) as raised:
            streamed.extend(iter_edge_list(path))
        assert streamed == [(1, 2)]
        assert str(raised.value) == f"{path}:2: byte 0xe9 is not UTF-8"


class TestShedEdgeListFile:
    def test_end_to_end(self, tmp_path):
        graph = powerlaw_cluster(150, 3, 0.3, seed=4)
        input_path = tmp_path / "in.txt"
        output_path = tmp_path / "out.txt"
        write_edge_list(graph, input_path)

        stats = shed_edge_list_file(input_path, output_path, p=0.5)
        assert stats.input_edges == graph.num_edges
        assert 0 < stats.kept_edges <= graph.num_edges
        assert stats.achieved_ratio <= 0.55

        reduced = read_edge_list(output_path)
        for u, v in reduced.edges():
            assert graph.has_edge(u, v)

    def test_degree_capacities_respected(self, tmp_path):
        graph = powerlaw_cluster(120, 3, 0.3, seed=9)
        input_path = tmp_path / "in.txt"
        output_path = tmp_path / "out.txt"
        write_edge_list(graph, input_path)
        from repro.core import round_half_up

        shed_edge_list_file(input_path, output_path, p=0.4)
        reduced = read_edge_list(output_path)
        for node in reduced.nodes():
            assert reduced.degree(node) <= round_half_up(0.4 * graph.degree(node))

    def test_self_loop_file_refused(self, tmp_path):
        input_path = tmp_path / "in.txt"
        input_path.write_text("1 2\n3 3\n")
        with pytest.raises(ReductionError, match="self-loop"):
            shed_edge_list_file(input_path, tmp_path / "out.txt", p=0.5)

    def test_stats_zero_input(self, tmp_path):
        input_path = tmp_path / "in.txt"
        output_path = tmp_path / "out.txt"
        input_path.write_text("# empty\n")
        stats = shed_edge_list_file(input_path, output_path, p=0.5)
        assert stats.input_edges == 0
        assert stats.achieved_ratio == 0.0
