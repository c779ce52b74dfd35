"""Edge-list weight-column parsing, clamping, and round-trips."""

import pytest

from repro.errors import GraphError
from repro.graph.io import (
    read_edge_list,
    read_edge_list_with_summary,
    write_edge_list,
)
from repro.uncertain import uncertain_erdos_renyi


def test_weight_column_parsed(tmp_path):
    path = tmp_path / "weighted.txt"
    path.write_text("# header\n0 1 0.25\n1 2 0.75\n")
    graph = read_edge_list(path, weight_col=2)
    assert graph.is_weighted
    assert graph.edge_weight(0, 1) == 0.25
    assert graph.edge_weight(1, 2) == 0.75


def test_out_of_range_weights_clamped_and_counted(tmp_path):
    path = tmp_path / "clamp.txt"
    path.write_text("0 1 1.5\n1 2 -0.25\n2 3 0.5\n")
    graph, summary = read_edge_list_with_summary(path, weight_col=2)
    assert summary.weights_clamped == 2
    assert graph.edge_weight(0, 1) == 1.0
    assert graph.edge_weight(1, 2) == 0.0
    assert graph.edge_weight(2, 3) == 0.5
    assert "clamped" in summary.describe()


def test_no_weight_col_reads_unweighted(tmp_path):
    path = tmp_path / "plain.txt"
    path.write_text("0 1 0.25\n1 2 0.75\n")
    graph, summary = read_edge_list_with_summary(path)
    assert not graph.is_weighted
    assert summary.weights_clamped == 0


def test_weight_col_must_skip_endpoints(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 1 0.5\n")
    with pytest.raises(GraphError):
        read_edge_list(path, weight_col=1)


def test_weighted_round_trip_is_exact(tmp_path):
    graph = uncertain_erdos_renyi(60, 0.1, seed=9)
    path = tmp_path / "roundtrip.txt"
    write_edge_list(graph, path)
    back = read_edge_list(path, weight_col=2)
    assert {frozenset(e) for e in back.edges()} == {
        frozenset(e) for e in graph.edges()
    }
    for u, v, w in graph.edge_weights():
        assert back.edge_weight(u, v) == w  # %.17g is round-trip exact


def test_nan_weight_token_rejected_with_line(tmp_path):
    path = tmp_path / "nan.txt"
    path.write_text("1 2 nan\n2 3 0.5\n3 4 inf\n")
    with pytest.raises(GraphError, match=r"nan\.txt:1: bad weight token 'nan'"):
        read_edge_list(path, weight_col=2)


def test_infinite_weight_tokens_still_clamped(tmp_path):
    path = tmp_path / "inf.txt"
    path.write_text("1 2 -inf\n2 3 0.5\n3 4 inf\n")
    graph, summary = read_edge_list_with_summary(path, weight_col=2)
    assert summary.weights_clamped == 2
    assert graph.edge_weight(1, 2) == 0.0
    assert graph.edge_weight(3, 4) == 1.0
