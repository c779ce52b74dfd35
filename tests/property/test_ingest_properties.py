"""Ingest equivalence: bulk graph construction against the per-edge oracles.

The edge-list reader, the process-mode payload rebuild and
``subgraph_from_edge_ids`` all build through :meth:`Graph.from_edge_ids`.
Each must reproduce its per-edge oracle (``tests/oracles/graph.py``)
exactly: node order, every neighbour sequence, edge order, weights bit
for bit, the parse summary and error messages, and a memoised snapshot
whose arrays equal ``CSRAdjacency.from_graph`` of the oracle graph.
Neighbour order is invisible to ``Graph.__eq__``, so it is compared
sequence by sequence.  ``graph_from_payload`` is fuzzed over JSON-shaped
payloads.  CI runs this file under two ``PYTHONHASHSEED`` values, because
string labels expose a hash-ordered container only across processes.
"""

from __future__ import annotations

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

import repro.graph.io as graph_io
from repro.errors import GraphError
from repro.graph import Graph, erdos_renyi
from repro.graph.csr import CSRAdjacency
from repro.graph.io import graph_from_payload, read_edge_list_with_summary
from repro.service.scheduler import _graph_from_ids
from tests.oracles.graph import (
    graph_from_ids_replay,
    read_edge_list_per_line,
    subgraph_from_edge_ids_grouped,
)

SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _typed(labels):
    return [(type(label).__name__, label) for label in labels]


def assert_same_graph(graph: Graph, oracle: Graph) -> None:
    """Equal node order, neighbour order, edge order and weight bits."""
    assert _typed(graph.nodes()) == _typed(oracle.nodes())
    for node in oracle.nodes():
        assert _typed(graph.neighbors(node)) == _typed(oracle.neighbors(node))
    assert list(graph.edges()) == list(oracle.edges())
    assert graph.num_edges == oracle.num_edges
    assert graph.is_weighted == oracle.is_weighted
    assert [(u, v, np.float64(w).tobytes()) for u, v, w in graph.edge_weights()] == [
        (u, v, np.float64(w).tobytes()) for u, v, w in oracle.edge_weights()
    ]


def assert_snapshot_matches(graph: Graph, oracle: Graph) -> None:
    """The memoised snapshot equals ``from_graph`` of the oracle, array for array."""
    snapshot = graph.cached_csr()
    assert snapshot is not None
    expected = CSRAdjacency.from_graph(oracle)
    np.testing.assert_array_equal(snapshot.indptr, expected.indptr)
    np.testing.assert_array_equal(snapshot.indices, expected.indices)
    assert snapshot.indptr.dtype == snapshot.indices.dtype == np.int64
    assert _typed(snapshot.labels) == _typed(expected.labels)
    assert snapshot.index_of == expected.index_of
    for got, want in zip(snapshot.edge_list_ids(), expected.edge_list_ids()):
        np.testing.assert_array_equal(got, want)
    # Independently of CSRAdjacency: the oracle's edges() scan, in ids,
    # and each node's sorted neighbour ids.
    index_of = expected.index_of
    scan = [(index_of[u], index_of[v]) for u, v in oracle.edges()]
    assert list(zip(*(ids.tolist() for ids in snapshot.edge_list_ids()))) == scan
    for node, i in index_of.items():
        want = sorted(index_of[x] for x in oracle.neighbors(node))
        assert snapshot.neighbors(i).tolist() == want
    if expected.weights is None:
        assert snapshot.weights is None
    else:
        assert snapshot.weights.tobytes() == expected.weights.tobytes()


# ----------------------------------------------------------------------
# The edge-list reader
# ----------------------------------------------------------------------

# Small pools so self-loops, duplicates and label collisions are common:
# "007"/"7", "-3" and "1_0"/"10" are spellings int() folds together.
NODE_TOKENS = ["0", "1", "2", "7", "007", "10", "1_0", "-3", "a", "bob", "x_1", "é"]
WEIGHT_TOKENS = [
    "0.5", "0", "1", "-0.0", "1.5", "-0.25", "inf", "-inf", "1e-3", "0.1",
    "0.30000000000000004", "1_0.5", ".75",
]
SEPARATORS = [" ", "\t", "  ", " \t "]
COMMENTS = ["# header", "% note", "  # indented", "#", "%x y z", ""]


@st.composite
def data_lines(draw, columns, weight_col):
    """One data line; the weight column, if present, holds a number."""
    tokens = [draw(st.sampled_from(NODE_TOKENS)), draw(st.sampled_from(NODE_TOKENS))]
    while len(tokens) < columns:
        pool = WEIGHT_TOKENS if len(tokens) == weight_col else WEIGHT_TOKENS + ["extra", "#"]
        tokens.append(draw(st.sampled_from(pool)))
    lead = draw(st.sampled_from(["", " ", "\t"]))
    return lead + draw(st.sampled_from(SEPARATORS)).join(tokens)


@st.composite
def edge_list_files(draw, malformed=False):
    """(text, weight_col) for a SNAP-style edge list."""
    weight_col = draw(st.sampled_from([None, 2, 3]))
    columns = 2 if weight_col is None else weight_col + 1
    kinds = [
        data_lines(columns + draw(st.integers(0, 1)), weight_col),
        st.sampled_from(COMMENTS),
    ]
    if malformed:
        kinds.append(
            st.one_of(
                st.sampled_from(NODE_TOKENS),  # one token only
                data_lines(max(2, columns - 1), None),  # a column short
                st.builds(lambda line: line + " bad", data_lines(2, None)),
            )
        )
    lines = draw(st.lists(st.one_of(*kinds), max_size=40))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    text = ending.join(lines) + draw(st.sampled_from(["", ending]))
    return text, weight_col


def _read_both(tmp_path, text, weight_col, chunk):
    path = tmp_path / "edges.txt"
    path.write_bytes(text.encode("utf-8"))
    outcomes = []
    for reader in (read_edge_list_with_summary, read_edge_list_per_line):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(graph_io, "_CHUNK_LINES", chunk)
            try:
                outcomes.append(reader(path, weight_col=weight_col))
            except GraphError as error:
                outcomes.append(str(error))
    return outcomes


@SETTINGS
@given(edge_list_files(), st.integers(1, 9))
def test_reader_matches_per_line_oracle(tmp_path, case, chunk):
    text, weight_col = case
    got, want = _read_both(tmp_path, text, weight_col, chunk)
    assert not isinstance(want, str)
    graph, summary = got
    oracle, oracle_summary = want
    assert summary == oracle_summary
    assert_same_graph(graph, oracle)
    assert_snapshot_matches(graph, oracle)


@SETTINGS
@given(edge_list_files(malformed=True), st.integers(1, 9))
def test_reader_errors_match_per_line_oracle(tmp_path, case, chunk):
    text, weight_col = case
    got, want = _read_both(tmp_path, text, weight_col, chunk)
    if isinstance(want, str):
        assert got == want  # same message, naming the same path:line
    else:
        assert got[1] == want[1]
        assert_same_graph(got[0], want[0])


def test_file_spanning_many_chunks_matches_oracle(tmp_path):
    lines = ["# generated"]
    rng = np.random.default_rng(3)
    for u, v in rng.integers(0, 300, size=(5000, 2)).tolist():
        lines.append(f"{u} {v} {rng.random():.6f}")
    text = "\n".join(lines) + "\n"
    got, want = _read_both(tmp_path, text, 2, 64)
    assert got[1] == want[1]
    assert want[1].self_loops_skipped and want[1].duplicates_skipped
    assert_same_graph(got[0], want[0])
    assert_snapshot_matches(got[0], want[0])


# ----------------------------------------------------------------------
# Array construction: process-mode payloads and subgraph materialisation
# ----------------------------------------------------------------------


@st.composite
def labelled_edge_ids(draw):
    """(labels, edge_u, edge_v, weights): distinct edges, both orientations."""
    n = draw(st.integers(0, 12))
    labels = draw(
        st.lists(
            st.one_of(st.integers(-50, 50), st.text("abc", min_size=1, max_size=3)),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    flips = draw(st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)))
    edges = [(j, i) if flip else (i, j) for (i, j), flip in zip(chosen, flips)]
    edge_u = np.array([u for u, _ in edges], dtype=np.int64)
    edge_v = np.array([v for _, v in edges], dtype=np.int64)
    weights = None
    if draw(st.booleans()):
        weights = np.array(
            draw(st.lists(st.floats(0.0, 1.0), min_size=len(edges), max_size=len(edges))),
            dtype=np.float64,
        )
    return labels, edge_u, edge_v, weights


@SETTINGS
@given(labelled_edge_ids())
def test_payload_rebuild_matches_add_edge_replay(case):
    labels, edge_u, edge_v, weights = case
    oracle = graph_from_ids_replay(labels, edge_u, edge_v, weights)
    assert_same_graph(_graph_from_ids(labels, edge_u, edge_v, weights, snapshot=False), oracle)
    graph = _graph_from_ids(labels, edge_u, edge_v, weights, snapshot=True)
    assert_same_graph(graph, oracle)
    assert_snapshot_matches(graph, oracle)


@SETTINGS
@given(labelled_edge_ids(), st.randoms(use_true_random=False))
def test_subgraph_matches_grouped_sort(case, rnd):
    labels, edge_u, edge_v, weights = case
    parent = _graph_from_ids(labels, edge_u, edge_v, weights, snapshot=True)
    csr = parent.csr()
    scan_u, scan_v = csr.edge_list_ids()
    keep = [k for k in range(scan_u.shape[0]) if rnd.random() < 0.6]
    rnd.shuffle(keep)
    kept_u, kept_v = scan_u[keep], scan_v[keep]
    flip = np.array([rnd.random() < 0.5 for _ in keep], dtype=bool)
    kept_u, kept_v = np.where(flip, kept_v, kept_u), np.where(flip, kept_u, kept_v)
    reduced = csr.subgraph_from_edge_ids(kept_u, kept_v)
    assert_same_graph(reduced, subgraph_from_edge_ids_grouped(csr, kept_u, kept_v))
    assert reduced.cached_csr() is None


def test_subgraph_keeps_side_grouped_order():
    """A node's ``edge_u``-side entries come first, unlike add_edge replay."""
    csr = Graph(edges=[(0, 1), (1, 2), (0, 2), (2, 3)]).csr()
    edge_u, edge_v = np.array([3, 2], dtype=np.int64), np.array([2, 0], dtype=np.int64)
    assert list(csr.subgraph_from_edge_ids(edge_u, edge_v).neighbors(2)) == [0, 3]
    assert list(graph_from_ids_replay(csr.labels, edge_u, edge_v, None).neighbors(2)) == [3, 0]


def test_bulk_snapshot_serves_generated_graph():
    oracle = erdos_renyi(80, 0.1, seed=4)
    csr = CSRAdjacency.from_graph(oracle)
    graph = _graph_from_ids(csr.labels, *csr.edge_list_ids(), None, snapshot=True)
    assert_same_graph(graph, oracle)
    assert_snapshot_matches(graph, oracle)


# ----------------------------------------------------------------------
# graph_from_payload fuzz
# ----------------------------------------------------------------------

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)
json_labels = st.integers(-5, 5) | st.text("ab", max_size=2) | json_values
payloads = st.one_of(
    json_values,
    st.fixed_dictionaries(
        {
            "nodes": st.lists(json_labels, max_size=6) | json_values,
            "edges": st.lists(st.lists(json_labels, min_size=1, max_size=3) | json_values, max_size=6)
            | json_values,
        },
        optional={"weights": st.lists(json_values, max_size=6) | json_values},
    ),
)


@settings(max_examples=400, deadline=None)
@given(payloads)
def test_graph_from_payload_returns_graph_or_graph_error(payload):
    try:
        graph = graph_from_payload(payload, where="fuzz")
    except GraphError as error:
        assert str(error).startswith("fuzz: ")
        return
    assert isinstance(graph, Graph)
