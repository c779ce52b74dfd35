"""Graphs built from edge ids keep arrays until something needs dicts.

``Graph.from_edge_ids`` (edge-list ingest, reduction results, process
payloads) builds ``_adj``/``_weights``/``_order`` on first need.  These
tests pin where that must *not* happen — the file path (read, reduce,
score, write) and the process worker with its parent-side rebuild — and
that the first build is harmless when threads race to it, including a
thread that mutates.  The edge-list writer's label check lives here too,
since it formats labels from the same arrays.
"""

from __future__ import annotations

import gc
import pickle
import sys
import threading
import time
import weakref
from concurrent.futures import Future

import numpy as np
import pytest

from repro.core import ReductionResult, compute_delta
from repro.core.validation import validate_reduction
from repro.errors import GraphError
import repro.graph.graph as graph_module
from repro.graph import Graph, powerlaw_cluster, read_edge_list, write_edge_list
from repro.service import scheduler
from repro.service.request import make_shedder
from repro.service.scheduler import ProcessEngine, _reduce_job
from repro.service.store import graph_digest
from tests.oracles.graph import graph_from_ids_replay


@pytest.fixture
def dict_builds(monkeypatch):
    """Every graph whose adjacency dicts get built during the test."""
    built = []
    build = Graph._build_dicts

    def counting(graph):
        if graph._ids is not None:
            built.append(graph)
        build(graph)

    monkeypatch.setattr(Graph, "_build_dicts", counting)
    return built


@pytest.fixture
def edge_file(tmp_path):
    path = tmp_path / "g.txt"
    write_edge_list(powerlaw_cluster(400, 4, 0.1, seed=3), path)
    return path


class TestDictFreePipelines:
    @pytest.mark.parametrize("method", ["bm2-sparse", "crr"])
    def test_read_reduce_score_write(self, edge_file, tmp_path, dict_builds, method):
        graph = read_edge_list(edge_file)
        result = make_shedder(method, seed=1, num_sources=16).reduce(graph, 0.4)
        assert compute_delta(graph, result.reduced, 0.4) == result.delta
        write_edge_list(result.reduced, tmp_path / "out.txt", header=f"{method} p=0.4")
        assert dict_builds == []
        assert result.reduced.cached_csr() is None  # no snapshot memoised on it
        assert read_edge_list(tmp_path / "out.txt").num_edges == result.reduced.num_edges
        assert validate_reduction(result).ok  # reads the original's dicts

    @pytest.mark.parametrize("method", ["bm2", "crr"])
    def test_reduce_job_builds_no_dicts(self, edge_file, dict_builds, method):
        csr = read_edge_list(edge_file).csr()
        u_ids, v_ids = csr.edge_list_ids()
        payload = (csr.labels, u_ids, v_ids, None, method, 0.4, 1, 16, False)
        out_u, out_v, out_w, delta, _, _, _ = _reduce_job(payload)
        assert dict_builds == []
        inline = make_shedder(method, seed=1, num_sources=16).reduce(read_edge_list(edge_file), 0.4)
        assert list(zip(out_u.tolist(), out_v.tolist())) == [
            (csr.index_of[u], csr.index_of[v]) for u, v in inline.reduced.edges()
        ]
        assert out_w is None and delta == inline.delta

    @pytest.mark.parametrize("method", ["bm2", "crr"])
    def test_process_engine_result_builds_no_dicts(
        self, edge_file, monkeypatch, dict_builds, method
    ):
        monkeypatch.setattr(scheduler, "WorkerPool", _InlinePool)
        graph = read_edge_list(edge_file)
        engine = ProcessEngine(num_workers=1)
        result = engine.execute(graph, method, 0.4, seed=1, num_sources=16)
        engine.close()
        assert compute_delta(graph, result.reduced, 0.4) == result.delta
        assert dict_builds == []
        inline = make_shedder(method, seed=1, num_sources=16).reduce(read_edge_list(edge_file), 0.4)
        assert list(result.reduced.edges()) == list(inline.reduced.edges())

    def test_reduce_job_maps_reordered_nodes(self, monkeypatch):
        graph = Graph(edges=[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        reordered = Graph(nodes=[3, 2, 1, 0], edges=[(1, 2), (3, 0)])

        class Reordering:
            def reduce(self, graph, p):
                return ReductionResult(
                    method="Reorder", original=graph, reduced=reordered, p=p,
                    delta=0.0, elapsed_seconds=0.0,
                )

        monkeypatch.setattr(scheduler, "make_shedder", lambda *args, **kwargs: Reordering())
        csr = graph.csr()
        payload = (csr.labels, *csr.edge_list_ids(), None, "random", 0.5, 0, None, False)
        out_u, out_v, _, _, _, _, _ = _reduce_job(payload)
        assert [(csr.labels[u], csr.labels[v]) for u, v in zip(out_u, out_v)] == list(
            reordered.edges()
        )


class _InlinePool:
    """A stand-in ``WorkerPool`` that runs each task when it is submitted."""

    def __init__(self, num_workers):
        pass

    def submit(self, function, *args):
        future = Future()
        future.set_result(function(*args))
        return future

    def terminate(self):
        pass


def _deferred_pair(n_nodes=300, seed=5, weighted=False):
    rng = np.random.default_rng(seed)
    pairs = {tuple(sorted(pair)) for pair in rng.integers(0, n_nodes, size=(6 * n_nodes, 2)).tolist()}
    pairs = sorted(pair for pair in pairs if pair[0] != pair[1])
    order = rng.permutation(len(pairs))
    edge_u = np.array([pairs[k][0] for k in order], dtype=np.int64)
    edge_v = np.array([pairs[k][1] for k in order], dtype=np.int64)
    weights = rng.random(edge_u.shape[0]) if weighted else None
    labels = [f"n{i}" for i in rng.permutation(n_nodes).tolist()]
    graph = Graph.from_edge_ids(labels, edge_u, edge_v, weights, snapshot=False)
    return graph, graph_from_ids_replay(labels, edge_u, edge_v, weights)


class TestFirstBuild:
    def test_racing_first_reads_see_identical_neighbours(self):
        """Threads (more than cores) racing to the first build agree."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for seed in range(3):
                graph, oracle = _deferred_pair(seed=seed)
                labels = list(oracle.nodes())
                barrier = threading.Barrier(4)
                seen = [None] * 4

                def read(slot):
                    barrier.wait()
                    seen[slot] = [list(graph.neighbors(node)) for node in labels]

                threads = [threading.Thread(target=read, args=(slot,)) for slot in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                    assert not thread.is_alive()
                expected = [list(oracle.neighbors(node)) for node in labels]
                assert seen == [expected] * 4
                assert graph._ids is None
        finally:
            sys.setswitchinterval(interval)

    def test_dict_build_keeps_version_and_memos(self):
        graph, oracle = _deferred_pair(weighted=True)
        snapshot, digest = graph.csr(), graph_digest(graph)
        version = graph.version
        node = next(iter(oracle.nodes()))
        assert graph.degree(node) == oracle.degree(node)
        assert graph.version == version and graph.cached_csr() is snapshot
        assert graph._digest == (version, digest) and digest == graph_digest(oracle)
        assert graph == oracle

    def test_first_read_racing_a_mutation_keeps_the_mutation(self, monkeypatch):
        """A thread inside the first build must not publish over a mutation.

        The reader's build pauses while the main thread mutates; the
        mutation waits for that build, then lands in the built dicts.
        """
        graph, oracle = _deferred_pair()
        node = next(iter(oracle.nodes()))
        inside = threading.Event()
        label_array = graph_module._label_array

        def slow_label_array(labels):
            if not inside.is_set():  # only the reader's build pauses
                inside.set()
                time.sleep(0.05)
            return label_array(labels)

        monkeypatch.setattr(graph_module, "_label_array", slow_label_array)
        reader = threading.Thread(target=lambda: list(graph.neighbors(node)))
        reader.start()
        assert inside.wait(timeout=30)
        graph.add_edge("fresh", node)
        reader.join(timeout=30)
        assert not reader.is_alive()
        oracle.add_edge("fresh", node)
        assert graph == oracle and graph.num_edges == oracle.num_edges
        assert sum(graph.degree(v) for v in graph) == 2 * graph.num_edges

    def test_held_stand_in_answers_after_the_build(self):
        graph, oracle = _deferred_pair(weighted=True)
        adj, weights = graph._adj, graph._weights
        node = next(iter(oracle.nodes()))
        assert list(adj[node]) == list(oracle.neighbors(node))  # builds
        assert type(graph._adj) is dict and type(graph._weights) is dict
        assert weights[node] == {v: oracle.edge_weight(node, v) for v in oracle.neighbors(node)}

    def test_graph_has_no_attribute_hook(self):
        """A type-level hook would slow attribute reads on every graph."""
        assert not hasattr(Graph, "__getattr__")
        assert Graph.__getattribute__ is object.__getattribute__

    def test_unbuilt_graph_is_freed_by_refcount(self):
        graph, _ = _deferred_pair()
        ref = weakref.ref(graph)
        gc.disable()
        try:
            del graph
            assert ref() is None
        finally:
            gc.enable()

    def test_pickle_keeps_the_arrays(self):
        graph, oracle = _deferred_pair(weighted=True)
        clone = pickle.loads(pickle.dumps(graph))
        assert graph._ids is not None and clone._ids is not None
        assert clone == oracle and clone._ids is None


class TestWriterRefusesUnreadableLabels:
    def test_labels_that_would_not_read_back(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("keep me\n")
        graph = Graph([((1, 2), (3, 4)), ("a b", "c"), ("#x", "y")])
        with pytest.raises(GraphError, match=r"node label \(1, 2\)"):
            write_edge_list(graph, path)
        assert path.read_text() == "keep me\n"  # never opened for writing

    @pytest.mark.parametrize(
        "label", ["7", "", "a b", "tab\there", "#x", "%x", "1_0", True, 2.5, ("t",), "line\nbreak"]
    )
    def test_each_unreadable_label(self, tmp_path, label):
        with pytest.raises(GraphError, match="cannot be written"):
            write_edge_list(Graph([(0, label)]), tmp_path / "g.txt")

    def test_isolated_unreadable_label_is_refused_too(self, tmp_path):
        with pytest.raises(GraphError, match="'7'"):
            write_edge_list(Graph(nodes=["7"], edges=[(1, 2)]), tmp_path / "g.txt")

    @pytest.mark.parametrize("header", ["two\nlines", "carriage\rreturn"])
    def test_header_with_line_break(self, tmp_path, header):
        path = tmp_path / "g.txt"
        with pytest.raises(GraphError, match="line break"):
            write_edge_list(Graph([(1, 2)]), path, header=header)
        assert not path.exists()

    def test_readable_labels_round_trip(self, tmp_path):
        graph = Graph([(1, "a"), ("a", "b-c"), (-4, 1), ("x#", "é"), (np.int64(9), 1)])
        path = tmp_path / "g.txt"
        write_edge_list(graph, path)
        assert read_edge_list(path) == graph
