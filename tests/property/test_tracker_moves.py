"""Random interleavings of ``ArrayDegreeTracker``'s moves (hypothesis).

The tracker keeps ``dis`` as a Python list that its moves update in place,
and hands vectorized readers a ``float64`` copy, :meth:`dis_array`, cached
until the next move.  Each example draws a graph (isolated nodes included,
so some expectations are zero) and a sequence of moves: bulk
``add_edges_ids``, all-or-nothing ``admit_edges_ids`` (sometimes with a bad
edge), and per-edge ``add_edge_ids``/``remove_edge_ids``.  ``dis_array()``
is read between moves, so a move that forgets to drop the cache leaves a
stale copy behind.

After every step:

* ``dis_array()`` equals ``dis_list()`` byte for byte;
* unit runs match the dict ``DegreeTracker`` oracle bit for bit — ``dis``
  per node, and ``Δ`` too unless a bulk add at an inexact ``p`` recomputed
  it as ``Σ|dis|`` in another order (the tracker's documented contract;
  then within 1e-12) — and their degrees stay ints;
* weighted runs (quarter-rounded weights, so degree sums are exact in any
  order) match ``dis`` recomputed from scratch bit for bit, and ``Δ``
  within 1e-12.
"""

from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.core import ArrayDegreeTracker
from repro.errors import ReductionError
from repro.graph import Graph
from tests.oracles.core import DegreeTracker

_RATIOS = [0.1, 0.25, 0.4, 0.5, 0.75, 0.9]
_QUARTERS = [0.0, 0.25, 0.5, 0.75, 1.0]
_MOVES = ["bulk", "admit", "bad_admit", "add", "add", "remove", "remove"]


@st.composite
def tracked_graphs(draw, weighted):
    n = draw(st.integers(2, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=30, unique=True))
    graph = Graph(nodes=range(n))
    for u, v in chosen:
        graph.add_edge(u, v, weight=draw(st.sampled_from(_QUARTERS)) if weighted else None)
    return graph


def _subset(data, pool):
    """A drawn sub-list of ``pool``, in a drawn order."""
    return data.draw(st.lists(st.sampled_from(pool), unique=True)) if pool else []


def _as_ids(edges):
    u = np.array([a for a, _ in edges], dtype=np.int64)
    v = np.array([b for _, b in edges], dtype=np.int64)
    return u, v


def _bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


def _run(data, graph, p, weighted):
    csr = graph.csr()
    tracker = ArrayDegreeTracker(csr, p, weighted=weighted)
    labels = csr.labels
    edges = list(zip(*(ids.tolist() for ids in csr.edge_list_ids())))
    tracked = []
    oracle = None if weighted else DegreeTracker(graph, p)
    # At a multiple of 1/8, every p·deg, dis and partial sum is exact.
    exact = Fraction(p).denominator <= 8
    bulk_added = False

    def check():
        assert tracker.dis_array().tobytes() == _bits(tracker.dis_list())
        assert tracker.num_edges == len(tracked)
        if weighted:
            current = [0.0] * tracker.num_nodes
            for u, v in tracked:
                w = graph.edge_weight(labels[u], labels[v])
                current[u] += w
                current[v] += w
            expected = [p * graph.weighted_degree(label) for label in labels]
            dis = np.array(current) - np.array(expected)
            assert tracker.dis_array().tobytes() == dis.tobytes()
            assert tracker.delta == pytest.approx(float(np.abs(dis).sum()), abs=1e-12)
            return
        assert tracker.dis_array().tobytes() == _bits([oracle.dis(label) for label in labels])
        assert all(type(degree) is int for degree in tracker._current)
        if exact or not bulk_added:
            assert tracker.delta == oracle.delta
        else:
            assert tracker.delta == pytest.approx(oracle.delta, abs=1e-12)

    check()
    for move in data.draw(st.lists(st.sampled_from(_MOVES), max_size=12)):
        free = [edge for edge in edges if edge not in tracked]
        if move in ("bulk", "admit"):
            batch = _subset(data, free)
            if move == "bulk":
                tracker.add_edges_ids(*_as_ids(batch))
                bulk_added = True
            else:
                tracker.admit_edges_ids(*_as_ids(batch))
            tracked.extend(batch)
            if oracle is not None:
                for u, v in batch:
                    oracle.add_edge(labels[u], labels[v])
        elif move == "bad_admit":
            if not tracked:
                continue
            batch = _subset(data, free)
            batch.insert(data.draw(st.integers(0, len(batch))), data.draw(st.sampled_from(tracked)))
            before = (tracker.delta, tracker.dis_array().tobytes())
            with pytest.raises(ReductionError):
                tracker.admit_edges_ids(*_as_ids(batch))
            assert (tracker.delta, tracker.dis_array().tobytes()) == before
        elif move == "add":
            if not free:
                continue
            u, v = data.draw(st.sampled_from(free))
            tracker.add_edge_ids(u, v)
            tracked.append((u, v))
            if oracle is not None:
                oracle.add_edge(labels[u], labels[v])
        else:
            if not tracked:
                continue
            u, v = data.draw(st.sampled_from(tracked))
            tracker.remove_edge_ids(u, v)
            tracked.remove((u, v))
            if oracle is not None:
                oracle.remove_edge(labels[u], labels[v])
        check()


@given(tracked_graphs(weighted=False), st.sampled_from(_RATIOS), st.data())
@settings(max_examples=80, deadline=None)
def test_unit_moves_match_dict_oracle(graph, p, data):
    _run(data, graph, p, weighted=False)


@given(tracked_graphs(weighted=True), st.sampled_from(_RATIOS), st.data())
@settings(max_examples=80, deadline=None)
def test_weighted_moves_match_recomputation(graph, p, data):
    _run(data, graph, p, weighted=True)
