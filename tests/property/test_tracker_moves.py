"""Random interleavings of ``ArrayDegreeTracker``'s moves (hypothesis).

The tracker keeps ``dis`` as a Python list that its moves update in place,
and hands vectorized readers a ``float64`` copy, :meth:`dis_array`, cached
until the next move.  Each example draws a graph (isolated nodes included,
so some expectations are zero) and a sequence of moves over snapshot edge
ids: bulk ``add_edges``, all-or-nothing ``admit_edges`` (sometimes with a
bad id: a tracked one, a repeat, or one outside ``[0, m)``), and per-edge
``add_edge``/``remove_edge``.  ``dis_array()`` is read between moves, so a
move that forgets to drop the cache leaves a stale copy behind.

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
from repro.errors import GraphError, ReductionError
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


def _bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


def _run(data, graph, p, weighted):
    csr = graph.csr()
    tracker = ArrayDegreeTracker(csr, p, weighted=weighted)
    labels = csr.labels
    ends = list(zip(*(ids.tolist() for ids in csr.edge_list_ids())))
    edges = list(range(len(ends)))
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
            for u, v in (ends[e] for e in tracked):
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
                tracker.add_edges(np.array(batch, dtype=np.int64))
                bulk_added = True
            else:
                tracker.admit_edges(np.array(batch, dtype=np.int64))
            tracked.extend(batch)
            if oracle is not None:
                for u, v in (ends[e] for e in batch):
                    oracle.add_edge(labels[u], labels[v])
        elif move == "bad_admit":
            batch = _subset(data, free)
            bad = data.draw(st.sampled_from(["tracked", "repeat", "range"]))
            if bad == "tracked" and tracked:
                extra, error = data.draw(st.sampled_from(tracked)), ReductionError
            elif bad == "repeat" and batch:
                extra, error = data.draw(st.sampled_from(batch)), ReductionError
            else:
                extra = data.draw(st.sampled_from([-1, -len(edges), len(edges)]))
                error = GraphError
            batch.insert(data.draw(st.integers(0, len(batch))), extra)
            before = (tracker.delta, tracker.num_edges, tracker.dis_array().tobytes())
            with pytest.raises(error):
                tracker.admit_edges(np.array(batch, dtype=np.int64))
            assert (tracker.delta, tracker.num_edges, tracker.dis_array().tobytes()) == before
        elif move == "add":
            if not free:
                continue
            e = data.draw(st.sampled_from(free))
            tracker.add_edge(e)
            tracked.append(e)
            if oracle is not None:
                oracle.add_edge(*(labels[x] for x in ends[e]))
        else:
            if not tracked:
                continue
            e = data.draw(st.sampled_from(tracked))
            tracker.remove_edge(e)
            tracked.remove(e)
            if oracle is not None:
                oracle.remove_edge(*(labels[x] for x in ends[e]))
        check()


@given(tracked_graphs(weighted=False), st.sampled_from(_RATIOS), st.data())
@settings(max_examples=80, deadline=None)
def test_unit_moves_match_dict_oracle(graph, p, data):
    _run(data, graph, p, weighted=False)


@given(tracked_graphs(weighted=True), st.sampled_from(_RATIOS), st.data())
@settings(max_examples=80, deadline=None)
def test_weighted_moves_match_recomputation(graph, p, data):
    _run(data, graph, p, weighted=True)
