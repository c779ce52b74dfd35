"""The memoised graph digest never outlives the graph version it hashed.

:func:`repro.service.store.graph_digest` keeps its result on the
:class:`Graph` together with the mutation counter read before hashing,
and serves it only while the counter is unchanged.  These tests check
that rule where it could break:

* random sequences of every ``Graph`` mutator, ``copy()`` and an
  :meth:`IncrementalShedder.apply_ops` batch (whose loop advances the
  counter through locals), digesting between steps and comparing with a
  freshly built graph of the same nodes, edges and weights;
* the memo itself: a repeat digest or a copy's digest hashes nothing;
* eight threads on one shared graph, with a shortened switch interval,
  before and after a mutation made between two barriers.

Labels include strings and tuples, whose hashes change with
``PYTHONHASHSEED``, so CI runs this file under two hash seeds.
"""

import sys
import threading

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.dynamic import IncrementalShedder
from repro.errors import GraphError
from repro.graph.generators import erdos_renyi
from repro.graph.graph import Graph
from repro.service import store as store_module
from repro.service.store import graph_digest

labels = st.sampled_from([0, 1, 2, 3, 4, 5, "a", ("t", 1)])
weights = st.sampled_from([0.25, 1 / 3, 0.5, 0.7, 1.0])
churn_ops = st.lists(
    st.tuples(st.sampled_from(["insert", "delete"]), labels, labels),
    min_size=1,
    max_size=8,
)
steps = st.one_of(
    st.tuples(st.just("add_node"), labels),
    st.tuples(st.just("add_edge"), labels, labels, st.none() | weights),
    st.tuples(st.just("remove_edge"), labels, labels),
    st.tuples(st.just("discard_edge"), labels, labels),
    st.tuples(st.just("remove_node"), labels),
    st.tuples(st.just("set_edge_weight"), labels, labels, weights),
    st.tuples(st.just("copy")),
    st.tuples(st.just("apply_ops"), churn_ops),
)


def _rebuild(graph):
    """A fresh graph with the same nodes, edges and weights (and no memo)."""
    fresh = Graph(nodes=list(graph.nodes()))
    for u, v in graph.edges():
        fresh.add_edge(u, v, weight=graph.edge_weight(u, v) if graph.is_weighted else None)
    return fresh


def _step(graph, step):
    """Apply one step; returns the graph the sequence continues with."""
    kind, args = step[0], step[1:]
    if kind == "copy":
        return graph.copy()
    if kind == "apply_ops":
        if graph.num_edges:  # the seed reduction needs an edge
            IncrementalShedder(graph, 0.5, seed=0).apply_ops(args[0], skip_invalid=True)
        return graph
    try:
        getattr(graph, kind)(*args)
    except GraphError:  # absent edge or node, self-loop: the graph is unchanged
        pass
    return graph


@given(st.lists(steps, max_size=25))
@settings(max_examples=150, deadline=None)
def test_digest_tracks_every_mutation(sequence):
    graph = Graph(edges=[(0, 1), (1, 2), (2, "a")])
    retired = []
    for step in sequence:
        before = graph
        graph = _step(graph, step)
        if graph is not before:
            retired.append((before, graph_digest(before)))
        expected = graph_digest(_rebuild(graph))
        assert graph_digest(graph) == expected
        assert graph_digest(graph) == expected
    # Mutating a copy never reaches the graph it was copied from.
    for old, digest in retired:
        assert graph_digest(old) == digest == graph_digest(_rebuild(old))


def test_repeat_and_copy_digests_hash_nothing(monkeypatch):
    tokens = []
    real_token = store_module._node_token

    def counting_token(node):
        tokens.append(node)
        return real_token(node)

    monkeypatch.setattr(store_module, "_node_token", counting_token)
    graph = erdos_renyi(40, 0.2, seed=1)
    digest = graph_digest(graph)
    assert len(tokens) == graph.num_nodes + 2 * graph.num_edges
    tokens.clear()
    clone = graph.copy()
    assert graph_digest(graph) == graph_digest(clone) == digest
    assert tokens == []
    clone.add_edge(0, "new")
    assert graph_digest(clone) != digest
    assert tokens
    tokens.clear()
    assert graph_digest(graph) == digest
    assert tokens == []


def test_threads_share_one_graph():
    graph = erdos_renyi(300, 0.05, seed=3)
    expected = graph_digest(_rebuild(graph))
    num_threads, rounds = 8, 5
    barrier = threading.Barrier(num_threads + 1, timeout=60)
    seen = [[] for _ in range(num_threads)]
    errors = []

    def worker(slot):
        try:
            barrier.wait()
            seen[slot].extend(graph_digest(graph) for _ in range(rounds))
            barrier.wait()  # every first-phase digest is in
            barrier.wait()  # the graph has been mutated
            seen[slot].extend(graph_digest(graph) for _ in range(rounds))
        except Exception as error:  # reported through ``errors`` below
            errors.append(error)

    threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(num_threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        barrier.wait()
        barrier.wait()
        graph.add_edge(0, "fresh")
        mutated = graph_digest(_rebuild(graph))
        barrier.wait()
    finally:
        for thread in threads:
            thread.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert mutated != expected
    for digests in seen:
        assert digests == [expected] * rounds + [mutated] * rounds
