"""Property tests for the service layer.

Two guarantees are exercised under randomised inputs:

* artifact round-trip — store → evict → reload from disk reproduces a
  reduction bit-identically (edge sets, Δ recomputation, isolated nodes,
  string labels);
* service determinism — submitting a request set through a concurrent
  service yields reductions bit-identical to serial inline runs;
* honest telemetry — histogram quantiles stay inside the observed
  ``[min, max]`` for any observations and bucket bounds;
* request checks — a request with one malformed field is rejected at
  submit, naming that field, before anything is computed or charged.
"""

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.discrepancy import compute_delta
from repro.graph.graph import Graph
from repro.service import ReductionRequest, SheddingService, make_shedder
from repro.service.metrics import Histogram
from repro.service.store import ArtifactStore


@st.composite
def graphs(draw, min_nodes=3, max_nodes=16, string_labels=False):
    n = draw(st.integers(min_nodes, max_nodes))
    labels = [f"v{i}" for i in range(n)] if string_labels else list(range(n))
    g = Graph(nodes=labels)
    for node in range(1, n):
        parent = draw(st.integers(0, node - 1))
        g.add_edge(labels[node], labels[parent])
    extra = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda e: e[0] != e[1]
            ),
            max_size=2 * n,
        )
    )
    for u, v in extra:
        g.add_edge(labels[u], labels[v])
    # Sometimes leave isolated nodes: V' = V must survive persistence.
    if draw(st.booleans()):
        g.add_node(labels[0] + labels[0] if string_labels else n + 100)
    return g


ratios = st.sampled_from([0.2, 0.4, 0.5, 0.7])
seeds = st.integers(0, 2**31 - 1)
methods = st.sampled_from(["bm2", "random", "degree-proportional"])


def _edge_set(graph):
    return set(map(frozenset, graph.edges()))


@given(graphs(), methods, ratios, seeds)
@settings(max_examples=25, deadline=None)
def test_artifact_round_trip_bit_identical(tmp_path_factory, g, method, p, seed):
    tmp_path = tmp_path_factory.mktemp("store")
    original = make_shedder(method, seed=seed).reduce(g, p)

    store = ArtifactStore(persist_dir=tmp_path)
    key = store.key_for(g, method, p, seed)
    store.put(key, original)
    assert store.evict(key)

    reloaded = store.get(key, g)
    assert reloaded is not None
    assert store.stats["disk_hits"] == 1
    assert _edge_set(reloaded.reduced) == _edge_set(original.reduced)
    assert set(reloaded.reduced.nodes()) == set(original.reduced.nodes())
    assert reloaded.delta == original.delta
    # Recomputing Δ from the reloaded graph gives the identical value —
    # the reloaded artifact is computationally interchangeable.
    assert compute_delta(g, reloaded.reduced, p) == original.delta


@given(graphs(string_labels=True), ratios, seeds)
@settings(max_examples=15, deadline=None)
def test_artifact_round_trip_string_labels(tmp_path_factory, g, p, seed):
    tmp_path = tmp_path_factory.mktemp("store")
    original = make_shedder("bm2", seed=seed).reduce(g, p)
    store = ArtifactStore(persist_dir=tmp_path)
    key = store.key_for(g, "bm2", p, seed)
    store.put(key, original)
    store.evict(key)
    reloaded = store.get(key, g)
    assert reloaded is not None
    assert _edge_set(reloaded.reduced) == _edge_set(original.reduced)
    assert set(reloaded.reduced.nodes()) == set(original.reduced.nodes())


@given(
    graphs(min_nodes=6),
    st.lists(st.tuples(methods, ratios, st.integers(0, 100)), min_size=1, max_size=4),
)
@settings(max_examples=10, deadline=None)
def test_concurrent_service_matches_serial(g, specs):
    serial = [make_shedder(m, seed=s).reduce(g, p) for m, p, s in specs]
    with SheddingService(num_workers=3, mode="thread") as service:
        handles = service.submit_all(
            [ReductionRequest(graph=g, method=m, p=p, seed=s) for m, p, s in specs]
        )
        for base, handle in zip(serial, handles):
            result = handle.result(timeout=60)
            assert result.status.value == "completed", result.error
            assert list(result.reduction.reduced.edges()) == list(base.reduced.edges())
            assert result.reduction.delta == base.delta


_finite = st.floats(-1e6, 1e6, allow_nan=False)


@given(
    st.lists(_finite, min_size=1, max_size=40),
    st.lists(_finite, min_size=1, max_size=12, unique=True),
)
@settings(max_examples=200, deadline=None)
def test_histogram_quantiles_stay_in_observed_range(observations, bounds):
    histogram = Histogram("latency", sorted(bounds))
    for value in observations:
        histogram.observe(value)
    snap = histogram.snapshot()
    assert snap["min"] <= snap["p50"] <= snap["p90"] <= snap["p99"] <= snap["max"]


#: Per request field: (valid values, invalid values) for the request fuzz.
#: Every valid method has a weighted variant, so any draw of valid values
#: makes a runnable request.
_REQUEST_FIELDS = {
    "p": ([0.3, 0.5], ["half", None, 0.0, 1.0, float("nan"), True]),
    "method": (["bm2", "crr", "BM2-sparse"], [None, "nope", 3]),
    "seed": ([0, 7, None], ["x", 1.5, True]),
    "priority": ([0, -2, 5], ["high", None, 1.5]),
    "num_sources": ([None, 1, 8], [0, -3, "many", 2.0]),
    "weighted": ([False, True], ["no", 1, None]),
    "deadline_seconds": ([None, 0, 2.5], ["5", -1.0, float("nan"), float("inf")]),
    "max_resident_edges": ([None, 1, 10_000], ["10", 0, 2.5]),
}
#: Malformed (graph, graph_ref) pairs, by the field the rejection names;
#: exactly one must be set, ``graph`` to a Graph or ``graph_ref`` to a str.
_BAD_GRAPHS = {
    "graph": [("edges.txt", None), ("g", "dataset:ca-grqc"), (None, None)],
    "graph_ref": [(None, 42)],
}


@given(
    graphs(),
    st.sampled_from([None, *_BAD_GRAPHS, *_REQUEST_FIELDS]),
    st.data(),
    st.sampled_from(["inline", "thread"]),
)
@settings(max_examples=60, deadline=None)
def test_fuzzed_request_is_rejected_at_submit_or_completes(g, bad, data, mode):
    fields = {
        name: data.draw(st.sampled_from(invalid if name == bad else valid), label=name)
        for name, (valid, invalid) in _REQUEST_FIELDS.items()
    }
    graph, graph_ref = (g, None)
    if bad in _BAD_GRAPHS:
        graph, graph_ref = data.draw(st.sampled_from(_BAD_GRAPHS[bad]), label=bad)
    fields["graph"] = g if graph == "g" else graph
    fields["graph_ref"] = graph_ref
    with SheddingService(num_workers=2, mode=mode) as service:
        handle = service.submit(ReductionRequest(**fields))
        result = handle.result(timeout=60)
        if bad is None:
            assert result.status.value == "completed", result.error
        else:
            assert result.status.value == "rejected"
            assert re.search(rf"\b{bad}\b", result.error), result.error
            assert service.store.stats["computes"] == 0
        assert service.ledger.in_use == 0
