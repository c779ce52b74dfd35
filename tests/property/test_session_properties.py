"""Property pins for the batched maintainer entry point and the session layer.

The contracts (ISSUE: streaming sessions acceptance):

* :meth:`IncrementalShedder.apply_ops` is **bit-identical** to the
  per-op ``insert``/``delete`` reference in :mod:`tests.oracles.dynamic`
  for every workload shape and every batch split — same ``G``, same
  ``G'``, same Δ, same stats, same drift-monitor state;
* ``skip_invalid=True`` equals a per-op reference loop that swallows the
  same per-op exceptions, with the skip count surfaced in the report;
* a paced :class:`StreamSession` fed the same seeded op sequence lands
  on the same fingerprint as the direct drive (sampled more lightly —
  each example spins an event loop);
* a fuzzed submit either refuses its whole batch with ``SessionError``
  and enqueues nothing, or is applied with the session healthy and its
  ledger charge intact.

Scenarios draw weighted and unweighted graphs alike, and the fingerprint
includes both graphs' weight maps: on a weighted ``G`` the batched path
must give inserted edges weight 1.0 and drop deleted edges' weights,
exactly as ``Graph.add_edge``/``remove_edge`` do.
"""

import asyncio

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.dynamic import generate_workload
from repro.errors import ReproError, SessionError
from repro.graph import Graph
from repro.graph.generators import erdos_renyi
from repro.sessions import SessionConfig, SessionManager
from repro.uncertain import attach_random_weights
from tests.oracles import dynamic as oracle


def _fingerprint(shedder):
    return {
        "graph_edges": list(shedder.graph.edges()),
        "reduced_edges": list(shedder.reduced.edges()),
        "graph_weights": list(shedder.graph.edge_weights()),
        "reduced_weights": list(shedder.reduced.edge_weights()),
        "delta": shedder.delta,
        "stats": dict(shedder.stats),
        "armed": shedder.monitor.armed,
        "nodes": shedder.graph.num_nodes,
        "version": shedder.graph._version,
    }


@st.composite
def churn_scenario(draw):
    n = draw(st.integers(3, 12))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda e: e[0] != e[1]
            ),
            min_size=1,
            max_size=3 * n,
        )
    )
    p = draw(st.sampled_from([0.25, 0.4, 0.5, 0.6, 0.75]))
    workload = draw(st.sampled_from(["insert", "sliding", "mixed"]))
    workload_seed = draw(st.integers(0, 2**31 - 1))
    num_ops = draw(st.integers(1, 40))
    chunk_sizes = draw(st.lists(st.integers(1, 9), min_size=1, max_size=12))
    drift_ratio = draw(st.sampled_from([0.1, 1.0]))
    weighted = draw(st.booleans())
    return (
        n, edges, p, workload, workload_seed, num_ops, chunk_sizes, drift_ratio,
        weighted,
    )


def _graph(n, edges, weighted):
    graph = Graph(edges=edges, nodes=range(n))
    return attach_random_weights(graph, seed=0) if weighted else graph


def _build(n, edges, p, drift_ratio, weighted):
    graph = _graph(n, edges, weighted)
    config = SessionConfig(p=p, seed=0, drift_ratio=drift_ratio, drift_cooldown_ops=5)
    return graph, SessionManager._build_shedder(graph, config), config


def _split(ops, chunk_sizes):
    batches, start, i = [], 0, 0
    while start < len(ops):
        size = chunk_sizes[i % len(chunk_sizes)]
        batches.append(ops[start : start + size])
        start += size
        i += 1
    return batches


@given(churn_scenario())
@settings(max_examples=60, deadline=None)
def test_apply_ops_bit_identical_to_per_op_loop(scenario):
    (
        n, edges, p, workload, workload_seed, num_ops, chunk_sizes, drift_ratio,
        weighted,
    ) = scenario
    g_ref = Graph(edges=edges, nodes=range(n))
    ops = generate_workload(workload, g_ref, num_ops, seed=workload_seed)

    _, per_op, _ = _build(n, edges, p, drift_ratio, weighted)
    for kind, u, v in ops:
        if kind == "insert":
            oracle.insert(per_op, u, v)
        else:
            oracle.delete(per_op, u, v)

    _, batched, _ = _build(n, edges, p, drift_ratio, weighted)
    applied = 0
    for batch in _split(ops, chunk_sizes):
        report = batched.apply_ops(batch)
        applied += report.applied
        assert report.skipped == 0

    assert applied == len(ops)
    assert _fingerprint(batched) == _fingerprint(per_op)


@given(churn_scenario(), st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_apply_ops_skip_invalid_equals_per_op_skip_loop(scenario, noise_seed):
    """Interleave invalid ops (dup inserts, missing deletes, self-loops):
    ``skip_invalid=True`` must match a per-op loop that swallows them."""
    import random

    (
        n, edges, p, workload, workload_seed, num_ops, chunk_sizes, drift_ratio,
        weighted,
    ) = scenario
    g_ref = Graph(edges=edges, nodes=range(n))
    ops = list(generate_workload(workload, g_ref, num_ops, seed=workload_seed))
    rng = random.Random(noise_seed)
    noisy = []
    for op in ops:
        noisy.append(op)
        roll = rng.random()
        if roll < 0.15:
            noisy.append(("insert", op[1], op[1]))  # self-loop
        elif roll < 0.3:
            noisy.append(("delete", "ghost-a", "ghost-b"))  # absent edge

    _, per_op, _ = _build(n, edges, p, drift_ratio, weighted)
    skipped_ref = 0
    for kind, u, v in noisy:
        try:
            if kind == "insert":
                oracle.insert(per_op, u, v)
            else:
                oracle.delete(per_op, u, v)
        except ReproError:
            skipped_ref += 1

    _, batched, _ = _build(n, edges, p, drift_ratio, weighted)
    applied = skipped = 0
    for batch in _split(noisy, chunk_sizes):
        report = batched.apply_ops(batch, skip_invalid=True)
        applied += report.applied
        skipped += report.skipped

    assert applied + skipped == len(noisy)
    assert skipped == skipped_ref
    assert _fingerprint(batched) == _fingerprint(per_op)


@given(churn_scenario())
@settings(max_examples=15, deadline=None)
def test_paced_session_matches_direct_drive(scenario):
    (
        n, edges, p, workload, workload_seed, num_ops, chunk_sizes, drift_ratio,
        weighted,
    ) = scenario
    g_ref = Graph(edges=edges, nodes=range(n))
    ops = generate_workload(workload, g_ref, num_ops, seed=workload_seed)

    graph, direct, config = _build(n, edges, p, drift_ratio, weighted)
    oracle.replay(direct, ops)
    reference = _fingerprint(direct)

    async def live():
        session_graph = _graph(n, edges, weighted)
        async with SessionManager() as manager:
            session = await manager.open(config=config, graph=session_graph)
            for batch in _split(ops, chunk_sizes):
                assert session.submit(batch).clean
                await session.flush(timeout=30.0)
            fingerprint = _fingerprint(session.shedder)
            await manager.close_session(session)
            return fingerprint

    assert asyncio.run(live()) == reference


_LABEL = st.integers(0, 11)
_KIND = st.sampled_from(["insert", "delete"])
_FUZZ_OP = st.one_of(
    # Well-formed: fresh or duplicate inserts, live or stale deletes, self-loops.
    st.tuples(_KIND, _LABEL, _LABEL),
    st.tuples(st.sampled_from(["upsert", "INSERT", "", None, 3]), _LABEL, _LABEL),
    st.tuples(_KIND, _LABEL),
    st.tuples(_KIND, _LABEL, _LABEL, _LABEL),
    st.tuples(_KIND, st.lists(_LABEL, max_size=2), _LABEL),
    st.tuples(_KIND, _LABEL, st.sets(_LABEL, max_size=2)),
    st.text(max_size=4),
    st.none(),
)


@given(st.lists(st.lists(_FUZZ_OP, max_size=8), min_size=1, max_size=6))
@settings(max_examples=40, deadline=None)
def test_fuzzed_submit_refuses_whole_batch_or_applies_it(batches):
    async def live():
        async with SessionManager() as manager:
            session = await manager.open(
                config=SessionConfig(p=0.5, seed=0), graph=erdos_renyi(12, 0.3, seed=1)
            )
            try:
                for batch in batches:
                    depth = session.telemetry()["backpressure"]["depth"]
                    try:
                        session.submit(batch)
                    except SessionError:
                        assert session.telemetry()["backpressure"]["depth"] == depth
                        assert session.failed is None
                        continue
                    await session.flush(timeout=10.0)
                    assert session.failed is None
                    assert manager.ledger.in_use == session.charge
            finally:
                # Forced: a drain worker killed by a bad op must not hang the close.
                await manager.close_session(session, force=True)
            assert manager.ledger.in_use == 0

    asyncio.run(live())
