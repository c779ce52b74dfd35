"""Tests for :class:`repro.sessions.SessionManager`.

Covers the lifecycle and the budget audit the ISSUE pins: every ledger
acquire has a matching release on **every** path — failed open, session
killed mid-churn, forced close, manager shutdown.
"""

import asyncio

import pytest

from repro.dynamic import generate_workload
from repro.errors import SessionError
from repro.graph import Graph
from repro.graph.generators import erdos_renyi
from repro.sessions import SessionConfig, SessionManager


@pytest.fixture
def small_er() -> Graph:
    return erdos_renyi(60, 0.1, seed=42)


CONFIG = SessionConfig(p=0.5)


def run(coro):
    return asyncio.run(coro)


class TestLifecycle:
    def test_open_requires_started_manager(self, small_er):
        async def main():
            manager = SessionManager()
            with pytest.raises(SessionError, match="not started"):
                await manager.open(config=CONFIG, graph=small_er)

        run(main())

    def test_open_requires_exactly_one_graph_source(self, small_er):
        async def main():
            async with SessionManager() as manager:
                with pytest.raises(SessionError, match="exactly one"):
                    await manager.open(config=CONFIG)
                with pytest.raises(SessionError, match="exactly one"):
                    await manager.open(
                        config=CONFIG, graph=small_er, graph_ref="dataset:ca-grqc"
                    )

        run(main())

    def test_open_by_graph_ref(self):
        async def main():
            async with SessionManager() as manager:
                session = await manager.open(
                    config=CONFIG, graph_ref="dataset:ca-grqc:0.02"
                )
                assert session.shedder.graph.num_edges > 0
                assert manager.ledger.in_use == session.charge

        run(main())

    def test_bad_graph_ref_wrapped_and_released(self):
        async def main():
            async with SessionManager() as manager:
                with pytest.raises(SessionError, match="could not resolve"):
                    await manager.open(config=CONFIG, graph_ref="dataset:no-such")
                assert manager.ledger.in_use == 0

        run(main())

    def test_get_and_close_session(self, small_er):
        async def main():
            async with SessionManager() as manager:
                session = await manager.open(config=CONFIG, graph=small_er)
                assert manager.get(session.session_id) is session
                telemetry = await manager.close_session(session)
                assert telemetry["closed"] is True
                with pytest.raises(SessionError, match="no open session"):
                    manager.get(session.session_id)
                assert manager.ledger.in_use == 0

        run(main())

    def test_manager_close_closes_sessions(self, small_er):
        async def main():
            manager = SessionManager()
            async with manager:
                session = await manager.open(config=CONFIG, graph=small_er)
            assert session.closed
            assert manager.ledger.in_use == 0
            with pytest.raises(SessionError, match="closed"):
                await manager.open(config=CONFIG, graph=small_er)

        run(main())


class TestBudgetAudit:
    def test_open_refused_when_over_capacity(self, small_er):
        async def main():
            async with SessionManager(max_resident_edges=10) as manager:
                with pytest.raises(SessionError, match="session budget"):
                    await manager.open(config=CONFIG, graph=small_er)
                assert manager.ledger.in_use == 0

        run(main())

    def test_open_refused_when_budget_in_use(self, small_er):
        async def main():
            budget = small_er.num_edges + 10
            async with SessionManager(max_resident_edges=budget) as manager:
                first = await manager.open(config=CONFIG, graph=small_er)
                with pytest.raises(SessionError, match="cannot fund"):
                    await manager.open(
                        config=CONFIG, graph=erdos_renyi(40, 0.1, seed=7)
                    )
                # The refused open leaked nothing; the first session's
                # charge is intact.
                assert manager.ledger.in_use == first.charge

        run(main())

    def test_bad_config_refused_before_graph_or_ledger(self):
        calls = []

        def loader(ref, seed):
            calls.append(ref)
            return erdos_renyi(60, 0.1, seed=42)

        async def main():
            async with SessionManager(graph_loader=loader) as manager:
                for config in (
                    SessionConfig(p=0.5, method="nope"),
                    SessionConfig(p=0.5, drift_ratio=-1.0),
                    SessionConfig(p=0.5, reservoir_size=-1),
                ):
                    with pytest.raises(SessionError):
                        await manager.open(config=config, graph_ref="dataset:x")
                assert manager.ledger.in_use == 0

        run(main())
        assert calls == []

    def test_failed_build_releases_charge(self, small_er, monkeypatch):
        def boom(graph, config):
            raise RuntimeError("seed reduction exploded")

        async def main():
            async with SessionManager() as manager:
                monkeypatch.setattr(SessionManager, "_build_shedder", staticmethod(boom))
                with pytest.raises(RuntimeError, match="exploded"):
                    await manager.open(config=CONFIG, graph=small_er)
                assert manager.ledger.in_use == 0

        run(main())

    def test_session_killed_mid_churn_releases_charge(self, small_er, monkeypatch):
        """Regression: a session dying inside the drain loop must hand its
        whole ledger charge back, and close_session must still work."""

        async def main():
            async with SessionManager() as manager:
                session = await manager.open(config=CONFIG, graph=small_er)
                calls = {"n": 0}
                real_apply = session.shedder.apply_ops

                def flaky(ops, skip_invalid=False):
                    calls["n"] += 1
                    if calls["n"] >= 2:
                        raise RuntimeError("mid-churn crash")
                    return real_apply(ops, skip_invalid=skip_invalid)

                monkeypatch.setattr(session.shedder, "apply_ops", flaky)
                ops = generate_workload("mixed", small_er, 200, seed=1)
                for start in range(0, len(ops), 64):
                    try:
                        session.submit(ops[start : start + 64])
                    except SessionError:
                        break
                    await asyncio.sleep(0)
                with pytest.raises(SessionError, match="mid-churn crash"):
                    await session.flush()
                assert session.failed is not None
                assert manager.ledger.in_use == 0
                telemetry = await manager.close_session(session)
                assert telemetry["failed"] is not None
                assert manager.ledger.in_use == 0

        run(main())

    def test_forced_close_counts_abandoned_ops(self, small_er):
        async def main():
            # A manager that is started but whose workers never get a
            # chance to run (we force-close before yielding to them).
            async with SessionManager() as manager:
                session = await manager.open(config=CONFIG, graph=small_er)
                ops = generate_workload("insert", small_er, 50, seed=1)
                receipt = session.submit(ops)
                assert receipt.accepted == 50
                telemetry = await manager.close_session(session, force=True)
                assert telemetry["ops"]["rejected"] == 50
                assert telemetry["ops"]["applied"] == 0
                assert manager.ledger.in_use == 0

        run(main())


class TestDraining:
    def test_flush_applies_everything(self, small_er):
        async def main():
            async with SessionManager() as manager:
                session = await manager.open(config=CONFIG, graph=small_er)
                ops = generate_workload("mixed", small_er, 300, seed=5)
                receipt = session.submit(ops)
                assert receipt.clean
                await session.flush(timeout=30.0)
                assert session.shedder.stats["ops"] == 300
                assert session.telemetry()["backpressure"]["depth"] == 0

        run(main())

    def test_two_sessions_share_the_worker_pool(self):
        async def main():
            g1 = erdos_renyi(50, 0.1, seed=1)
            g2 = erdos_renyi(50, 0.1, seed=2)
            async with SessionManager(num_workers=2) as manager:
                s1 = await manager.open(config=CONFIG, graph=g1)
                s2 = await manager.open(config=CONFIG, graph=g2)
                ops1 = generate_workload("mixed", g1, 200, seed=11)
                ops2 = generate_workload("mixed", g2, 200, seed=22)
                s1.submit(ops1)
                s2.submit(ops2)
                await asyncio.gather(s1.flush(), s2.flush())
                assert s1.shedder.stats["ops"] == 200
                assert s2.shedder.stats["ops"] == 200
                snapshot = manager.telemetry()
                assert snapshot["counters"]["sessions_opened"] == 2
                assert set(snapshot["sessions"]) == {s1.session_id, s2.session_id}

        run(main())

    def test_manager_telemetry_reports_budget(self, small_er):
        async def main():
            async with SessionManager(max_resident_edges=10_000) as manager:
                session = await manager.open(config=CONFIG, graph=small_er)
                snapshot = manager.telemetry()
                assert snapshot["budget"]["capacity_edges"] == 10_000
                assert snapshot["budget"]["in_use_edges"] == session.charge
                assert snapshot["gauges"]["open_sessions"] == 1

        run(main())
