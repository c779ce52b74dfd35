"""Unit tests for :class:`repro.sessions.StreamSession`.

These construct sessions directly (no manager, no event loop) to pin the
per-session mechanics: config validation, the explicit-backpressure
state machine with hysteresis, receipt conservation, ledger chunk
accounting in ``_apply_batch``, and the failure path releasing the whole
charge.
"""

import pytest

from repro.dynamic import IncrementalShedder
from repro.errors import SessionError
from repro.graph import Graph
from repro.graph.generators import erdos_renyi
from repro.service import BudgetLedger
from repro.sessions import APPLY, REJECT, SHED, SessionConfig, StreamSession


@pytest.fixture
def small_er() -> Graph:
    return erdos_renyi(60, 0.1, seed=42)


def _make_session(graph, config, capacity=100_000):
    ledger = BudgetLedger(capacity)
    charge = graph.num_edges
    assert ledger.try_acquire(charge)
    shedder = IncrementalShedder(graph, config.p, seed=config.seed)
    session = StreamSession(
        session_id="t0", shedder=shedder, config=config, ledger=ledger, charge=charge
    )
    return session, ledger


class TestSessionConfig:
    def test_defaults_validate(self):
        SessionConfig(p=0.5).validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"p": 0.0},
            {"p": 1.0},
            {"p": 0.5, "inbox_capacity": 0},
            {"p": 0.5, "batch_ops": 0},
            {"p": 0.5, "shed_watermark": 0.0},
            {"p": 0.5, "shed_watermark": 1.5},
            {"p": 0.5, "apply_watermark": 0.8, "shed_watermark": 0.7},
            {"p": 0.5, "ledger_chunk": 0},
            {"p": 0.5, "engine": "legacy"},
            {"p": "half"},
            {"p": 0.5, "method": "nope"},
            {"p": 0.5, "method": None},
            {"p": 0.5, "reservoir_size": -1},
            {"p": 0.5, "drift_ratio": 0.0},
            {"p": 0.5, "drift_ratio": "high"},
            {"p": 0.5, "drift_hysteresis": 0.0},
            {"p": 0.5, "drift_hysteresis": 1.5},
            {"p": 0.5, "drift_cooldown_ops": -1},
        ],
    )
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(SessionError):
            SessionConfig(**kwargs).validate()


class TestSubmitChecks:
    @pytest.mark.parametrize(
        "bad_op",
        [
            ("upsert", 1, 2),
            ("insert", 1),
            ("delete", 1, 2, 3),
            ("insert", [1], 2),
            ("delete", 1, {2: 3}),
            "insert",
            None,
        ],
    )
    def test_malformed_op_refuses_whole_batch(self, small_er, bad_op):
        session, ledger = _make_session(small_er, SessionConfig(p=0.5))
        with pytest.raises(SessionError, match="op #1"):
            session.submit([("insert", 100, 101), bad_op])
        assert session.telemetry()["backpressure"]["depth"] == 0
        assert session.failed is None
        assert session.submit([("insert", 100, 101)]).accepted == 1

    def test_list_ops_are_enqueued_as_tuples(self, small_er):
        session, _ = _make_session(small_er, SessionConfig(p=0.5))
        session.submit([["insert", 100, 101]])
        assert session._drain_batch() == [("insert", 100, 101)]

    def test_stale_ops_are_well_formed(self, small_er):
        session, _ = _make_session(small_er, SessionConfig(p=0.5))
        receipt = session.submit([("insert", 7, 7), ("delete", "ghost", "edge")])
        assert receipt.accepted == 2
        session._apply_batch(session._drain_batch())
        assert session.failed is None
        assert session.telemetry()["ops"]["skipped_stale"] == 2


class TestBackpressure:
    CONFIG = SessionConfig(
        p=0.5,
        inbox_capacity=8,
        shed_watermark=0.5,  # shed_mark = 4
        apply_watermark=0.25,  # apply_mark = 2
        batch_ops=4,
    )

    def _ops(self, n, kind="insert"):
        return [(kind, f"x{i}", f"y{i}") for i in range(n)]

    def test_receipt_conserves_every_op(self, small_er):
        session, _ = _make_session(small_er, self.CONFIG)
        ops = self._ops(20)
        receipt = session.submit(ops)
        assert receipt.accepted + receipt.shed + receipt.rejected == len(ops)
        assert not receipt.clean

    def test_apply_to_shed_to_reject_progression(self, small_er):
        session, _ = _make_session(small_er, self.CONFIG)
        receipt = session.submit(self._ops(3))
        assert receipt.accepted == 3 and session.state == APPLY
        # Depth hits the shed mark (4) on the next submit: inserts shed.
        receipt = session.submit(self._ops(2, "insert"))
        assert receipt.accepted == 1  # the 4th enqueue trips the mark
        assert receipt.shed == 1
        assert session.state == SHED
        # Deletes still enqueue while shedding (they keep G truthful).
        receipt = session.submit([("delete", "a", "b")] * 3)
        assert receipt.accepted == 3 and receipt.shed == 0
        # Inbox now at 7/8: one more enqueue fills it, then REJECT.
        receipt = session.submit([("delete", "c", "d")] * 3)
        assert receipt.accepted == 1 and receipt.rejected == 2
        assert session.state == REJECT
        assert session.metrics.snapshot()["counters"]["ops_rejected"] == 2

    def test_hysteresis_exit_needs_apply_mark(self, small_er):
        session, _ = _make_session(small_er, self.CONFIG)
        # Deletes enqueue even in the shed state, so they can fill the
        # inbox to the brim; one further op then gets refused.
        session.submit(self._ops(8, "delete"))
        receipt = session.submit(self._ops(1, "delete"))
        assert receipt.rejected == 1
        assert session.state == REJECT
        # Drain one batch (4 ops): depth 4 is still above apply_mark=2.
        session._drain_batch()
        assert session._advance_state(session._inbox.qsize()) == REJECT
        # Drain past the hysteresis mark: back to APPLY.
        session._drain_batch()
        assert session._advance_state(session._inbox.qsize()) == APPLY
        counters = session.metrics.snapshot()["counters"]
        assert counters["backpressure_enter_shed"] == 1
        assert counters["backpressure_enter_reject"] == 1
        assert counters["backpressure_enter_apply"] == 1

    def test_transitions_counted(self, small_er):
        session, _ = _make_session(small_er, self.CONFIG)
        session.submit(self._ops(8, "delete"))
        session.submit(self._ops(1, "delete"))
        session._drain_batch()
        session._drain_batch()
        session._advance_state(0)
        assert session.telemetry()["backpressure"]["transitions"] == 3


class TestLedgerAccounting:
    def test_growth_funded_in_chunks(self, small_er):
        config = SessionConfig(p=0.5, ledger_chunk=16)
        session, ledger = _make_session(small_er, config)
        seed_charge = session.charge
        batch = [("insert", f"n{i}", f"m{i}") for i in range(10)]
        session._apply_batch(batch)
        # One 16-edge chunk funds 10 inserts.
        assert session.charge == seed_charge + 16
        assert ledger.in_use == session.charge

    def test_budget_exhaustion_sheds_inserts_keeps_deletes(self, small_er):
        config = SessionConfig(p=0.5, ledger_chunk=8)
        ledger_cap = small_er.num_edges  # no headroom at all
        session, ledger = _make_session(small_er, config, capacity=ledger_cap)
        victim = next(iter(small_er.edges()))
        batch = [("insert", "n0", "n1"), ("delete", victim[0], victim[1])]
        edges_before = session.shedder.graph.num_edges
        session._apply_batch(batch)
        counters = session.metrics.snapshot()["counters"]
        assert counters["inserts_shed_budget"] == 1
        assert session.shedder.graph.num_edges == edges_before - 1
        assert not session.shedder.graph.has_edge("n0", "n1")
        assert ledger.in_use <= ledger.capacity

    def test_shrink_releases_past_headroom_chunk(self, small_er):
        config = SessionConfig(p=0.5, ledger_chunk=4)
        session, ledger = _make_session(small_er, config)
        edges = list(small_er.edges())
        batch = [("delete", u, v) for u, v in edges[:12]]
        session._apply_batch(batch)
        resident = session.shedder.graph.num_edges
        # Shrink keeps at most 2 chunks of slack (1 chunk headroom + the
        # sub-chunk remainder).
        assert resident <= session.charge < resident + 2 * config.ledger_chunk
        assert ledger.in_use == session.charge

    def test_apply_failure_releases_whole_charge(self, small_er, monkeypatch):
        session, ledger = _make_session(small_er, SessionConfig(p=0.5))
        assert ledger.in_use > 0

        def boom(ops, skip_invalid=False):
            raise RuntimeError("disk on fire")

        monkeypatch.setattr(session.shedder, "apply_ops", boom)
        session._apply_batch([("insert", "a", "b")])
        assert session.failed is not None and "disk on fire" in session.failed
        assert session.closed
        assert ledger.in_use == 0
        with pytest.raises(SessionError):
            session.submit([("insert", "c", "d")])

    def test_release_all_is_idempotent(self, small_er):
        session, ledger = _make_session(small_er, SessionConfig(p=0.5))
        session._release_all()
        session._release_all()
        assert ledger.in_use == 0
        assert session.charge == 0


class TestTelemetryAndExport:
    def test_telemetry_shape(self, small_er):
        session, _ = _make_session(small_er, SessionConfig(p=0.5, label="probe"))
        session._apply_batch([("insert", "a", "b"), ("delete", "a", "b")])
        telemetry = session.telemetry()
        assert telemetry["label"] == "probe"
        assert telemetry["ops"]["applied"] == 2
        assert telemetry["latency_us"]["p50"] <= telemetry["latency_us"]["p99"]
        assert telemetry["graph"]["edges"] == small_er.num_edges
        assert telemetry["ledger"]["charge"] >= telemetry["ledger"]["resident_edges"]

    def test_snapshot_is_wire_shaped(self, small_er):
        from repro.graph.io import graph_from_payload

        session, _ = _make_session(small_er, SessionConfig(p=0.5))
        snap = session.snapshot()
        rebuilt = graph_from_payload(snap["graph"])
        assert rebuilt.num_edges == session.shedder.reduced.num_edges
        assert snap["delta"] == session.shedder.delta

    def test_export_result_detaches_graphs(self, small_er):
        session, _ = _make_session(small_er, SessionConfig(p=0.5))
        result = session.export_result()
        live_edges = session.shedder.graph.num_edges
        session._apply_batch([("insert", "zz1", "zz2")])
        # The exported copies must not see the later mutation.
        assert result.original.num_edges == live_edges
        assert not result.original.has_edge("zz1", "zz2")
        assert result.method == "session-bm2"
        assert result.stats["session_id"] == "t0"
