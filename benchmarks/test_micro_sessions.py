"""Micro-benchmark: concurrent streaming sessions under mixed churn.

This is the session layer's acceptance measurement: ``NUM_SESSIONS``
(≥ 4) concurrent :class:`~repro.sessions.StreamSession` clients, each on
its own seeded Erdos-Renyi graph, stream a seeded mixed-churn workload
through one :class:`~repro.sessions.SessionManager` drain pool.  The
sessions run the high-throughput maintainer configuration
(``repair=False`` — pure capacity-gated admit/evict, the same profile the
``apply_ops`` batching was built for).

Gates, following the ``test_micro_dynamic`` convention:

* hard CI floor: aggregate session throughput ≥ ``FLOOR_OPS_PER_S``
  (50k ops/s) — conservative so a noisy runner doesn't flap;
* advisory target: ``TARGET_OPS_PER_S`` (100k ops/s) warns instead of
  failing;
* correctness riders: every submitted op is accounted for
  (applied + shed + rejected + stale), and the shared ledger drains to
  zero once every session closes.

A second, unpaced profile deliberately overruns a tiny inbox to record
the backpressure machinery's numbers (shed/rejected counts, state
transitions) — no floor, it exists so ``BENCH_PR8.json`` carries real
backpressure evidence.  Raw wall-clocks, per-session telemetry and
ledger stats land in ``BENCH_PR8.json`` and a BenchReport.
"""

from __future__ import annotations

import asyncio
import json
import time
import warnings
from pathlib import Path

import pytest

from repro.bench.harness import BenchReport
from repro.dynamic import mixed_churn
from repro.graph import erdos_renyi
from repro.sessions import SessionConfig, SessionManager

REPO_ROOT = Path(__file__).resolve().parent.parent

ACCEPT_SEED = 42
ACCEPT_P = 0.5
OPS_PER_SESSION = 10_000
GRAPH_NODES, GRAPH_EDGES = 2000, 10_000
#: Hard CI floor (noise-tolerant) vs advisory acceptance target, in
#: aggregate applied ops per second across all concurrent sessions.
FLOOR_OPS_PER_S, TARGET_OPS_PER_S = 50_000.0, 100_000.0

QUICK_SESSIONS = 4
FULL_SESSIONS = 8

#: High-throughput profile: no localized repair, rebuilds on the default
#: Theorem-2 envelope, batched drain quantum sized for the workload.
SESSION_CONFIG = SessionConfig(
    p=ACCEPT_P,
    seed=ACCEPT_SEED,
    repair=False,
    inbox_capacity=8192,
    batch_ops=1024,
)


def _record(section: str, payload: dict) -> None:
    """Merge one profile's numbers into BENCH_PR8.json (order-independent)."""
    path = REPO_ROOT / "BENCH_PR8.json"
    data = (
        json.loads(path.read_text(encoding="utf-8"))
        if path.exists()
        else {"experiment": "micro_sessions"}
    )
    data[section] = payload
    path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")


def _session_graph(index: int):
    density = 2 * GRAPH_EDGES / (GRAPH_NODES * (GRAPH_NODES - 1))
    return erdos_renyi(GRAPH_NODES, density, seed=ACCEPT_SEED + index)


async def _drive_paced(session, ops, chunk):
    """Submit in chunks, yielding so the drain pool interleaves sessions."""
    for start in range(0, len(ops), chunk):
        receipt = session.submit(ops[start : start + chunk])
        assert receipt.clean, "paced profile must not trip backpressure"
        await asyncio.sleep(0)
    await session.flush(timeout=120.0)


def _run_concurrent(num_sessions: int):
    graphs = [_session_graph(i) for i in range(num_sessions)]
    streams = [
        mixed_churn(graphs[i], OPS_PER_SESSION, seed=ACCEPT_SEED + i)
        for i in range(num_sessions)
    ]

    async def main():
        async with SessionManager(num_workers=2) as manager:
            sessions = [
                await manager.open(config=SESSION_CONFIG, graph=graph)
                for graph in graphs
            ]
            start = time.perf_counter()
            await asyncio.gather(
                *(
                    _drive_paced(session, ops, SESSION_CONFIG.batch_ops)
                    for session, ops in zip(sessions, streams)
                )
            )
            elapsed = time.perf_counter() - start
            telemetries = [
                await manager.close_session(session) for session in sessions
            ]
            assert manager.ledger.in_use == 0, "ledger must drain on close"
            return elapsed, telemetries

    return asyncio.run(main())


@pytest.mark.slow
def test_concurrent_sessions_throughput(quick, archive_report):
    num_sessions = QUICK_SESSIONS if quick else FULL_SESSIONS
    elapsed, telemetries = _run_concurrent(num_sessions)

    total_applied = 0
    for telemetry in telemetries:
        ops = telemetry["ops"]
        assert telemetry["failed"] is None
        accounted = (
            ops["applied"]
            + ops["skipped_stale"]
            + ops["shed_backpressure"]
            + ops["shed_budget"]
            + ops["rejected"]
        )
        assert accounted == ops["submitted"], (
            f"{telemetry['session_id']}: {ops['submitted']} submitted but only "
            f"{accounted} accounted for"
        )
        total_applied += ops["applied"]

    throughput = total_applied / elapsed
    label = f"{num_sessions} sessions x {OPS_PER_SESSION} ops"
    assert throughput >= FLOOR_OPS_PER_S, (
        f"{label}: aggregate {throughput:,.0f} ops/s below the "
        f"{FLOOR_OPS_PER_S:,.0f} ops/s CI floor"
    )
    if throughput < TARGET_OPS_PER_S:
        warnings.warn(
            f"{label}: aggregate {throughput:,.0f} ops/s is below the "
            f"{TARGET_OPS_PER_S:,.0f} ops/s acceptance target "
            "(advisory; likely a noisy runner)",
            stacklevel=2,
        )

    payload = {
        "sessions": num_sessions,
        "ops_per_session": OPS_PER_SESSION,
        "graph": {
            "generator": "erdos_renyi",
            "nodes": GRAPH_NODES,
            "edges": GRAPH_EDGES,
            "seed": ACCEPT_SEED,
            "p": ACCEPT_P,
        },
        "wall_clock_seconds": round(elapsed, 4),
        "aggregate_ops_per_s": round(throughput, 0),
        "floor_ops_per_s": FLOOR_OPS_PER_S,
        "target_ops_per_s": TARGET_OPS_PER_S,
        "per_session": [
            {
                "session_id": t["session_id"],
                "applied": t["ops"]["applied"],
                "throughput_ops_per_s": round(t["throughput_ops_per_s"], 0),
                "busy_seconds": round(t["busy_seconds"], 4),
                "latency_us": {
                    k: round(v, 1) for k, v in t["latency_us"].items()
                },
                "rebuilds": t["drift"]["rebuilds"],
                "ledger": t["ledger"],
                "backpressure_transitions": t["backpressure"]["transitions"],
            }
            for t in telemetries
        ],
    }
    _record(f"throughput_s{num_sessions}", payload)

    report = BenchReport(
        experiment_id="micro_sessions",
        title=f"Concurrent streaming sessions ({label}, mixed churn)",
        headers=["profile", "wall s", "aggregate ops/s", "floor", "target"],
        rows=[
            [
                label,
                elapsed,
                throughput,
                FLOOR_OPS_PER_S,
                TARGET_OPS_PER_S,
            ]
        ],
        notes=[
            "High-throughput maintainer profile (repair=False); every op "
            "accounted for across applied/shed/rejected/stale.",
            f"p = {ACCEPT_P}, per-session ER graphs and churn seeds derived "
            f"from {ACCEPT_SEED}.",
            "Shared BudgetLedger drains to zero after the last close.",
        ],
    )
    archive_report(report)


@pytest.mark.slow
def test_backpressure_profile_recorded(quick):
    """Unpaced firehose into a tiny inbox: record what the state machine did."""
    graph = _session_graph(99)
    ops = mixed_churn(graph, 20_000, seed=ACCEPT_SEED)
    config = SessionConfig(
        p=ACCEPT_P,
        seed=ACCEPT_SEED,
        repair=False,
        inbox_capacity=256,
        batch_ops=64,
        shed_watermark=0.5,
        apply_watermark=0.25,
    )

    async def main():
        async with SessionManager(num_workers=1) as manager:
            session = await manager.open(config=config, graph=graph)
            start = time.perf_counter()
            shed = rejected = 0
            for index in range(0, len(ops), 512):
                receipt = session.submit(ops[index : index + 512])
                shed += receipt.shed
                rejected += receipt.rejected
                await asyncio.sleep(0)
            await session.flush(timeout=120.0)
            elapsed = time.perf_counter() - start
            telemetry = await manager.close_session(session)
            return elapsed, shed, rejected, telemetry

    elapsed, shed, rejected, telemetry = asyncio.run(main())
    bp = telemetry["backpressure"]
    ops_t = telemetry["ops"]
    # The firehose must actually have exercised the machinery…
    assert shed + rejected > 0, "firehose profile never tripped backpressure"
    assert bp["transitions"] >= 2
    # …and still account for every op.
    accounted = (
        ops_t["applied"]
        + ops_t["skipped_stale"]
        + ops_t["shed_backpressure"]
        + ops_t["shed_budget"]
        + ops_t["rejected"]
    )
    assert accounted == ops_t["submitted"]

    _record(
        "backpressure_firehose",
        {
            "ops_offered": len(ops),
            "inbox_capacity": config.inbox_capacity,
            "shed_watermark": config.shed_watermark,
            "apply_watermark": config.apply_watermark,
            "wall_clock_seconds": round(elapsed, 4),
            "applied": ops_t["applied"],
            "inserts_shed_backpressure": ops_t["shed_backpressure"],
            "rejected": ops_t["rejected"],
            "skipped_stale": ops_t["skipped_stale"],
            "state_transitions": bp["transitions"],
            "final_state": bp["state"],
        },
    )
