"""``stream-churn``: four live sessions applying a seeded insert/delete stream.

``SessionManager(num_workers=2)`` opens 4 sessions by ``file:`` ref on
powerlaw-cluster graphs of about 1.25*10^4 edges (p = 0.5, default
``RepairConfig``).  Each session's client is a coroutine that submits
256-op batches of its own seeded mixed churn stream (about 5*10^4 ops in
all) and awaits ``flush`` before the next batch, so the inbox never
reaches a watermark and every receipt must be clean.

Set-up opens all sessions, seed reduction included.  Throughput is
applied ops per second; latency is per batch, from submit to flush.  The
traced run adds spans on open, submit and flush, then replays every
stream through ``IncrementalShedder.apply_ops`` to split the session
layer from the maintainer's own work.
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from checks import edge_fingerprint
from harness import Round, stamp, timing
from inputs import ChurnOp, mixed_churn_ops, powerlaw_cluster_edges, write_edge_file
from repro.dynamic import DriftMonitor, IncrementalShedder
from repro.graph.io import read_edge_list
from repro.service import make_shedder
from repro.sessions import SessionConfig, SessionManager
from spans import Tracer, maybe_span

SESSIONS = 4
NODES, LINKS, TRIANGLES = 3_125, 4, 0.3
BATCH = 256
BATCHES = 49  # per session: 49 * 256 = 12,544 ops
P = 0.5
WORKERS = 2
NOMINAL_ROUND_S = 5.0


@dataclass
class Inputs:
    seed: int
    paths: List[Path]
    configs: List[SessionConfig]
    #: Per session, its stream cut into submit batches.
    batches: List[List[List[ChurnOp]]]


def prepare(workdir: Path, seed: int, scale: float) -> Inputs:
    paths, configs, batches = [], [], []
    per_batch = max(int(BATCH * scale), 4)
    for index in range(SESSIONS):
        rng = np.random.default_rng([seed, 4, index])
        edge_u, edge_v = powerlaw_cluster_edges(max(int(NODES * scale), 20), LINKS, TRIANGLES, rng)
        path = workdir / f"session{index}.txt"
        write_edge_file(path, edge_u, edge_v, f"session graph {index}, seed {seed}")
        ops = mixed_churn_ops(edge_u, edge_v, per_batch * BATCHES, rng)
        paths.append(path)
        configs.append(SessionConfig(p=P, seed=seed * SESSIONS + index, label=f"client{index}"))
        batches.append([ops[i : i + per_batch] for i in range(0, len(ops), per_batch)])
    return Inputs(seed, paths, configs, batches)


async def _client(session, batches, tracer: Optional[Tracer]) -> List[Tuple[float, bool]]:
    """Submit each batch and await its flush: (latency, receipt clean) per batch."""
    outcomes = []
    for batch in batches:
        started = time.perf_counter()
        receipt = session.submit(batch)
        submitted = time.perf_counter()
        await session.flush()
        ended = time.perf_counter()
        outcomes.append((ended - started, receipt.clean))
        if tracer is not None:
            tracer.add("sessions.submit", started, submitted)
            tracer.add("sessions.flush_wait", submitted, ended)
    return outcomes


async def _round(inputs: Inputs, tracer: Optional[Tracer]) -> Round:
    async with SessionManager(num_workers=WORKERS) as manager:
        started = stamp()
        sessions = []
        for config, path in zip(inputs.configs, inputs.paths):
            with maybe_span(tracer, "sessions.open"):
                sessions.append(await manager.open(config, graph_ref=f"file:{path}"))
        opened = stamp()
        outcomes = await asyncio.gather(
            *(_client(s, b, tracer) for s, b in zip(sessions, inputs.batches))
        )
        done = stamp()
        finals = []
        for session in sessions:
            shedder = session.shedder
            ops = session.telemetry()["ops"]
            finals.append(
                {
                    "applied": ops["applied"],
                    "skipped": ops["skipped_stale"],
                    "failed": session.failed,
                    "delta": repr(shedder.delta),
                    "avg_delta": shedder.delta / shedder.graph.num_nodes,
                    "reduced": edge_fingerprint(shedder.reduced),
                    "admitted": ops["admitted"],
                    "evicted": ops["evicted"],
                    "rebuilds": shedder.stats["rebuilds"],
                }
            )
    batches = [b for per_session in outcomes for b in per_session]
    return Round(
        **timing(started, opened, done, sum(f["applied"] for f in finals)),
        latencies=[b[0] for b in batches],
        avg_delta=math.fsum(f["avg_delta"] for f in finals) / len(finals),
        guards={"sessions": finals},
        keep={"clean": [b[1] for b in batches], "window": (started[0], done[0])},
    )


def run_round(inputs: Inputs, tracer: Optional[Tracer] = None) -> Round:
    return asyncio.run(_round(inputs, tracer))


def _replay(inputs: Inputs, index: int, tracer: Optional[Tracer] = None) -> IncrementalShedder:
    """The session's maintainer rebuilt from its config and fed its stream directly."""
    config = inputs.configs[index]
    graph = read_edge_list(inputs.paths[index])
    shedder = IncrementalShedder(
        graph,
        config.p,
        make_shedder(config.method, seed=config.seed, engine=config.engine),
        repair=config.repair,
        drift=DriftMonitor(
            config.p,
            drift_ratio=config.drift_ratio,
            hysteresis=config.drift_hysteresis,
            cooldown_ops=config.drift_cooldown_ops,
        ),
        reservoir_size=config.reservoir_size,
        seed=config.seed,
    )
    for batch in inputs.batches[index]:
        with maybe_span(tracer, "dynamic.apply_ops", session=index):
            shedder.apply_ops(batch)
    return shedder


def check_round(inputs: Inputs, current: Round, tally, first: bool) -> None:
    for clean in current.keep["clean"]:
        tally.record(clean, "submit receipt not clean (ops shed or rejected)")
    for index, final in enumerate(current.guards["sessions"]):
        expected = sum(len(b) for b in inputs.batches[index])
        if final["failed"] is not None:
            tally.fail(f"session {index} failed: {final['failed']}")
        if final["applied"] != expected or final["skipped"]:
            tally.fail(f"session {index} applied {final['applied']} of {expected} ops")
        if first:
            replay = _replay(inputs, index)
            if repr(replay.delta) != final["delta"] or edge_fingerprint(replay.reduced) != final["reduced"]:
                tally.fail(f"session {index} differs from a direct apply_ops replay")


def traced(inputs: Inputs, tracer: Tracer, untraced: Round):
    current = run_round(inputs, tracer)
    problems = []
    if current.guards != untraced.guards:
        problems.append("traced round ended in a different state")
    replays = [_replay(inputs, index, tracer) for index in range(SESSIONS)]
    layers = {
        "sessions.open_s": tracer.total("sessions.open"),
        "sessions.submit_s": tracer.total("sessions.submit"),
        "sessions.flush_wait_s": tracer.total("sessions.flush_wait"),
        "dynamic.apply_ops_s": tracer.total("dynamic.apply_ops"),
        "dynamic.applied": float(sum(r.stats["ops"] for r in replays)),
        "dynamic.admitted": float(sum(r.stats["admitted"] for r in replays)),
        "dynamic.evicted": float(sum(r.stats["evicted"] for r in replays)),
        "dynamic.rebuilds": float(sum(r.stats["rebuilds"] for r in replays)),
    }
    return layers, current.keep["window"], problems
