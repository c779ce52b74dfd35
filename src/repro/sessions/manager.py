"""`SessionManager` — multiplexes streaming sessions over a worker pool.

The manager owns everything sessions share:

* the **ledger** — one :class:`~repro.service.BudgetLedger` of resident
  edges across every live session.  A session's charge is acquired
  before its maintainer is built (and released if that build fails),
  resized in chunks as churn grows/shrinks the graph, and handed back in
  full when the session closes or dies — the audit the release-on-failure
  tests pin;
* the **worker pool** — ``num_workers`` asyncio tasks draining a shared
  runnable queue.  A session enters the queue when ops arrive, a worker
  applies at most one ``batch_ops`` quantum, and a still-non-empty
  session re-enters at the tail: fair round-robin at batch granularity,
  so one firehose client cannot starve the rest;
* the **graph loader** — the same ``dataset:`` / ``file:`` ref grammar as
  the one-shot service (:func:`~repro.service.resolve_graph_ref`).

Everything runs on one event loop; `apply_ops` batches execute inline
(bounded by the batch quantum), which is what makes the concurrency
deterministic: interleaving happens only at batch boundaries, and each
session's op order is its submission order, so concurrent sessions
produce exactly the results of running each serially (property-pinned).
"""

from __future__ import annotations

import asyncio
import itertools
from typing import Any, Callable, Dict, List, Optional

from repro.dynamic.drift import DriftMonitor
from repro.dynamic.maintainer import IncrementalShedder
from repro.errors import SessionError
from repro.graph.graph import Graph
from repro.service.admission import BudgetLedger
from repro.service.metrics import MetricsRegistry
from repro.service.request import make_shedder
from repro.service.service import DEFAULT_EDGE_BUDGET, resolve_graph_ref
from repro.service.store import ArtifactStore
from repro.sessions.session import SessionConfig, StreamSession

__all__ = ["SessionManager"]


class SessionManager:
    """Open, drive and close :class:`StreamSession` instances.

    Use as an async context manager::

        async with SessionManager(num_workers=2) as manager:
            session = await manager.open(graph=g, config=SessionConfig(p=0.5))
            session.submit(ops)
            await session.flush()
            print(session.telemetry())

    Args:
        max_resident_edges: global resident-edge budget shared by every
            session (original-graph edges are what the ledger meters,
            matching the one-shot service's accounting).
        num_workers: drain tasks.  More workers only helps when sessions
            await in between (the batches themselves run inline); the
            knob exists so the fairness quantum and the scheduling
            interleave can be tested, not for CPU parallelism.
        graph_loader: override for ``graph_ref`` resolution (defaults to
            the service's :func:`~repro.service.resolve_graph_ref`).
        artifact_store: optional :class:`~repro.service.ArtifactStore`;
            when set, every *graceful* session close exports the final
            detached reduction into it (see
            :meth:`StreamSession.export_artifact`), so streamed results
            land in the same cache the one-shot service serves from.
    """

    def __init__(
        self,
        max_resident_edges: int = DEFAULT_EDGE_BUDGET,
        num_workers: int = 2,
        graph_loader: Optional[Callable[[str, int], Graph]] = None,
        artifact_store: Optional[ArtifactStore] = None,
    ) -> None:
        if num_workers < 1:
            raise SessionError(f"num_workers must be >= 1, got {num_workers}")
        self.ledger = BudgetLedger(max_resident_edges)
        self.metrics = MetricsRegistry()
        self.num_workers = num_workers
        self._graph_loader = graph_loader or resolve_graph_ref
        self.artifact_store = artifact_store
        self._sessions: Dict[str, StreamSession] = {}
        self._ids = itertools.count()
        self._runnable: "asyncio.Queue[StreamSession]" = asyncio.Queue()
        self._workers: List["asyncio.Task[None]"] = []
        self._started = False
        self._closed = False
        ledger = self.ledger  # gauges close over parts, never self: see register_gauge
        self.metrics.register_gauge("open_sessions", self._sessions.__len__)
        self.metrics.register_gauge("resident_edges", lambda: ledger.in_use)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def __aenter__(self) -> "SessionManager":
        self.start()
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.close()

    def start(self) -> None:
        """Spawn the drain workers (idempotent)."""
        if self._started:
            return
        self._started = True
        loop = asyncio.get_running_loop()
        self._workers = [
            loop.create_task(self._worker(), name=f"session-drain-{i}")
            for i in range(self.num_workers)
        ]

    async def close(self) -> None:
        """Flush and close every session, then stop the workers."""
        if self._closed:
            return
        for session in list(self._sessions.values()):
            try:
                await self.close_session(session)
            except SessionError:
                pass  # already failed/closed; its charge is released
        self._closed = True
        for task in self._workers:
            task.cancel()
        await asyncio.gather(*self._workers, return_exceptions=True)
        self._workers = []

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------

    async def open(
        self,
        config: SessionConfig,
        graph: Optional[Graph] = None,
        graph_ref: Optional[str] = None,
    ) -> StreamSession:
        """Open a streaming session on a graph (inline or by ref).

        Exactly one of ``graph`` / ``graph_ref`` must be given; an inline
        graph is owned by the session from here on (the maintainer's
        contract).  The session's resident-edge charge is acquired before
        the seed reduction runs and released if that build fails, so a
        failed open can never leak budget.
        """
        if self._closed:
            raise SessionError("session manager is closed")
        if not self._started:
            raise SessionError("session manager is not started (use `async with`)")
        if (graph is None) == (graph_ref is None):
            raise SessionError("exactly one of graph / graph_ref must be given")
        config.validate()
        if graph is None:
            assert graph_ref is not None
            try:
                graph = await asyncio.to_thread(
                    self._graph_loader, graph_ref, config.seed
                )
            except Exception as error:
                raise SessionError(
                    f"could not resolve graph ref {graph_ref!r}: {error}"
                ) from error
        charge = graph.num_edges
        if charge > self.ledger.capacity:
            raise SessionError(
                f"graph has {charge} edges, over the {self.ledger.capacity}-edge "
                "session budget"
            )
        if not self.ledger.try_acquire(charge):
            raise SessionError(
                f"cannot fund {charge} resident edges "
                f"({self.ledger.in_use}/{self.ledger.capacity} in use)"
            )
        try:
            shedder = await asyncio.to_thread(self._build_shedder, graph, config)
        except BaseException:
            self.ledger.release(charge)  # release-on-failure contract
            raise
        session_id = f"s{next(self._ids)}"
        session = StreamSession(
            session_id=session_id,
            shedder=shedder,
            config=config,
            ledger=self.ledger,
            charge=charge,
        )
        session._on_enqueue = self._schedule
        self._sessions[session_id] = session
        self.metrics.counter("sessions_opened").inc()
        return session

    async def close_session(
        self, session: StreamSession, force: bool = False
    ) -> Dict[str, Any]:
        """Close a session and return its final telemetry.

        A graceful close drains the inbox first; ``force=True`` abandons
        queued ops (they are counted as rejected — never silently lost).
        Either way the session's whole ledger charge is released, even
        when it already died mid-churn.

        With an :attr:`artifact_store` configured, a graceful close of a
        healthy session also exports the final detached reduction into
        the store (payload round-trip, so nothing aliases the dying
        session); the returned telemetry gains an ``artifact`` entry with
        the store key token.  Forced and failed closes export nothing —
        their final graph does not reflect every accepted op.
        """
        self._sessions.pop(session.session_id, None)
        exported_key = None
        if session.failed is None and not session.closed:
            if force:
                abandoned = len(session._drain_batch())
                while not session._inbox.empty():
                    abandoned += len(session._drain_batch())
                if abandoned:
                    session.metrics.counter("ops_rejected").inc(abandoned)
            else:
                await session.flush()
                if self.artifact_store is not None:
                    exported_key = await asyncio.to_thread(
                        session.export_artifact, self.artifact_store
                    )
                    self.metrics.counter("artifacts_exported").inc()
        session._release_all()
        self.metrics.counter("sessions_closed").inc()
        telemetry = session.telemetry()
        if exported_key is not None:
            telemetry["artifact"] = {
                "token": exported_key.token,
                "method": exported_key.method,
                "variant": exported_key.variant,
            }
        return telemetry

    def get(self, session_id: str) -> StreamSession:
        """Look up an open session by id."""
        try:
            return self._sessions[session_id]
        except KeyError:
            raise SessionError(f"no open session {session_id!r}") from None

    def telemetry(self) -> Dict[str, Any]:
        """Manager-level snapshot plus every open session's telemetry."""
        snapshot = self.metrics.snapshot()
        snapshot["budget"] = {
            "capacity_edges": self.ledger.capacity,
            "in_use_edges": self.ledger.in_use,
            "waits": self.ledger.waits,
        }
        snapshot["sessions"] = {
            session_id: session.telemetry()
            for session_id, session in sorted(self._sessions.items())
        }
        return snapshot

    # ------------------------------------------------------------------
    # Drain loop
    # ------------------------------------------------------------------

    def _schedule(self, session: StreamSession) -> None:
        """Enqueue a session for draining (at most once at a time)."""
        if not session._queued and not session.closed:
            session._queued = True
            self._runnable.put_nowait(session)

    async def _worker(self) -> None:
        while True:
            session = await self._runnable.get()
            session._queued = False
            if session.closed:
                continue
            batch = session._drain_batch()
            if batch:
                session._applying = True
                try:
                    session._apply_batch(batch)
                finally:
                    session._applying = False
            if session.closed:
                continue  # the batch failed the session; charge released
            # Draining is what relieves backpressure: step the state
            # machine at the new depth so hysteresis exits happen here,
            # not lazily at the client's next submit.
            session._advance_state(session._inbox.qsize())
            if not session._inbox.empty():
                self._schedule(session)  # tail of the queue: round-robin
            else:
                session._drained.set()
            # Yield so sibling workers and submitters interleave even
            # when batches complete without awaiting.
            await asyncio.sleep(0)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    @staticmethod
    def _build_shedder(graph: Graph, config: SessionConfig) -> IncrementalShedder:
        """Seed the maintainer per the session config (runs off-loop)."""
        shedder = make_shedder(config.method, seed=config.seed)
        monitor = DriftMonitor(
            config.p,
            drift_ratio=config.drift_ratio,
            hysteresis=config.drift_hysteresis,
            cooldown_ops=config.drift_cooldown_ops,
        )
        return IncrementalShedder(
            graph,
            config.p,
            shedder,
            repair=config.repair,
            drift=monitor,
        )
