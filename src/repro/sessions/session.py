"""One streaming session: an op inbox feeding an incremental maintainer.

A :class:`StreamSession` is the unit the session layer multiplexes: it
owns one :class:`~repro.dynamic.IncrementalShedder` (and therefore one
``(G, G', Δ)`` triple plus a :class:`~repro.dynamic.DriftMonitor`), a
bounded :class:`asyncio.Queue` inbox of churn ops, and the per-session
accounting — backpressure state machine, resident-edge ledger charge,
and a private :class:`~repro.service.MetricsRegistry`.

**Backpressure is explicit, never a silent drop.**  The inbox depth
drives a three-state machine over the paper's own vocabulary:

* ``apply`` — every submitted op is enqueued;
* ``shed`` (depth ≥ ``shed_watermark``) — deletes still enqueue (they
  keep ``G`` truthful), inserts are *shed*: counted, reported in the
  :class:`SubmitReceipt`, and simply never become part of ``G``.  This
  is selective edge shedding applied to the ingest path itself — under
  pressure the session drops the ops that only ever add optional edges.
  A later delete of a shed edge is absorbed by the drain loop's
  ``skip_invalid`` replay and counted as a skipped (stale) op;
* ``reject`` (inbox full) — everything is refused and the client must
  back off and retry.

Both degraded states exit with hysteresis: only once the drain loop has
pulled the depth back to ``apply_watermark`` does the session return to
``apply``, so a client hovering at the boundary cannot flap the state
per op.

**Determinism contract.**  Every op the session *applies* goes through
:meth:`IncrementalShedder.apply_ops` in submission order, so a paced
client (one that never trips backpressure — e.g. it awaits
:meth:`StreamSession.flush` between submissions) gets a ``G'``
bit-identical to driving the maintainer directly with the same op
sequence.  The property suite pins exactly that.

Sessions are created by :class:`~repro.sessions.SessionManager` — the
manager owns the worker pool, the shared ledger and the fairness policy;
everything here is per-session state plus the inline batch-application
logic its workers call.
"""

from __future__ import annotations

import asyncio
import time
import weakref
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.core.base import ReductionResult, is_finite_number, is_int
from repro.core.progressive import rescore_result
from repro.dynamic.drift import DriftDecision, DriftMonitor
from repro.dynamic.maintainer import ChurnOp, IncrementalShedder
from repro.errors import SessionError
from repro.graph.io import graph_from_payload, graph_to_payload
from repro.service.admission import BudgetLedger
from repro.service.request import METHODS
from repro.service.store import ArtifactKey, ArtifactStore
from repro.service.metrics import (
    MetricsRegistry,
    OP_LATENCY_BOUNDS,
    latency_us_summary,
)

__all__ = [
    "APPLY",
    "REJECT",
    "SHED",
    "SessionConfig",
    "StreamSession",
    "SubmitReceipt",
]

#: Backpressure states (plain strings so telemetry dicts stay JSON-ready).
APPLY = "apply"
SHED = "shed"
REJECT = "reject"

#: The churn op kinds :meth:`StreamSession.submit` accepts.
_OP_KINDS = frozenset(("insert", "delete"))


#: :class:`SessionConfig` fields that must be finite reals, and those
#: that must be ints.
_REAL_FIELDS = ("p", "drift_ratio", "drift_hysteresis", "shed_watermark", "apply_watermark")
_INT_FIELDS = (
    "drift_cooldown_ops",
    "reservoir_size",
    "inbox_capacity",
    "batch_ops",
    "ledger_chunk",
)


@dataclass(frozen=True)
class SessionConfig:
    """Per-session knobs: the maintainer's, the inbox's, the ledger's.

    Attributes:
        p: edge preservation ratio for the maintained reduction.
        method: offline method seeding the reduction (and used by
            drift-triggered rebuilds) — any :data:`~repro.service.METHODS`
            key whose output is a subgraph of ``G``.
        engine: must be ``"array"``, the one engine every method has
            (accepted so existing configurations keep working).
        seed: seeds the offline method (the seed reduction and every
            rebuild); seeded sessions replay identically.
        repair: run the maintainer's localized repair pass after every op
            (default), or switch it off for pure admit/evict mode (the
            high-throughput configuration).
        drift_ratio / drift_hysteresis / drift_cooldown_ops: the
            :class:`~repro.dynamic.DriftMonitor` policy.
        reservoir_size: has no effect; must be ``>= 0`` (accepted so
            existing configurations keep working).
        inbox_capacity: bound of the op inbox; its fill level drives the
            backpressure states.
        batch_ops: max ops one drain turn applies — the fairness quantum:
            a session never holds a worker longer than one batch.
        shed_watermark: inbox fill fraction at which inserts shed.
        apply_watermark: fill fraction at which a degraded state returns
            to ``apply`` (hysteresis exit; must sit below
            ``shed_watermark``).
        ledger_chunk: granularity (edges) of ledger resizes under churn;
            shrink releases keep one chunk of headroom so a hovering
            session does not thrash the ledger.
        label: free-form tag echoed through telemetry.
    """

    p: float
    method: str = "bm2"
    engine: str = "array"
    seed: Optional[int] = 0
    repair: bool = True
    drift_ratio: float = 1.0
    drift_hysteresis: float = 0.9
    drift_cooldown_ops: int = 0
    reservoir_size: int = 256
    inbox_capacity: int = 4096
    batch_ops: int = 512
    shed_watermark: float = 0.75
    apply_watermark: float = 0.5
    ledger_chunk: int = 1024
    label: str = ""

    def validate(self) -> None:
        """Raise :class:`~repro.errors.SessionError` for unusable knobs.

        Every field's type is checked first (bools are not numbers here):
        the counts are ints, ``seed`` an int or ``None``, the ratios and
        watermarks finite reals, ``repair`` a bool and the names strs.
        ``p`` and the drift knobs then go through
        :class:`~repro.dynamic.DriftMonitor`'s own range checks, and
        ``method`` must be a :data:`~repro.service.METHODS` key whose row
        keeps a subgraph of ``G``, so a bad config fails here, before any
        graph is loaded or budgeted.
        """
        for name in _REAL_FIELDS:
            value = getattr(self, name)
            if not is_finite_number(value):
                raise SessionError(f"{name} must be a finite real number, got {value!r}")
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if not is_int(value):
                raise SessionError(f"{name} must be an int, got {value!r}")
        if self.seed is not None and not is_int(self.seed):
            raise SessionError(f"seed must be an int or None, got {self.seed!r}")
        if not isinstance(self.repair, bool):
            raise SessionError(f"repair must be a bool, got {self.repair!r}")
        for name in ("method", "engine", "label"):
            value = getattr(self, name)
            if not isinstance(value, str):
                raise SessionError(f"{name} must be a str, got {value!r}")
        try:
            DriftMonitor(
                self.p,
                drift_ratio=self.drift_ratio,
                hysteresis=self.drift_hysteresis,
                cooldown_ops=self.drift_cooldown_ops,
            )
        except (TypeError, ValueError) as error:
            raise SessionError(f"unusable p or drift policy: {error}") from None
        spec = METHODS.get(self.method.lower())
        if spec is None:
            raise SessionError(
                f"unknown method {self.method!r} "
                f"(expected one of {', '.join(METHODS)})"
            )
        if not spec.subgraph:
            raise SessionError(f"method {self.method!r} does not shed to a subgraph of G")
        if self.engine != "array":
            raise SessionError(f"engine must be 'array', got {self.engine!r}")
        if self.inbox_capacity < 1:
            raise SessionError(
                f"inbox_capacity must be >= 1, got {self.inbox_capacity}"
            )
        if self.batch_ops < 1:
            raise SessionError(f"batch_ops must be >= 1, got {self.batch_ops}")
        if not 0.0 < self.shed_watermark <= 1.0:
            raise SessionError(
                f"shed_watermark must be in (0, 1], got {self.shed_watermark}"
            )
        if not 0.0 <= self.apply_watermark < self.shed_watermark:
            raise SessionError(
                "apply_watermark must sit below shed_watermark, got "
                f"{self.apply_watermark} >= {self.shed_watermark}"
            )
        if self.ledger_chunk < 1:
            raise SessionError(f"ledger_chunk must be >= 1, got {self.ledger_chunk}")
        if self.reservoir_size < 0:
            raise SessionError(
                f"reservoir_size must be >= 0, got {self.reservoir_size}"
            )


@dataclass
class SubmitReceipt:
    """What one :meth:`StreamSession.submit` call did with each op.

    ``accepted + shed + rejected == len(ops)`` always; a shed or rejected
    op was **not** enqueued and will never reach the graph unless the
    client re-submits it.
    """

    accepted: int = 0
    shed: int = 0
    rejected: int = 0
    state: str = APPLY
    depth: int = 0

    @property
    def clean(self) -> bool:
        """Whether every op was accepted."""
        return self.shed == 0 and self.rejected == 0


class StreamSession:
    """Live churn shedding for one client graph; see the module docstring.

    Not constructed directly — use :meth:`SessionManager.open`.  All
    methods must be called from the manager's event loop (the whole
    session layer is single-loop asyncio; nothing here is thread-safe).
    """

    def __init__(
        self,
        session_id: str,
        shedder: IncrementalShedder,
        config: SessionConfig,
        ledger: BudgetLedger,
        charge: int,
    ) -> None:
        self.session_id = session_id
        self.config = config
        self._shedder = shedder
        self._ledger = ledger
        self._charge = charge
        self.metrics = MetricsRegistry()
        self._inbox: "asyncio.Queue[ChurnOp]" = asyncio.Queue(
            maxsize=config.inbox_capacity
        )
        self._state = APPLY
        self._transitions = 0
        self._shed_mark = max(1, int(config.shed_watermark * config.inbox_capacity))
        self._apply_mark = int(config.apply_watermark * config.inbox_capacity)
        self._closed = False
        self._failure: Optional[str] = None
        self._applying = False
        self._queued = False  # in the manager's runnable queue right now
        self._drained = asyncio.Event()
        self._drained.set()
        self._busy_seconds = 0.0
        self._opened_at = time.perf_counter()
        self._last_decision: Optional[DriftDecision] = None
        self._op_hist = self.metrics.histogram("op_seconds", OP_LATENCY_BOUNDS)
        # Gauges close over parts or a proxy, never self: see register_gauge.
        session = weakref.proxy(self)
        self.metrics.register_gauge("inbox_depth", self._inbox.qsize)
        self.metrics.register_gauge("ledger_charge", lambda: session._charge)
        self.metrics.register_gauge("resident_edges", lambda: shedder.graph.num_edges)

    # ------------------------------------------------------------------
    # Client surface
    # ------------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def failed(self) -> Optional[str]:
        """The error that killed the session, or ``None`` while healthy."""
        return self._failure

    @property
    def state(self) -> str:
        """Current backpressure state (``apply`` / ``shed`` / ``reject``)."""
        return self._state

    @property
    def shedder(self) -> IncrementalShedder:
        """The underlying maintainer (read-only views are safe to use)."""
        return self._shedder

    @property
    def charge(self) -> int:
        """Resident-edge budget currently held from the shared ledger."""
        return self._charge

    def submit(self, ops: List[ChurnOp]) -> SubmitReceipt:
        """Offer a batch of churn ops; backpressure is applied per op.

        Returns a :class:`SubmitReceipt` accounting for every op — the
        session never drops silently.  Raises
        :class:`~repro.errors.SessionError` on a closed or failed session,
        and for a batch holding a malformed op: anything but an
        ``("insert" | "delete", u, v)`` triple with hashable ``u`` and
        ``v``.  A malformed batch is refused whole — nothing is enqueued
        and the session stays healthy.  Well-formed ops are enqueued as
        tuples; self-loops and deletes of absent edges are well-formed,
        and the drain counts them as skipped.
        """
        self._ensure_healthy()
        triples: List[ChurnOp] = []
        for index, op in enumerate(ops):
            try:
                kind, u, v = op
                if kind in _OP_KINDS:
                    hash(u)
                    hash(v)
                    triples.append((kind, u, v))
                    continue
            except (TypeError, ValueError):
                pass
            raise SessionError(
                f"session {self.session_id}: op #{index} {op!r} is not an "
                "('insert' | 'delete', u, v) churn op with hashable u, v"
            )
        receipt = SubmitReceipt(state=self._state)
        inbox = self._inbox
        put = inbox.put_nowait
        for op in triples:
            state = self._advance_state(inbox.qsize())
            if state is REJECT:
                receipt.rejected += 1
            elif state is SHED and op[0] == "insert":
                receipt.shed += 1
            else:
                put(op)
                receipt.accepted += 1
        if receipt.accepted:
            self._drained.clear()
            self._on_enqueue(self)
        if receipt.shed:
            self.metrics.counter("inserts_shed_backpressure").inc(receipt.shed)
        if receipt.rejected:
            self.metrics.counter("ops_rejected").inc(receipt.rejected)
        self.metrics.counter("ops_submitted").inc(len(ops))
        receipt.state = self._state
        receipt.depth = inbox.qsize()
        return receipt

    async def flush(self, timeout: Optional[float] = None) -> None:
        """Wait until every accepted op has been applied to the graphs."""
        self._ensure_healthy()
        try:
            if timeout is None:
                await self._drained.wait()
            else:
                await asyncio.wait_for(self._drained.wait(), timeout)
        except asyncio.TimeoutError:
            raise SessionError(
                f"session {self.session_id}: flush timed out after {timeout}s "
                f"({self._inbox.qsize()} ops still queued)"
            ) from None
        self._ensure_healthy()  # the drain may have failed the session

    def telemetry(self) -> Dict[str, Any]:
        """Live per-session observability dict (JSON-serialisable)."""
        shedder = self._shedder
        stats = shedder.stats
        counters = self.metrics.snapshot()["counters"]
        applied = stats["ops"]
        busy = self._busy_seconds
        drift: Dict[str, Any] = {"rebuilds": stats["rebuilds"]}
        decision = self._last_decision
        if decision is not None:
            drift.update(
                delta=decision.delta,
                envelope=decision.envelope,
                threshold=decision.threshold,
                drift=decision.drift,
                armed=decision.armed,
            )
        return {
            "session_id": self.session_id,
            "label": self.config.label,
            "closed": self._closed,
            "failed": self._failure,
            "ops": {
                "submitted": counters.get("ops_submitted", 0),
                "applied": applied,
                "skipped_stale": counters.get("ops_skipped_stale", 0),
                "shed_backpressure": counters.get("inserts_shed_backpressure", 0),
                "shed_budget": counters.get("inserts_shed_budget", 0),
                "rejected": counters.get("ops_rejected", 0),
                "inserts": stats["inserts"],
                "deletes": stats["deletes"],
                "admitted": stats["admitted"],
                "evicted": stats["evicted"],
            },
            "throughput_ops_per_s": (applied / busy) if busy > 0 else 0.0,
            "busy_seconds": busy,
            "latency_us": latency_us_summary(self._op_hist),
            "drift": drift,
            "backpressure": {
                "state": self._state,
                "transitions": self._transitions,
                "depth": self._inbox.qsize(),
                "capacity": self.config.inbox_capacity,
                "shed_mark": self._shed_mark,
                "apply_mark": self._apply_mark,
            },
            "ledger": {
                "charge": self._charge,
                "resident_edges": shedder.graph.num_edges,
            },
            "graph": {
                "nodes": shedder.graph.num_nodes,
                "edges": shedder.graph.num_edges,
                "reduced_edges": shedder.reduced.num_edges,
            },
        }

    def snapshot(self) -> Dict[str, Any]:
        """The current ``G'`` in the service wire shape, plus Δ context.

        ``graph`` is :func:`~repro.graph.io.graph_to_payload` output — the
        same deterministic shape the one-shot service speaks — so the
        snapshot can be shipped, diffed, or rebuilt with
        :func:`~repro.graph.io.graph_from_payload`.
        """
        shedder = self._shedder
        return {
            "session_id": self.session_id,
            "p": self.config.p,
            "method": self.config.method,
            "ops_applied": shedder.stats["ops"],
            "delta": shedder.delta,
            "graph": graph_to_payload(shedder.reduced),
        }

    def export_result(self) -> ReductionResult:
        """Package the live reduction as a detached :class:`ReductionResult`.

        Both graphs are rebuilt through the payload round-trip, so the
        result owns independent copies — handing it to the one-shot
        service's :class:`~repro.service.ArtifactStore` (or any other
        consumer) cannot alias the session's live, still-mutating graphs.
        """
        shedder = self._shedder
        original = graph_from_payload(graph_to_payload(shedder.graph))
        reduced = graph_from_payload(graph_to_payload(shedder.reduced))
        stats: Dict[str, Any] = dict(shedder.stats)
        stats["session_id"] = self.session_id
        stats["session_method"] = self.config.method
        return rescore_result(
            method=f"session-{self.config.method}",
            original=original,
            reduced=reduced,
            p=self.config.p,
            elapsed_seconds=self._busy_seconds,
            stats=stats,
            delta=shedder.delta,
        )

    def export_artifact(self, store: "ArtifactStore") -> "ArtifactKey":
        """Write the detached :meth:`export_result` into an artifact store.

        The key is content-addressed on the session's *final* original
        graph, but a streamed reduction depends on the whole op history,
        not just the final state — so the variant carries the session id
        and op count, keeping streamed artifacts from ever being served
        in place of (or poisoned by) one-shot reductions of the same
        graph.  Returns the key the artifact was stored under.
        """
        result = self.export_result()
        key = store.key_for(
            result.original,
            result.method,
            self.config.p,
            self.config.seed,
            variant=f"session={self.session_id},ops={result.stats['ops']}",
        )
        store.put(key, result)
        return key

    # ------------------------------------------------------------------
    # Manager-side hooks (single event loop; called by the worker pool)
    # ------------------------------------------------------------------

    #: Set by the manager at registration: called with the session when
    #: ops were enqueued so the drain loop can schedule it.
    _on_enqueue = staticmethod(lambda session: None)

    def _drain_batch(self) -> List[ChurnOp]:
        """Pop up to ``batch_ops`` ops from the inbox (the fairness quantum)."""
        inbox = self._inbox
        get = inbox.get_nowait
        batch: List[ChurnOp] = []
        for _ in range(min(self.config.batch_ops, inbox.qsize())):
            batch.append(get())
        return batch

    def _apply_batch(self, batch: List[ChurnOp]) -> None:
        """Apply one drained batch: fund growth, replay, settle the ledger.

        Runs synchronously on the event loop (bounded by ``batch_ops``).
        A failure marks the session failed and releases its whole ledger
        charge — the shared budget must never leak on a killed session.
        """
        config = self.config
        ledger = self._ledger
        shedder = self._shedder
        inserts = sum(1 for op in batch if op[0] == "insert")
        # Fund the worst-case growth before touching the graph.  Chunked
        # so a steadily growing session amortizes ledger round-trips;
        # when the chunk cannot be funded, fall back to the exact need
        # before shedding anything.
        projected = shedder.graph.num_edges + inserts
        if projected > self._charge:
            need = projected - self._charge
            chunk = config.ledger_chunk
            rounded = ((need + chunk - 1) // chunk) * chunk
            if ledger.try_acquire(rounded):
                self._charge += rounded
            elif ledger.try_acquire(need):
                self._charge += need
            else:
                # Budget exhausted: shed this batch's inserts (explicitly
                # counted), keep the deletes — shrinking is always free.
                self.metrics.counter("inserts_shed_budget").inc(inserts)
                batch = [op for op in batch if op[0] != "insert"]
        started = time.perf_counter()
        try:
            report = shedder.apply_ops(batch, skip_invalid=True)
        except Exception as error:  # noqa: BLE001 — worker must survive
            self._fail(f"{type(error).__name__}: {error}")
            return
        elapsed = time.perf_counter() - started
        self._busy_seconds += elapsed
        if report.applied:
            # One batch-mean sample per batch keeps the histogram cost off
            # the per-op path; the buckets still resolve µs-scale ops.
            self._op_hist.observe(elapsed / report.applied)
        if report.skipped:
            self.metrics.counter("ops_skipped_stale").inc(report.skipped)
        self.metrics.counter("batches_applied").inc()
        if report.decision is not None:
            self._last_decision = report.decision
        # Shrink hysteresis: release surplus only past one spare chunk,
        # and keep that chunk as headroom.
        resident = shedder.graph.num_edges
        chunk = config.ledger_chunk
        surplus = self._charge - resident
        if surplus >= 2 * chunk:
            give_back = ((surplus - chunk) // chunk) * chunk
            ledger.release(give_back)
            self._charge -= give_back

    def _advance_state(self, depth: int) -> str:
        """One backpressure state-machine step at inbox ``depth``."""
        state = self._state
        if state is APPLY:
            if depth >= self.config.inbox_capacity:
                state = REJECT
            elif depth >= self._shed_mark:
                state = SHED
        elif state is SHED:
            if depth >= self.config.inbox_capacity:
                state = REJECT
            elif depth <= self._apply_mark:
                state = APPLY
        else:  # REJECT exits only through the hysteresis mark
            if depth <= self._apply_mark:
                state = APPLY
        if state is not self._state:
            self._state = state
            self._transitions += 1
            self.metrics.counter(f"backpressure_enter_{state}").inc()
        return state

    def _fail(self, reason: str) -> None:
        """Kill the session: record the failure and free every resource."""
        self._failure = reason
        self.metrics.counter("failures").inc()
        self._release_all()

    def _release_all(self) -> None:
        """Idempotently close and hand the whole ledger charge back."""
        if self._closed:
            return
        self._closed = True
        if self._charge:
            self._ledger.release(self._charge)
            self._charge = 0
        # Unblock any flush() waiters; _ensure_healthy reports the state.
        self._drained.set()

    def _ensure_healthy(self) -> None:
        if self._failure is not None:
            raise SessionError(
                f"session {self.session_id} failed: {self._failure}"
            )
        if self._closed:
            raise SessionError(f"session {self.session_id} is closed")
