"""Request/response types and the shedder factory for the service.

A :class:`ReductionRequest` names the input graph (inline object or a
``graph_ref`` string), the method/ratio/seed of the reduction, and the
per-request budgets admission control enforces: a wall-clock deadline, a
resident-edge cap, and a scheduling priority.  Submitting one yields a
:class:`JobHandle` — a small future that resolves to a
:class:`ServiceResult` wrapping the underlying
:class:`~repro.core.base.ReductionResult` plus serving metadata (cache
hit tier, degradation trail, queue/execute timings).

:func:`make_shedder` is the single string-to-shedder factory; the CLI
and the service's worker processes both route through it, so a method
key means the same thing everywhere.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, List, Optional

from repro.baselines.uds import UDSSummarizer
from repro.core.base import EdgeShedder, ReductionResult
from repro.core.bm2 import BM2Shedder
from repro.core.crr import CRRShedder
from repro.core.random_shed import DegreeProportionalShedder, RandomShedder
from repro.errors import ServiceError
from repro.graph.graph import Graph
from repro.uncertain.shedders import WeightedBM2Shedder, WeightedCRRShedder

__all__ = [
    "KNOWN_METHODS",
    "JobStatus",
    "JobHandle",
    "ReductionRequest",
    "ServiceResult",
    "make_shedder",
]

#: Method keys accepted by :func:`make_shedder` (lower-case).
KNOWN_METHODS = ("crr", "bm2", "bm2-sparse", "uds", "random", "degree-proportional")


def make_shedder(
    method: str,
    seed: Optional[int] = 0,
    engine: str = "array",
    num_sources: Optional[int] = None,
    sparsify: Optional[str] = None,
    sparsify_beta: Optional[int] = None,
    weighted: bool = False,
) -> EdgeShedder:
    """Build the shedder for a method key.

    ``num_sources`` switches CRR/UDS to sampled betweenness.  ``sparsify`` /
    ``sparsify_beta`` configure BM2's EDCS candidate pruning (``bm2``
    defaults to ``"off"``, ``bm2-sparse`` to ``"edcs"``; setting them on any
    other method is an error).  ``weighted`` swaps CRR/BM2 for their
    probability-aware :mod:`repro.uncertain` variants (other methods have
    no weighted form).  ``engine`` must be ``"array"``, the one
    implementation every method has; it is accepted so existing callers
    keep working.  Raises :class:`ServiceError` for unknown keys.
    """
    if engine != "array":
        raise ServiceError(f"engine must be 'array', got {engine!r}")
    method = method.lower()
    if method not in ("bm2", "bm2-sparse") and (
        sparsify is not None or sparsify_beta is not None
    ):
        raise ServiceError(f"sparsify options require bm2/bm2-sparse, got {method!r}")
    if weighted and method in ("uds", "random", "degree-proportional"):
        raise ServiceError(f"method {method!r} has no weighted variant")
    crr_class = WeightedCRRShedder if weighted else CRRShedder
    bm2_class = WeightedBM2Shedder if weighted else BM2Shedder
    if method == "crr":
        return crr_class(seed=seed, num_betweenness_sources=num_sources)
    if method == "bm2":
        return bm2_class(
            seed=seed,
            sparsify=sparsify if sparsify is not None else "off",
            sparsify_beta=sparsify_beta,
        )
    if method == "bm2-sparse":
        # The degradation ladder's middle rung: EDCS-pruned Phase 2.
        return bm2_class(
            seed=seed,
            sparsify=sparsify if sparsify is not None else "edcs",
            sparsify_beta=sparsify_beta,
        )
    if method == "uds":
        return UDSSummarizer(seed=seed, num_betweenness_sources=num_sources)
    if method == "random":
        return RandomShedder(seed=seed)
    if method == "degree-proportional":
        return DegreeProportionalShedder(seed=seed)
    raise ServiceError(
        f"unknown method {method!r} (expected one of {', '.join(KNOWN_METHODS)})"
    )


class JobStatus(str, Enum):
    """Lifecycle of one service job."""

    PENDING = "pending"
    QUEUED = "queued"
    RUNNING = "running"
    COMPLETED = "completed"
    REJECTED = "rejected"
    FAILED = "failed"
    CANCELLED = "cancelled"

    def is_terminal(self) -> bool:
        return self in (
            JobStatus.COMPLETED,
            JobStatus.REJECTED,
            JobStatus.FAILED,
            JobStatus.CANCELLED,
        )


@dataclass
class ReductionRequest:
    """One shedding request with its per-request budgets.

    Exactly one of ``graph`` (an in-memory :class:`Graph`) or
    ``graph_ref`` must be set.  A ``graph_ref`` is either
    ``"dataset:<name>[:<scale>]"`` (registry surrogate) or
    ``"file:<path>"`` (SNAP-style edge list).

    Budgets:
        deadline_seconds: total wall-clock budget (queue + execute);
            under pressure the method degrades down the ladder rather
            than missing the deadline outright.
        max_resident_edges: per-request cap on how many edges the job may
            hold resident; larger inputs run the low-footprint path.
        priority: higher runs first; FIFO within a priority level.
    """

    p: float
    method: str = "bm2"
    graph: Optional[Graph] = None
    graph_ref: Optional[str] = None
    seed: int = 0
    num_sources: Optional[int] = None
    weighted: bool = False
    priority: int = 0
    deadline_seconds: Optional[float] = None
    max_resident_edges: Optional[int] = None
    label: str = ""

    def validate(self) -> None:
        """Raise :class:`ServiceError` for an unusable request."""
        if (self.graph is None) == (self.graph_ref is None):
            raise ServiceError("exactly one of graph / graph_ref must be set")
        if not 0.0 < float(self.p) < 1.0:
            raise ServiceError(f"p must be in (0, 1), got {self.p!r}")
        if self.method.lower() not in KNOWN_METHODS:
            raise ServiceError(f"unknown method {self.method!r}")
        if self.weighted:
            if self.method.lower() not in ("crr", "bm2", "bm2-sparse"):
                raise ServiceError(
                    f"method {self.method!r} has no weighted variant"
                )
        if self.deadline_seconds is not None and self.deadline_seconds < 0:
            raise ServiceError(f"deadline_seconds must be >= 0, got {self.deadline_seconds}")
        if self.max_resident_edges is not None and self.max_resident_edges <= 0:
            raise ServiceError(
                f"max_resident_edges must be positive, got {self.max_resident_edges}"
            )

    def describe(self) -> str:
        where = self.graph_ref or "<inline graph>"
        tag = f" [{self.label}]" if self.label else ""
        flavour = " weighted" if self.weighted else ""
        return f"{self.method}{flavour} p={self.p:g} seed={self.seed} on {where}{tag}"


@dataclass
class ServiceResult:
    """Terminal outcome of one job, with serving metadata.

    ``reduction`` is the plain algorithm-level result (``None`` for
    rejected/failed/cancelled jobs); ``degradation`` records each ladder
    step taken (e.g. ``"crr->bm2: deadline"``), which is *also* mirrored
    into ``reduction.stats["degradation"]`` so the artifact itself
    carries the provenance.
    """

    request: ReductionRequest
    status: JobStatus
    reduction: Optional[ReductionResult] = None
    method_used: str = ""
    cache_hit: Optional[str] = None
    degraded: bool = False
    degradation: List[str] = field(default_factory=list)
    queue_seconds: float = 0.0
    execute_seconds: float = 0.0
    total_seconds: float = 0.0
    error: Optional[str] = None
    metadata: Dict[str, Any] = field(default_factory=dict)

    def summary(self) -> str:
        """One human-readable line for CLI output."""
        head = f"[{self.status.value}] {self.request.describe()}"
        if self.status is not JobStatus.COMPLETED or self.reduction is None:
            return f"{head}: {self.error or 'no result'}"
        parts = [self.reduction.summary()]
        if self.cache_hit:
            parts.append(f"cache={self.cache_hit}")
        if self.degraded:
            parts.append(f"degraded[{'; '.join(self.degradation)}]")
        return f"{head}: " + " ".join(parts)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable rendering (used by the CLI's ``--json``)."""
        payload: Dict[str, Any] = {
            "status": self.status.value,
            "request": {
                "method": self.request.method,
                "p": self.request.p,
                "seed": self.request.seed,
                "weighted": self.request.weighted,
                "graph_ref": self.request.graph_ref,
                "priority": self.request.priority,
                "deadline_seconds": self.request.deadline_seconds,
                "label": self.request.label,
            },
            "method_used": self.method_used,
            "cache_hit": self.cache_hit,
            "degraded": self.degraded,
            "degradation": list(self.degradation),
            "queue_seconds": self.queue_seconds,
            "execute_seconds": self.execute_seconds,
            "total_seconds": self.total_seconds,
            "error": self.error,
            "metadata": dict(self.metadata),
        }
        if self.reduction is not None:
            payload["reduction"] = {
                "method": self.reduction.method,
                "p": self.reduction.p,
                "original_edges": self.reduction.original.num_edges,
                "reduced_edges": self.reduction.reduced.num_edges,
                "achieved_ratio": self.reduction.achieved_ratio,
                "delta": self.reduction.delta,
                "average_delta": self.reduction.average_delta,
                "elapsed_seconds": self.reduction.elapsed_seconds,
            }
        return payload


class JobHandle:
    """Future-like handle for a submitted request.

    ``result()`` blocks until the job reaches a terminal state.
    ``cancel()`` withdraws a job that has not started running; the
    scheduler skips it and the handle resolves with
    :attr:`JobStatus.CANCELLED`.
    """

    def __init__(self, request: ReductionRequest) -> None:
        self.request = request
        self._done = threading.Event()
        self._lock = threading.Lock()
        self._result: Optional[ServiceResult] = None
        self._status = JobStatus.PENDING
        self._cancel_requested = False

    @property
    def status(self) -> JobStatus:
        return self._status

    def done(self) -> bool:
        return self._done.is_set()

    def result(self, timeout: Optional[float] = None) -> ServiceResult:
        """Wait for the terminal :class:`ServiceResult`."""
        if not self._done.wait(timeout):
            raise ServiceError(
                f"job did not complete within {timeout}s ({self.request.describe()})"
            )
        assert self._result is not None
        return self._result

    def cancel(self) -> bool:
        """Request cancellation; returns ``False`` if already terminal."""
        with self._lock:
            if self._done.is_set():
                return False
            self._cancel_requested = True
            return True

    @property
    def cancel_requested(self) -> bool:
        return self._cancel_requested

    # -- service-side hooks -------------------------------------------------

    def _mark(self, status: JobStatus) -> None:
        with self._lock:
            if not self._done.is_set():
                self._status = status

    def _complete(self, result: ServiceResult) -> None:
        with self._lock:
            if self._done.is_set():
                return
            self._result = result
            self._status = result.status
            self._done.set()
