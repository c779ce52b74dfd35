"""Budgeted shedding service: admission control, scheduling, artifact cache.

:mod:`repro.service` wraps the shedding algorithms in an in-process
serving layer.  Clients submit :class:`ReductionRequest` objects to a
:class:`SheddingService` and get back :class:`JobHandle` futures; the
service resolves each one through a content-addressed
:class:`ArtifactStore` (memory LRU + optional on-disk persistence, so
warm restarts hit the cache), an :class:`AdmissionController` that
enforces global and per-request resident-edge budgets and degrades
methods down the CRR → BM2 → random ladder under deadline pressure, and
a :class:`Scheduler` with inline / thread / process execution modes.
Results are bit-identical to serial inline runs regardless of
concurrency, because every job routes its own seed into a fresh shedder.
"""

from repro.service.admission import (
    AdmissionController,
    AdmissionDecision,
    BudgetLedger,
    CostModel,
)
from repro.service.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    OP_LATENCY_BOUNDS,
    latency_us_summary,
)
from repro.service.request import (
    KNOWN_METHODS,
    METHODS,
    JobHandle,
    JobStatus,
    MethodSpec,
    ReductionRequest,
    ServiceResult,
    degrade_method,
    make_shedder,
)
from repro.service.scheduler import (
    SCHEDULER_MODES,
    JobTimeoutError,
    ProcessEngine,
    QueuedJob,
    Scheduler,
)
from repro.service.service import SheddingService, resolve_graph_ref
from repro.service.store import (
    ArtifactKey,
    ArtifactStore,
    graph_digest,
)

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "ArtifactKey",
    "ArtifactStore",
    "BudgetLedger",
    "CostModel",
    "Counter",
    "Histogram",
    "JobHandle",
    "JobStatus",
    "JobTimeoutError",
    "KNOWN_METHODS",
    "METHODS",
    "MethodSpec",
    "MetricsRegistry",
    "OP_LATENCY_BOUNDS",
    "ProcessEngine",
    "QueuedJob",
    "ReductionRequest",
    "SCHEDULER_MODES",
    "Scheduler",
    "ServiceResult",
    "SheddingService",
    "degrade_method",
    "graph_digest",
    "latency_us_summary",
    "make_shedder",
    "resolve_graph_ref",
]
