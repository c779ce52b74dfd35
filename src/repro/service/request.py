"""Request/response types and the shedder factory for the service.

A :class:`ReductionRequest` names the input graph (inline object or a
``graph_ref`` string), the method/ratio/seed of the reduction, and the
per-request budgets admission control enforces: a wall-clock deadline, a
resident-edge cap, and a scheduling priority.  Submitting one yields a
:class:`JobHandle` — a small future that resolves to a
:class:`ServiceResult` wrapping the underlying
:class:`~repro.core.base.ReductionResult` plus serving metadata (cache
hit tier, degradation trail, queue/execute timings).

The method table :data:`METHODS` says, once, what each method key means:
its engines, which options it takes, whether it shards, whether its
output is a subgraph of the input, its cost model and its rung on the
degradation ladder.  :func:`make_shedder` builds every shedder from it,
whole-graph or sharded; the CLI, the service, its worker processes,
admission control and the streaming sessions all read it, so a method
key means the same thing everywhere.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, List, Optional, Type

from repro.baselines.uds import UDSSummarizer
from repro.core.base import EdgeShedder, ReductionResult, is_finite_number, is_int
from repro.core.bm2 import BM2Shedder
from repro.core.crr import CRRShedder
from repro.core.random_shed import DegreeProportionalShedder, RandomShedder
from repro.errors import ServiceError
from repro.graph.graph import Graph
from repro.shard import ShardedShedder
from repro.uncertain.shedders import WeightedBM2Shedder, WeightedCRRShedder

__all__ = [
    "KNOWN_METHODS",
    "METHODS",
    "JobStatus",
    "JobHandle",
    "MethodSpec",
    "ReductionRequest",
    "ServiceResult",
    "cheapest_method",
    "degrade_method",
    "make_shedder",
]


@dataclass(frozen=True)
class MethodSpec:
    """One row of :data:`METHODS`: what a method key means."""

    engine: Type[EdgeShedder]  #: the shedder class the key builds
    coefficient: float  #: CostModel's starting seconds per work unit
    cheaper: Optional[str]  #: next-cheaper ladder rung; None at the terminal one
    weighted: Optional[Type[EdgeShedder]] = None  #: probability-aware engine, if any
    shard_engine: Optional[str] = None  #: ShardedShedder's engine; None: no sharding
    sparsify: Optional[str] = None  #: default sparsify; None: no sparsify options
    quadratic: bool = False  #: the work measure is n·m rather than m
    reads_sources: bool = False  #: the engine takes num_sources
    subgraph: bool = True  #: every kept edge is an edge of the input


#: The method table, one row per lower-case key.  The ladder orders keys
#: by reduction cost: CRR's betweenness ranking dominates (so its work is
#: n·m), BM2 is a few linear passes, random shedding is a single draw.
#: Coefficients start pessimistic and calibrate from observed runs;
#: bm2-sparse's Phase 2 repairs a bounded-degree candidate subgraph, so
#: its constant sits below plain bm2's.  UDS expands superedges into
#: edges outside E, so its output is not a subgraph.
METHODS: Dict[str, MethodSpec] = {
    # key: MethodSpec(engine, coefficient, cheaper, weighted, shard_engine, sparsify, ...)
    "crr": MethodSpec(
        CRRShedder, 2e-6, "bm2", WeightedCRRShedder, "crr", quadratic=True, reads_sources=True
    ),
    "bm2": MethodSpec(BM2Shedder, 4e-6, "bm2-sparse", WeightedBM2Shedder, "bm2", "off"),
    "bm2-sparse": MethodSpec(BM2Shedder, 2.5e-6, "random", WeightedBM2Shedder, "bm2", "edcs"),
    "uds": MethodSpec(
        UDSSummarizer, 3e-6, "bm2", quadratic=True, reads_sources=True, subgraph=False
    ),
    "random": MethodSpec(RandomShedder, 2e-7, None),
    "degree-proportional": MethodSpec(DegreeProportionalShedder, 4e-7, "random"),
}

#: Method keys accepted by :func:`make_shedder` (lower-case).
KNOWN_METHODS = tuple(METHODS)


def degrade_method(method: str) -> Optional[str]:
    """The next-cheaper method below ``method``, or ``None`` at the bottom
    (``KeyError`` for a key outside :data:`METHODS`)."""
    return METHODS[method.lower()].cheaper


def cheapest_method(method: str) -> str:
    """The ladder's terminal rung below ``method`` (itself at the bottom)."""
    while (cheaper := degrade_method(method)) is not None:
        method = cheaper
    return method


def make_shedder(
    method: str,
    seed: Optional[int] = 0,
    engine: str = "array",
    num_sources: Optional[int] = None,
    sparsify: Optional[str] = None,
    sparsify_beta: Optional[int] = None,
    weighted: bool = False,
    num_shards: Optional[int] = None,
    num_workers: int = 1,
) -> EdgeShedder:
    """Build the shedder for a method key (any case) from its table row.

    ``num_sources`` switches the engines that read it (CRR/UDS) to sampled
    betweenness.  ``sparsify`` / ``sparsify_beta`` configure BM2's EDCS
    candidate pruning (default: the row's ``sparsify``).  ``weighted``
    builds the row's probability-aware :mod:`repro.uncertain` engine;
    ``num_shards`` its :class:`~repro.shard.ShardedShedder` form, run by
    ``num_workers`` processes.  ``engine`` must be ``"array"``, the one
    implementation every method has; it is accepted so existing callers
    keep working.  Raises :class:`ServiceError` for an unknown key or an
    option its row does not take.
    """
    if engine != "array":
        raise ServiceError(f"engine must be 'array', got {engine!r}")
    method = method.lower()
    spec = METHODS.get(method)
    if spec is None:
        raise ServiceError(
            f"unknown method {method!r} (expected one of {', '.join(METHODS)})"
        )
    options: Dict[str, Any] = {}
    if spec.sparsify is not None:
        options["sparsify"] = spec.sparsify if sparsify is None else sparsify
        options["sparsify_beta"] = sparsify_beta
    elif sparsify is not None or sparsify_beta is not None:
        takers = "/".join(key for key, row in METHODS.items() if row.sparsify)
        raise ServiceError(f"sparsify options require {takers}, got {method!r}")
    if weighted and spec.weighted is None:
        raise ServiceError(f"method {method!r} has no weighted variant")
    if spec.reads_sources:
        options["num_betweenness_sources"] = num_sources
    if num_shards is None:
        return (spec.weighted if weighted else spec.engine)(seed=seed, **options)
    if spec.shard_engine is None:
        raise ServiceError(f"method {method!r} has no sharded runner")
    if weighted:
        raise ServiceError("the sharded runner is weight-blind")
    return ShardedShedder(spec.shard_engine, num_shards, num_workers, seed=seed, **options)


class JobStatus(str, Enum):
    """Lifecycle of one service job."""

    PENDING = "pending"
    QUEUED = "queued"
    RUNNING = "running"
    COMPLETED = "completed"
    REJECTED = "rejected"
    FAILED = "failed"
    CANCELLED = "cancelled"


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
        """Raise :class:`ServiceError`, naming the field, for an unusable request.

        Every field the service reads is checked for type and range, so a
        malformed request is rejected at submit — before it is queued,
        charged to the budget ledger or computed.
        """
        if (self.graph is None) == (self.graph_ref is None):
            raise ServiceError("exactly one of graph / graph_ref must be set")
        if self.graph is not None and not isinstance(self.graph, Graph):
            raise ServiceError(f"graph must be a Graph, got {type(self.graph).__name__}")
        if self.graph_ref is not None and not isinstance(self.graph_ref, str):
            raise ServiceError(f"graph_ref must be a str, got {self.graph_ref!r}")
        if not (is_finite_number(self.p) and 0.0 < self.p < 1.0):
            raise ServiceError(f"p must be a number in (0, 1), got {self.p!r}")
        if not isinstance(self.method, str) or self.method.lower() not in METHODS:
            raise ServiceError(f"unknown method {self.method!r}")
        if self.seed is not None and not is_int(self.seed):
            raise ServiceError(f"seed must be an int or None, got {self.seed!r}")
        if not is_int(self.priority):
            raise ServiceError(f"priority must be an int, got {self.priority!r}")
        if self.num_sources is not None and not (
            is_int(self.num_sources) and self.num_sources >= 1
        ):
            raise ServiceError(
                f"num_sources must be None or an int >= 1, got {self.num_sources!r}"
            )
        if not isinstance(self.weighted, bool):
            raise ServiceError(f"weighted must be a bool, got {self.weighted!r}")
        if self.weighted and METHODS[self.method.lower()].weighted is None:
            raise ServiceError(f"method {self.method!r} has no weighted variant")
        if self.deadline_seconds is not None and not (
            is_finite_number(self.deadline_seconds) and self.deadline_seconds >= 0
        ):
            raise ServiceError(
                "deadline_seconds must be None or a finite number >= 0, "
                f"got {self.deadline_seconds!r}"
            )
        if self.max_resident_edges is not None and not (
            is_int(self.max_resident_edges) and self.max_resident_edges >= 1
        ):
            raise ServiceError(
                "max_resident_edges must be None or an int >= 1, "
                f"got {self.max_resident_edges!r}"
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
