"""`SheddingService` — the budgeted front door for reduction requests.

Submission pipeline (all in-process):

1. **resolve** the request's graph (inline object, dataset ref, or edge-
   list file; refs are memoised per service);
2. **cache check** against the content-addressed
   :class:`~repro.service.store.ArtifactStore` — a hit resolves the
   handle immediately without touching the queue or the algorithms;
3. **admission** (:class:`~repro.service.admission.AdmissionController`)
   — reject on queue backpressure, degrade under budget/deadline
   pressure, admit otherwise;
4. **schedule**: the job enters the priority queue; a worker leases the
   graph's edge charge from the global
   :class:`~repro.service.admission.BudgetLedger` (blocking while the
   pool is saturated — that's the queueing behaviour), runs the
   reduction (in-thread or via the process pool), stores the artifact,
   feeds the cost model, and resolves the :class:`JobHandle`.

Determinism: a job's output is a pure function of its request — fresh
shedder per job, seed routed from the request — so any submission order
and any worker interleaving produce reductions bit-identical to serial
inline calls (property-tested).
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Optional, Union

from repro.core.base import ReductionResult
from repro.core.progressive import degrade_method, rescore_result
from repro.errors import ServiceError
from repro.graph.graph import Graph
from repro.service.admission import AdmissionController, BudgetLedger, CostModel
from repro.service.metrics import MetricsRegistry
from repro.service.request import (
    JobHandle,
    JobStatus,
    ReductionRequest,
    ServiceResult,
    make_shedder,
)
from repro.service.scheduler import (
    SCHEDULER_MODES,
    JobTimeoutError,
    ProcessEngine,
    QueuedJob,
    Scheduler,
)
from repro.service.store import ArtifactStore

__all__ = ["SheddingService", "resolve_graph_ref"]

#: Default global resident-edge budget: roomy for laptop surrogates,
#: small enough that full-size com-livejournal jobs degrade.
DEFAULT_EDGE_BUDGET = 5_000_000


class SheddingService:
    """In-process shedding service: budgets, scheduling, artifact cache.

    Use as a context manager or call :meth:`shutdown` explicitly::

        with SheddingService(num_workers=2, mode="thread") as service:
            handle = service.submit(ReductionRequest(graph=g, method="crr", p=0.5))
            result = handle.result(timeout=60)
    """

    def __init__(
        self,
        max_resident_edges: int = DEFAULT_EDGE_BUDGET,
        max_queue_depth: Optional[int] = 1024,
        num_workers: int = 2,
        mode: str = "thread",
        store: Optional[ArtifactStore] = None,
        cache_dir: Optional[str] = None,
        cache_bytes: Optional[int] = None,
        cost_model: Optional[CostModel] = None,
        safety_factor: float = 1.5,
        graph_loader: Optional[Callable[[str, int], Graph]] = None,
        num_shards: Optional[int] = None,
    ) -> None:
        if mode not in SCHEDULER_MODES:
            raise ServiceError(f"mode must be one of {SCHEDULER_MODES}, got {mode!r}")
        self.mode = mode
        #: shard count for ``mode="sharded"`` (defaults to the worker count).
        self.num_shards = num_shards if num_shards is not None else max(num_workers, 1)
        if self.num_shards < 1:
            raise ServiceError(f"num_shards must be >= 1, got {self.num_shards}")
        self.store = store if store is not None else ArtifactStore(
            byte_budget=cache_bytes, persist_dir=cache_dir
        )
        self.metrics = MetricsRegistry()
        self.ledger = BudgetLedger(max_resident_edges)
        self.cost_model = cost_model or CostModel()
        self.admission = AdmissionController(
            capacity_edges=max_resident_edges,
            cost_model=self.cost_model,
            max_queue_depth=max_queue_depth,
            safety_factor=safety_factor,
        )
        self.scheduler = Scheduler(
            runner=self._run_job, num_workers=num_workers, inline=(mode == "inline")
        )
        self._engine = ProcessEngine(num_workers) if mode == "process" else None
        self._graph_loader = graph_loader or resolve_graph_ref
        self._graph_cache: Dict[Any, Graph] = {}
        self._graph_cache_lock = threading.Lock()
        self._closed = False
        self.metrics.register_gauge("queue_depth", lambda: self.scheduler.queue_depth)
        self.metrics.register_gauge("resident_edges", lambda: self.ledger.in_use)
        self.metrics.register_gauge("cache_artifacts", lambda: len(self.store))
        self.metrics.register_gauge("cache_bytes", lambda: self.store.resident_bytes)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def submit(self, request: ReductionRequest) -> JobHandle:
        """Submit one request; always returns a handle (rejections too)."""
        if self._closed:
            raise ServiceError("service is shut down")
        handle = JobHandle(request)
        submitted_at = time.perf_counter()
        self.metrics.counter("requests_submitted").inc()
        try:
            request.validate()
            graph = self._resolve_graph(request)
        except ServiceError as error:
            self._reject(handle, submitted_at, str(error))
            return handle
        except Exception as error:  # loader/file errors
            self._reject(handle, submitted_at, f"could not resolve graph: {error}")
            return handle

        key = self.store.key_for(
            graph,
            request.method,
            request.p,
            request.seed,
            variant=self._variant(request, request.method),
        )
        cached, hit = self.store.get_with_tier(key, graph)
        if cached is not None:
            self.metrics.counter(f"cache_hits_{hit}").inc()
            handle._complete(
                ServiceResult(
                    request=request,
                    status=JobStatus.COMPLETED,
                    reduction=cached,
                    method_used=request.method.lower(),
                    cache_hit=hit,
                    total_seconds=time.perf_counter() - submitted_at,
                )
            )
            return handle

        decision = self.admission.decide(
            request, graph, queue_depth=self.scheduler.queue_depth
        )
        if not decision.admitted:
            self.metrics.counter("admission_rejected").inc()
            self._reject(
                handle, submitted_at, "; ".join(decision.reasons) or "rejected"
            )
            return handle
        if decision.degraded:
            self.metrics.counter("admission_degraded").inc()
        self.metrics.counter("admitted").inc()

        job = QueuedJob(
            request=request,
            graph=graph,
            method=decision.method,
            handle=handle,
            sequence=self.scheduler.next_sequence(),
            enqueued_at=submitted_at,
            metadata={"decision": decision, "store_key": key},
        )
        self.scheduler.submit(job)
        return handle

    def submit_all(self, requests: List[ReductionRequest]) -> List[JobHandle]:
        """Submit a batch, preserving order of the returned handles."""
        return [self.submit(request) for request in requests]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait for every queued/running job to reach a terminal state."""
        return self.scheduler.drain(timeout=timeout)

    def shutdown(self, wait: bool = True) -> None:
        """Drain (optionally) and release workers and process pools."""
        if self._closed:
            return
        self.scheduler.shutdown(wait=wait)
        if self._engine is not None:
            self._engine.close()
        self._closed = True

    def __enter__(self) -> "SheddingService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def metrics_snapshot(self) -> Dict[str, Any]:
        """Full observability dict: metrics, store stats, budget state."""
        snapshot = self.metrics.snapshot()
        snapshot["store"] = dict(self.store.stats)
        snapshot["budget"] = {
            "capacity_edges": self.ledger.capacity,
            "in_use_edges": self.ledger.in_use,
            "waits": self.ledger.waits,
        }
        if self._engine is not None:
            snapshot["process_pool"] = {"abandoned_tasks": self._engine.abandoned_tasks}
        return snapshot

    # ------------------------------------------------------------------
    # Job execution (worker side)
    # ------------------------------------------------------------------

    def _run_job(self, job: QueuedJob) -> None:
        request, handle = job.request, job.handle
        started = time.perf_counter()
        queue_seconds = started - job.enqueued_at
        if job.metadata.pop("cancelled_in_queue", False) or handle.cancel_requested:
            self.metrics.counter("cancelled").inc()
            handle._complete(
                ServiceResult(
                    request=request,
                    status=JobStatus.CANCELLED,
                    queue_seconds=queue_seconds,
                    total_seconds=queue_seconds,
                    error="cancelled before execution",
                )
            )
            return

        key = job.metadata["store_key"]
        # Another job may have produced the same artifact while this one
        # sat in the queue.  The artifact lives under the original
        # (undegraded) request key, so the hit is the requested method.
        cached, hit = self.store.get_with_tier(key, job.graph)
        if cached is not None:
            self.metrics.counter(f"cache_hits_{hit}").inc()
            handle._complete(
                ServiceResult(
                    request=request,
                    status=JobStatus.COMPLETED,
                    reduction=cached,
                    method_used=request.method.lower(),
                    cache_hit=hit,
                    queue_seconds=queue_seconds,
                    total_seconds=time.perf_counter() - job.enqueued_at,
                )
            )
            return

        method, degradation = self._apply_queue_pressure(job, queue_seconds)
        charge = self.ledger.charge_for(job.graph.num_edges)
        try:
            self.ledger.acquire(charge)
        except ServiceError as error:
            self._fail(handle, request, queue_seconds, str(error))
            return
        try:
            self.store.count_compute()
            # _execute may degrade further (process-pool timeout fallback);
            # `method` is the method that actually produced `result`, and
            # the cache key below must follow it or a random-shed result
            # would be served as a future CRR/BM2 hit.
            result, metadata, method = self._execute(job, method, degradation)
        except Exception as error:
            self.metrics.counter("failed").inc()
            self._fail(handle, request, queue_seconds, f"{type(error).__name__}: {error}")
            return
        finally:
            self.ledger.release(charge)

        execute_seconds = time.perf_counter() - started
        total = time.perf_counter() - job.enqueued_at
        # The reduction succeeded; bookkeeping failures (a full disk in
        # store.put, a broken metrics gauge) must not lose the result or
        # kill the worker thread.
        try:
            self.cost_model.observe(
                method,
                job.graph.num_nodes,
                job.graph.num_edges,
                execute_seconds,
            )
            if degradation:
                self.metrics.counter("degraded_runs").inc()
            self.metrics.counter("jobs_executed").inc()
            self.metrics.histogram("queue_seconds").observe(queue_seconds)
            self.metrics.histogram("execute_seconds").observe(execute_seconds)
            self.metrics.histogram("total_seconds").observe(total)
            if (
                request.deadline_seconds is not None
                and total > request.deadline_seconds
            ):
                metadata["deadline_exceeded"] = True
                self.metrics.counter("deadline_overruns").inc()
            self.store.put(
                key if not degradation else self._degraded_key(job, method), result
            )
        except Exception as error:
            metadata["bookkeeping_error"] = f"{type(error).__name__}: {error}"
        handle._complete(
            ServiceResult(
                request=request,
                status=JobStatus.COMPLETED,
                reduction=result,
                method_used=method,
                degraded=bool(degradation),
                degradation=degradation,
                queue_seconds=queue_seconds,
                execute_seconds=execute_seconds,
                total_seconds=total,
                metadata=metadata,
            )
        )

    def _apply_queue_pressure(
        self, job: QueuedJob, queue_seconds: float
    ) -> (str, List[str]):
        """Re-check the deadline after queueing; degrade further if needed."""
        decision = job.metadata["decision"]
        method = decision.method
        degradation = list(decision.reasons)
        deadline = job.request.deadline_seconds
        if deadline is None:
            return method, degradation
        remaining = deadline - queue_seconds
        graph = job.graph
        while True:
            estimate = self.cost_model.estimate(
                method, graph.num_nodes, graph.num_edges
            )
            if estimate * self.admission.safety_factor <= remaining:
                break
            cheaper = degrade_method(method)
            if cheaper is None:
                break
            degradation.append(
                f"{method}->{cheaper}: {remaining:.3f}s left after "
                f"{queue_seconds:.3f}s in queue"
            )
            method = cheaper
        return method, degradation

    def _execute(
        self, job: QueuedJob, method: str, degradation: List[str]
    ) -> (ReductionResult, Dict[str, Any], str):
        """Run the reduction (process pool or in-thread) with fallback.

        Returns ``(result, metadata, method)`` where ``method`` is the
        method that actually ran — it differs from the argument when the
        process-pool timeout fallback kicked in, and the caller must key
        the artifact cache and report ``method_used`` from it.
        """
        request, graph = job.request, job.graph
        metadata: Dict[str, Any] = {"mode": self.mode}
        decision = job.metadata["decision"]
        if decision.oversize:
            metadata["oversize"] = True
        timeout = None
        if request.deadline_seconds is not None:
            timeout = max(request.deadline_seconds - (time.perf_counter() - job.enqueued_at), 0.05)

        # Degraded fallbacks may land on a method with no weighted variant
        # (e.g. random); those run weight-blind — the trail says why.
        runs_weighted = request.weighted and method in ("crr", "bm2", "bm2-sparse")

        if self._engine is not None:
            try:
                result = self._engine.execute(
                    graph,
                    method,
                    request.p,
                    request.seed,
                    num_sources=request.num_sources,
                    timeout=timeout,
                    weighted=runs_weighted,
                )
            except JobTimeoutError:
                # Terminal fallback: a cheap uniform reduction beats no
                # result at all; the trail records the timeout.
                self.metrics.counter("timeouts").inc()
                metadata["timed_out"] = True
                fallback = "random"
                degradation.append(
                    f"{method}->{fallback}: process-pool execution timed out"
                )
                method = fallback
                result = make_shedder(fallback, seed=request.seed).reduce(
                    graph, request.p
                )
        elif self._runs_sharded(method, request):
            from repro.shard import ShardedShedder

            shedder = ShardedShedder(
                method="bm2" if method == "bm2-sparse" else method,
                num_shards=self.num_shards,
                num_workers=self.scheduler.num_workers,
                seed=request.seed,
                num_betweenness_sources=request.num_sources,
                sparsify="edcs" if method == "bm2-sparse" else "off",
            )
            metadata["num_shards"] = self.num_shards
            result = shedder.reduce(graph, request.p)
        else:
            if self.mode == "sharded":
                metadata["unsharded"] = self._unsharded_reason(method, request)
            shedder = make_shedder(
                method,
                seed=request.seed,
                num_sources=request.num_sources,
                weighted=runs_weighted,
            )
            result = shedder.reduce(graph, request.p)

        if degradation:
            # Stamp the provenance into the artifact itself (satisfies
            # "degradation recorded in ReductionResult metadata") without
            # recomputing Δ — rescore_result reuses the exact value.
            stats = dict(result.stats)
            stats["degraded_from"] = request.method.lower()
            stats["degradation"] = list(degradation)
            stats["service_method"] = method
            result = rescore_result(
                method=result.method,
                original=graph,
                reduced=result.reduced,
                p=result.p,
                elapsed_seconds=result.elapsed_seconds,
                stats=stats,
                delta=result.delta,
            )
        return result, metadata, method

    def _degraded_key(self, job: QueuedJob, method: str):
        """Degraded runs are cached under the method that actually ran."""
        return self.store.key_for(
            job.graph,
            method,
            job.request.p,
            job.request.seed,
            variant=self._variant(job.request, method),
        )

    def _runs_sharded(self, method: str, request: ReductionRequest) -> bool:
        """Whether this method executes through the sharded runner here."""
        return self.mode == "sharded" and self._unsharded_reason(method, request) is None

    @staticmethod
    def _unsharded_reason(method: str, request: ReductionRequest) -> Optional[str]:
        """Why a sharded service runs ``method`` on the whole graph, or
        ``None`` when it shards.  Recorded as ``metadata["unsharded"]``."""
        if method not in ("crr", "bm2", "bm2-sparse"):
            # Only the paper kernels shard; degraded fallbacks land here.
            return f"method {method!r} has no sharded runner"
        if request.weighted:
            # The whole-graph probability-aware engines run instead.
            return "weighted request: the sharded runner is weight-blind"
        return None

    def _variant(self, request: ReductionRequest, method: str) -> str:
        """Cache-key variant for ``method`` as this service would run it.

        Sharded execution produces a different (boundary-reconciled)
        artifact than the whole-graph engines, so its results must not be
        served from — or poison — the unsharded cache entries.  Keyed per
        executed method because degraded fallbacks run unsharded.
        """
        variant = _variant_of(request)
        if self._runs_sharded(method, request):
            tag = f"shards={self.num_shards}"
            variant = f"{variant},{tag}" if variant else tag
        return variant

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _reject(self, handle: JobHandle, submitted_at: float, reason: str) -> None:
        self.metrics.counter("rejected").inc()
        handle._complete(
            ServiceResult(
                request=handle.request,
                status=JobStatus.REJECTED,
                error=reason,
                total_seconds=time.perf_counter() - submitted_at,
            )
        )

    def _fail(
        self,
        handle: JobHandle,
        request: ReductionRequest,
        queue_seconds: float,
        reason: str,
    ) -> None:
        handle._complete(
            ServiceResult(
                request=request,
                status=JobStatus.FAILED,
                error=reason,
                queue_seconds=queue_seconds,
            )
        )

    def _resolve_graph(self, request: ReductionRequest) -> Graph:
        if request.graph is not None:
            return request.graph
        ref = request.graph_ref
        assert ref is not None
        cache_token = (ref, request.seed)
        with self._graph_cache_lock:
            cached = self._graph_cache.get(cache_token)
        if cached is not None:
            return cached
        graph = self._graph_loader(ref, request.seed)
        with self._graph_cache_lock:
            self._graph_cache[cache_token] = graph
        return graph


def _variant_of(request: ReductionRequest) -> str:
    """Extra cache-key discriminators beyond (method, p, seed)."""
    tags = []
    if request.num_sources is not None:
        tags.append(f"sources={request.num_sources}")
    if request.weighted:
        # Weight-aware and weight-blind runs on the same weighted graph
        # share digest/method/p/seed — the tag keeps their artifacts apart.
        tags.append("weighted")
    return ",".join(tags)


def resolve_graph_ref(ref: str, seed: int) -> Graph:
    """Resolve ``dataset:<name>[:<scale>]`` and ``file:<path>`` refs.

    The one graph-ref grammar for every serving surface: the one-shot
    service and the streaming sessions (:mod:`repro.sessions`) both load
    through here, so a ref means the same graph everywhere.
    """
    kind, _, rest = ref.partition(":")
    if kind == "dataset" and rest:
        name, _, scale_text = rest.partition(":")
        from repro.datasets.registry import load_dataset

        scale = float(scale_text) if scale_text else None
        return load_dataset(name, scale=scale, seed=seed)
    if kind == "file" and rest:
        from repro.graph.io import read_edge_list

        return read_edge_list(rest)
    raise ServiceError(
        f"unknown graph ref {ref!r} (expected 'dataset:<name>[:<scale>]' or 'file:<path>')"
    )
