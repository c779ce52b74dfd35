"""Priority scheduling and worker pools for the shedding service.

Three execution modes, selected by the service:

* ``inline`` — jobs run synchronously in the submitting thread; the
  zero-moving-parts mode the deterministic tests lean on.
* ``thread`` — a bounded pool of worker threads drains a priority queue
  (higher ``priority`` first, FIFO within a level).  Reductions are
  CPU-bound Python, so threads serialise on the GIL — this mode buys
  queueing/backpressure semantics, not parallel speedup.
* ``process`` — worker threads hand the actual reduction to a bounded
  process pool (:class:`~repro.graph.parallel.WorkerPool`) via
  :class:`ProcessEngine`, which ships the flat CSR edge arrays (numpy id
  arrays plus the label list, never the adjacency dicts) and rebuilds
  the result parent-side.  Because the worker replays nodes in label
  order and edges in ``Graph.edges()`` order, the child's rebuilt graph
  has the *identical* CSR snapshot and edge iteration order — so the
  reductions are bit-identical to an inline run.  The reduced graph
  comes back the same way, as its edge scan in ids: graphs on both sides
  are built by :meth:`Graph.from_edge_ids` and hold arrays, and a CRR or
  BM2 job builds no adjacency dict in either process.  A dead worker
  fails its jobs (the service marks them FAILED and releases their
  ledger charge), and the engine replaces the pool once.

Determinism does not depend on the mode: every job builds a fresh
shedder from its own request seed (seed routing), so results are a pure
function of the request regardless of worker interleaving.

Per-job timeouts are enforced where the platform allows: a process-mode
job whose deadline expires raises :class:`JobTimeoutError` in the worker
thread (the abandoned pool task finishes and is discarded — noted in the
pool stats); thread-mode jobs cannot be interrupted mid-Python and
instead report deadline overruns in their result metadata.
"""

from __future__ import annotations

import heapq
import itertools
import multiprocessing
import threading
import time
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.base import ReductionResult
from repro.errors import ServiceError
from repro.graph.graph import Graph
from repro.graph.parallel import WorkerPool
from repro.service.request import (
    JobHandle,
    JobStatus,
    ReductionRequest,
    ServiceResult,
    make_shedder,
)

__all__ = ["JobTimeoutError", "ProcessEngine", "QueuedJob", "Scheduler"]

#: ``sharded`` schedules like ``thread`` but executes CRR/BM2 jobs through
#: :class:`repro.shard.ShardedShedder` (partition → per-shard kernels →
#: reconciliation), fanning each job out across processes.
SCHEDULER_MODES = ("inline", "thread", "process", "sharded")


class JobTimeoutError(ServiceError):
    """A job's execution exceeded its wall-clock budget."""


@dataclass(order=True)
class QueuedJob:
    """One admitted job, ordered for the priority heap."""

    sort_key: Tuple[int, int] = field(init=False, repr=False)
    request: ReductionRequest = field(compare=False)
    graph: Graph = field(compare=False)
    method: str = field(compare=False)
    handle: JobHandle = field(compare=False)
    sequence: int = field(compare=False)
    enqueued_at: float = field(compare=False)
    metadata: Dict[str, Any] = field(compare=False, default_factory=dict)

    def __post_init__(self) -> None:
        # Higher priority first; submission order breaks ties.
        self.sort_key = (-self.request.priority, self.sequence)


class Scheduler:
    """Bounded worker pool draining a priority queue of jobs.

    ``runner`` is the service callback that fully executes one job
    (budget lease, cache write, handle completion).  The scheduler owns
    only ordering, worker lifecycle, and queue accounting.
    """

    def __init__(
        self,
        runner: Callable[[QueuedJob], None],
        num_workers: int = 2,
        inline: bool = False,
    ) -> None:
        if num_workers < 1:
            raise ServiceError(f"num_workers must be >= 1, got {num_workers}")
        self._runner = runner
        self.num_workers = num_workers
        self.inline = inline
        self._heap: List[QueuedJob] = []
        self._condition = threading.Condition()
        self._sequence = itertools.count()
        self._active = 0
        self._stopping = False
        self._workers: List[threading.Thread] = []

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def next_sequence(self) -> int:
        return next(self._sequence)

    def submit(self, job: QueuedJob) -> None:
        """Queue ``job`` (or run it now in inline mode)."""
        if self.inline:
            job.handle._mark(JobStatus.RUNNING)
            self._run_guarded(job)
            return
        with self._condition:
            if self._stopping:
                raise ServiceError("scheduler is shut down")
            heapq.heappush(self._heap, job)
            job.handle._mark(JobStatus.QUEUED)
            self._ensure_workers()
            self._condition.notify()

    @property
    def queue_depth(self) -> int:
        with self._condition:
            return len(self._heap)

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------

    def _ensure_workers(self) -> None:
        """Lazily spawn worker threads up to the configured pool size."""
        while len(self._workers) < self.num_workers:
            name = f"repro-shed-worker-{len(self._workers)}"
            worker = threading.Thread(target=self._worker_loop, name=name, daemon=True)
            self._workers.append(worker)
            worker.start()

    def _worker_loop(self) -> None:
        while True:
            with self._condition:
                while not self._heap and not self._stopping:
                    self._condition.wait()
                if self._stopping and not self._heap:
                    return
                job = heapq.heappop(self._heap)
                self._active += 1
            try:
                if job.handle.cancel_requested:
                    job.metadata["cancelled_in_queue"] = True
                else:
                    job.handle._mark(JobStatus.RUNNING)
                self._run_guarded(job)
            finally:
                with self._condition:
                    self._active -= 1
                    self._condition.notify_all()

    def _run_guarded(self, job: QueuedJob) -> None:
        """Run one job; a runner that raises must not kill the worker.

        The runner normally resolves the handle itself (including on
        failure); this is the backstop for bugs/errors that escape it —
        the handle is failed so ``result()`` callers unblock, and the
        worker thread survives to drain the rest of the queue.
        """
        try:
            self._runner(job)
        except Exception as error:
            job.handle._complete(
                ServiceResult(
                    request=job.request,
                    status=JobStatus.FAILED,
                    error=f"internal error: {type(error).__name__}: {error}",
                )
            )

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until the queue is empty and no job is running."""
        if self.inline:
            return True
        with self._condition:
            return self._condition.wait_for(
                lambda: not self._heap and self._active == 0, timeout
            )

    def shutdown(self, wait: bool = True, timeout: Optional[float] = 30.0) -> None:
        """Stop accepting work; optionally wait for queued jobs to finish."""
        if wait:
            self.drain(timeout=timeout)
        with self._condition:
            self._stopping = True
            self._condition.notify_all()
        for worker in self._workers:
            worker.join(timeout=timeout)
        if not any(worker.is_alive() for worker in self._workers):
            # The runner is the owner's bound method, and the owner holds
            # this scheduler: drop it so refcounting frees both.
            self._runner = _refuse
        self._workers.clear()


def _refuse(job: QueuedJob) -> None:
    raise ServiceError("scheduler is shut down")


# ----------------------------------------------------------------------
# Process execution
# ----------------------------------------------------------------------


def _graph_from_ids(
    labels: List[Any],
    u_ids: np.ndarray,
    v_ids: np.ndarray,
    edge_w: Optional[np.ndarray],
    snapshot: bool,
) -> Graph:
    """Rebuild a graph on ``labels`` from edge-id arrays (and weights).

    :meth:`Graph.from_edge_ids` keeps label order and lists neighbours in
    array order, so a graph shipped as its :meth:`Graph.edge_arrays` scan
    comes back with the identical canonical edge iteration and CSR
    snapshot — the property bit-identity rests on.  The rebuilt graph
    holds the arrays and builds adjacency dicts only if something reads
    them.  ``snapshot`` memoises that snapshot: the worker's input graph
    starts its reduction from it, while a returned reduced graph, like one
    reduced in-process, has none to hold in the artifact cache.
    """
    if edge_w is not None and edge_w.shape[0] == 0:
        edge_w = None  # an edgeless graph never became weighted
    return Graph.from_edge_ids(labels, u_ids, v_ids, edge_w, snapshot=snapshot)


def _reduce_job(payload: Tuple) -> Tuple:
    """Worker-side entry: rebuild the graph from flat arrays and reduce.

    Returns the reduced graph's :meth:`Graph.edge_arrays` scan as ids over
    the input's labels, plus its weights when it carries any.  A CRR or
    BM2 result is still held as edge ids, so neither the worker nor the
    parent builds an adjacency dict.  Reduced edges need not be edges of
    the input (UDS reconstructs supernode blocks), so the parent rebuilds
    them rather than selecting them from its own graph.
    """
    labels, u_ids, v_ids, edge_w, method, p, seed, num_sources, weighted = payload
    graph = _graph_from_ids(labels, u_ids, v_ids, edge_w, snapshot=True)
    shedder = make_shedder(method, seed=seed, num_sources=num_sources, weighted=weighted)
    result = shedder.reduce(graph, p)
    out_labels, out_u, out_v, out_w = result.reduced.edge_arrays()
    if out_labels != labels:
        # A method that reordered the nodes: map its ids onto the input's.
        index_of = {node: idx for idx, node in enumerate(labels)}
        to_input = np.array([index_of[node] for node in out_labels], dtype=np.int64)
        out_u, out_v = to_input[out_u], to_input[out_v]
    return out_u, out_v, out_w, result.delta, result.elapsed_seconds, result.stats, result.method


class ProcessEngine:
    """Bounded process pool running reductions out-of-process.

    Ships ``(labels, edge-id arrays, optional weights, method, p, seed)``
    per job to a :class:`~repro.graph.parallel.WorkerPool` and rebuilds
    the :class:`ReductionResult` parent-side from the returned edge ids.
    A dead worker fails each job in flight with a :class:`ServiceError`
    naming its method and ``p``; the first job to notice (or the next
    submit, if the worker died idle) replaces the pool (:attr:`rebuilds`).
    """

    def __init__(self, num_workers: int = 2) -> None:
        if num_workers < 1:
            raise ServiceError(f"num_workers must be >= 1, got {num_workers}")
        self.num_workers = num_workers
        self._lock = threading.Lock()
        #: Tasks whose result was abandoned after a timeout (the pool
        #: worker still finishes them; their output is discarded).
        self.abandoned_tasks = 0
        #: Broken pools replaced after a worker died.
        self.rebuilds = 0
        self._pool: Optional[WorkerPool] = WorkerPool(num_workers)
        # Fork the workers now, while the constructing thread is (in the
        # service's lifecycle) the only one: forking a multi-threaded
        # process can deadlock children that inherit held locks.  The first
        # submit forks every worker (3.10: one per submit); none is awaited.
        for _ in range(num_workers):
            self._pool.submit(int)

    def execute(
        self,
        graph: Graph,
        method: str,
        p: float,
        seed: Optional[int],
        num_sources: Optional[int] = None,
        timeout: Optional[float] = None,
        weighted: bool = False,
    ) -> ReductionResult:
        """Run one reduction in the pool; raise on deadline expiry or a dead worker."""
        csr = graph.csr()
        u_ids, v_ids = csr.edge_list_ids()
        # Weights ship whenever the graph carries them (weight-blind runs
        # on weighted graphs still need worker-side Δ_E stats); ``weighted``
        # additionally selects the probability-aware shedder.
        edge_w = csr.weights
        payload = (csr.labels, u_ids, v_ids, edge_w, method, p, seed, num_sources, weighted)
        with self._lock:
            if self._pool is None:
                raise ServiceError("process engine is closed")
            try:
                task = self._pool.submit(_reduce_job, payload)
            except BrokenProcessPool:  # a worker died while the pool was idle
                self._rebuild()
                task = self._pool.submit(_reduce_job, payload)
            pool = self._pool
        try:
            out_u, out_v, out_w, delta, elapsed, stats, method_name = task.result(timeout)
        except FutureTimeoutError:
            with self._lock:
                self.abandoned_tasks += 1
            raise JobTimeoutError(
                f"{method} reduction exceeded its {timeout:.3f}s budget"
            ) from None
        except BrokenProcessPool:
            with self._lock:
                if self._pool is pool:
                    self._rebuild()
            raise ServiceError(
                f"{method} reduction at p={p:g} failed: its pool worker died"
            ) from None
        return ReductionResult(
            method=method_name,
            original=graph,
            reduced=_graph_from_ids(csr.labels, out_u, out_v, out_w, snapshot=False),
            p=float(p),
            delta=delta,
            elapsed_seconds=elapsed,
            stats=stats,
        )

    def _rebuild(self) -> None:
        """Replace the broken pool; the caller holds the lock.

        The service runs scheduler threads by now, so the new pool starts
        its workers with ``spawn``, never ``fork``.  Spawned workers import
        the main module by path, so a script that runs a process-mode
        service needs the usual ``if __name__ == "__main__"`` guard.
        """
        self._pool.terminate()
        self._pool = WorkerPool(self.num_workers, context=multiprocessing.get_context("spawn"))
        self.rebuilds += 1

    def close(self) -> None:
        """End the workers, running and abandoned tasks included."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.terminate()
