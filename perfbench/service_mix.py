"""``service-mix``: two closed-loop clients against a process-mode service.

``SheddingService(mode="process", num_workers=2)`` serves ``file:`` refs
over 8 graphs of about 5*10^3 edges (even ones Erdős–Rényi, odd ones
powerlaw-cluster).  Methods ``crr`` (32 betweenness sources), ``bm2`` and
``bm2-sparse`` at p in {0.3, 0.5} give 48 distinct requests, each issued
4 times in a seeded order.  A repeat waits until its first occurrence
has completed, so every round computes exactly 48 artifacts and serves
exactly 144 cache hits whatever the timing.  No deadlines are set.

Set-up starts the service.  The service resolves each ``file:`` ref
itself, on the first request that names it, so reading the 8 files is
on the request path.  Throughput is completed requests per second.
"""

from __future__ import annotations

import math
import shutil
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from checks import edge_fingerprint
from harness import Round, stamp, timing
from inputs import erdos_renyi_edges, powerlaw_cluster_edges, write_edge_file
from repro.service import (
    ArtifactStore,
    JobStatus,
    ReductionRequest,
    SheddingService,
    make_shedder,
    resolve_graph_ref,
)
from spans import Tracer, maybe_span

GRAPHS = 8
ER_NODES, ER_EDGES = 1_000, 5_000
PLC_NODES, PLC_LINKS, PLC_TRIANGLES = 1_250, 4, 0.3
METHODS: Tuple[Tuple[str, Optional[int]], ...] = (("crr", 32), ("bm2", None), ("bm2-sparse", None))
RATIOS = (0.3, 0.5)
REPEATS = 4
LAG = 16  # positions between a request's occurrences
CLIENTS = 2
WORKERS = 2
RESULT_TIMEOUT_S = 120.0
NOMINAL_ROUND_S = 5.0


@dataclass
class Inputs:
    seed: int
    workdir: Path
    refs: List[str]
    #: (ref, method, num_sources, p) per distinct request.
    requests: List[Tuple[str, str, Optional[int], float]]
    #: Request index issued at each position of the closed loop.
    order: List[int]


def prepare(workdir: Path, seed: int, scale: float) -> Inputs:
    refs = []
    for index in range(GRAPHS):
        rng = np.random.default_rng([seed, 3, index])
        if index % 2 == 0:
            edge_u, edge_v = erdos_renyi_edges(
                max(int(ER_NODES * scale), 40), max(int(ER_EDGES * scale), 100), rng
            )
        else:
            edge_u, edge_v = powerlaw_cluster_edges(
                max(int(PLC_NODES * scale), 20), PLC_LINKS, PLC_TRIANGLES, rng
            )
        path = workdir / f"graph{index}.txt"
        write_edge_file(path, edge_u, edge_v, f"service graph {index}, seed {seed}")
        refs.append(f"file:{path}")
    requests = [(ref, method, sources, p) for ref in refs for method, sources in METHODS for p in RATIOS]
    order = closed_loop_order(len(requests), np.random.default_rng([seed, 3, GRAPHS]))
    return Inputs(seed, workdir, refs, requests, order)


def closed_loop_order(count: int, rng: np.random.Generator) -> List[int]:
    """Each of ``count`` requests :data:`REPEATS` times, in a seeded order.

    First occurrences follow a seeded permutation.  A repeat becomes due
    :data:`LAG` positions after the previous occurrence of its request;
    at each position a due repeat is issued with probability 3/4, else
    the next first occurrence, so cache hits sit beside computes all
    through the run and a repeat rarely has to wait for its compute.
    """
    fresh = rng.permutation(count).tolist()
    due: List[Tuple[int, int, int]] = []  # (due position, request, repeats left)
    order: List[int] = []
    while fresh or due:
        position = len(order)
        ready = bool(due) and due[0][0] <= position
        if fresh and not (ready and rng.random() < 0.75):
            request, left = fresh.pop(0), REPEATS - 1
        else:
            _, request, left = due.pop(0)
        order.append(request)
        if left:
            due.append((position + LAG, request, left - 1))
    return order


def _request(inputs: Inputs, index: int) -> ReductionRequest:
    ref, method, sources, p = inputs.requests[index]
    return ReductionRequest(p=p, method=method, graph_ref=ref, seed=inputs.seed, num_sources=sources)


def _drive(service: SheddingService, inputs: Inputs, tracer=None):
    """Two closed-loop clients over ``inputs.order``; returns results and latencies."""
    order = inputs.order
    first: Dict[int, int] = {}
    for position, index in enumerate(order):
        first.setdefault(index, position)
    completed = [threading.Event() for _ in inputs.requests]
    results: List = [None] * len(order)
    latencies = [0.0] * len(order)
    errors: List[str] = []
    lock = threading.Lock()
    cursor = [0]

    def client() -> None:
        while True:
            with lock:
                position = cursor[0]
                cursor[0] += 1
            if position >= len(order):
                return
            index = order[position]
            try:
                if first[index] != position and not completed[index].wait(RESULT_TIMEOUT_S):
                    raise TimeoutError("first occurrence never completed")
                started = time.perf_counter()
                results[position] = service.submit(_request(inputs, index)).result(
                    timeout=RESULT_TIMEOUT_S
                )
                ended = time.perf_counter()
                latencies[position] = ended - started
                if tracer is not None:
                    tracer.add("service.request", started, ended, request=index)
            except Exception as error:  # a client must survive to report it
                with lock:
                    errors.append(f"position {position}: {type(error).__name__}: {error}")
            finally:
                if first[index] == position:
                    completed[index].set()

    threads = [threading.Thread(target=client, name=f"client-{i}") for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results, latencies, first, errors


def run_round(inputs: Inputs, tracer: Optional[Tracer] = None) -> Round:
    """One fresh service, cache and pool; with ``tracer``, spans on each layer."""
    cache_dir = inputs.workdir / "cache"
    shutil.rmtree(cache_dir, ignore_errors=True)

    def load(ref: str, seed: int):
        with tracer.span("service.resolve"):
            return resolve_graph_ref(ref, seed)

    started = stamp()
    with maybe_span(tracer, "service.start"):
        service = SheddingService(
            mode="process",
            num_workers=WORKERS,
            store=ArtifactStore(persist_dir=cache_dir) if tracer is None else TimedStore(tracer, persist_dir=cache_dir),
            graph_loader=None if tracer is None else load,
        )
    try:
        loaded = stamp()
        results, latencies, first, errors = _drive(service, inputs, tracer)
    finally:
        with maybe_span(tracer, "service.shutdown"):
            service.shutdown()
    done = stamp()  # after shutdown: the pool workers are reaped, so their CPU counts
    store_stats = dict(service.store.stats)

    computed = {
        index: results[position].reduction
        for index, position in first.items()
        if results[position] is not None and results[position].reduction is not None
    }
    hits = [latencies[p] for p, index in enumerate(inputs.order) if first[index] != p]
    return Round(
        **timing(started, loaded, done, len(inputs.order)),
        latencies=latencies,
        avg_delta=(
            math.fsum(r.average_delta for r in computed.values()) / len(computed)
            if computed else float("nan")
        ),
        guards={
            "computes": store_stats["computes"],
            "hits": store_stats["memory_hits"] + store_stats["disk_hits"],
            "artifacts": sorted(
                (index, edge_fingerprint(r.reduced), repr(r.delta)) for index, r in computed.items()
            ),
        },
        samples={"hit_latency": hits},
        keep={
            "results": results,
            "first": first,
            "errors": errors,
            "store_stats": store_stats,
            "window": (started[0], done[0]),
        },
    )


def check_round(inputs: Inputs, current: Round, tally, first: bool) -> None:
    results = current.keep["results"]
    first_position = current.keep["first"]
    errors = iter(current.keep["errors"])
    for position, index in enumerate(inputs.order):
        result = results[position]
        expect_hit = first_position[index] != position
        if result is None:
            tally.record(False, next(errors, "request raised"))
        elif result.status is not JobStatus.COMPLETED:
            tally.record(False, f"request {result.status.value}: {result.error}")
        elif result.degraded:
            tally.record(False, "request degraded")
        elif (result.cache_hit is not None) != expect_hit:
            tally.record(False, "cache hit where a compute was due, or the reverse")
        else:
            tally.record(True)
    distinct = len(inputs.requests)
    if current.guards["computes"] != distinct:
        tally.fail(f"{current.guards['computes']} computes, expected {distinct}")
    if current.guards["hits"] != distinct * (REPEATS - 1):
        tally.fail(f"{current.guards['hits']} cache hits, expected {distinct * (REPEATS - 1)}")
    if not first:
        return
    # The determinism contract: a service result equals a direct reduce.
    graphs = {ref: resolve_graph_ref(ref, inputs.seed) for ref in inputs.refs}
    for index, position in first_position.items():
        result = results[position]
        if result is None or result.reduction is None:
            continue
        ref, method, sources, p = inputs.requests[index]
        direct = make_shedder(method, seed=inputs.seed, num_sources=sources).reduce(graphs[ref], p)
        if (
            edge_fingerprint(direct.reduced) != edge_fingerprint(result.reduction.reduced)
            or direct.delta != result.reduction.delta
        ):
            tally.fail(f"request {index} differs from a direct reduce")


class TimedStore(ArtifactStore):
    """An artifact store that spans its key, lookup and insert calls."""

    def __init__(self, tracer, **kwargs) -> None:
        super().__init__(**kwargs)
        self._tracer = tracer

    def key_for(self, *args, **kwargs):
        with self._tracer.span("service.store.key"):
            return super().key_for(*args, **kwargs)

    def get_with_tier(self, *args, **kwargs):
        with self._tracer.span("service.store.get"):
            return super().get_with_tier(*args, **kwargs)

    def put(self, *args, **kwargs):
        with self._tracer.span("service.store.put"):
            return super().put(*args, **kwargs)


def traced(inputs: Inputs, tracer, untraced: Round):
    """One round with spans on the store, the service's ref resolution
    (the default loader, wrapped) and every request.

    Queue wait, execute time and the CRR/BM2 phase times happen in the
    scheduler and the worker processes; they are summed from the fields
    the program reports on each result.
    """
    current = run_round(inputs, tracer)
    problems = []
    if current.guards != untraced.guards:
        problems.append("traced round computed different artifacts")
    results = [r for r in current.keep["results"] if r is not None]
    computed = [r for r in results if r.cache_hit is None and r.reduction is not None]
    store_stats = current.keep["store_stats"]
    layers = {
        "service.store.key_s": tracer.total("service.store.key"),
        "service.store.get_s": tracer.total("service.store.get"),
        "service.store.put_s": tracer.total("service.store.put"),
        "service.store.hits_memory": float(store_stats["memory_hits"]),
        "service.store.hits_disk": float(store_stats["disk_hits"]),
        "service.store.computes": float(store_stats["computes"]),
        "service.resolve_s": tracer.total("service.resolve"),
        "service.queue_wait_s": math.fsum(r.queue_seconds for r in results),
        "service.execute_s": math.fsum(r.execute_seconds for r in results),
        "core.crr.rank_s": math.fsum(r.reduction.stats.get("ranking_seconds", 0.0) for r in computed),
        "core.crr.rewire_s": math.fsum(r.reduction.stats.get("rewiring_seconds", 0.0) for r in computed),
        "core.crr.accepted_swaps": float(sum(r.reduction.stats.get("accepted_swaps", 0) for r in computed)),
        "core.bm2.phase1_s": math.fsum(r.reduction.stats.get("phase1_seconds", 0.0) for r in computed),
        "core.bm2.phase2_s": math.fsum(r.reduction.stats.get("phase2_seconds", 0.0) for r in computed),
        "core.bm2.phase2_candidates": float(sum(r.reduction.stats.get("candidate_edges", 0) for r in computed)),
        "core.bm2.phase2_pruned": float(
            sum(r.reduction.stats.get("phase2_candidate_edges_pruned", 0) for r in computed)
        ),
    }
    layers["core.bm2.phases_s"] = layers["core.bm2.phase1_s"] + layers["core.bm2.phase2_s"]
    return layers, current.keep["window"], problems
