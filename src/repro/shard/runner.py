"""Sharded shedding: per-shard CRR/BM2 on CSR views + boundary reconciliation.

:class:`ShardedShedder` runs the paper's array engines shard-by-shard and
stitches the results back into one reduction:

1. **Partition** (:func:`repro.shard.partition.partition_graph`): nodes
   split into ``num_shards`` groups; edges classified interior/boundary.
2. **Shed** each shard's interior edges with one configured engine's id
   core (:meth:`repro.core.crr.CRRShedder.reduce_ids` /
   :meth:`repro.core.bm2.BM2Shedder.reduce_ids`) over its
   :class:`~repro.graph.csr.CSRView` — optionally fanned out across
   processes, whose pool initializer ships the parent snapshot's flat
   arrays once per worker.  Worker results are deterministic given the
   seed, so ``num_workers`` never changes the output.
3. **Reconcile** boundary edges against a merged whole-graph tracker:
   admit every boundary edge that strictly lowers ``Δ``; CRR runs — whose
   whole-graph engine pins exactly ``[p·m]`` kept edges — then demote /
   fill to land on that global target, while BM2 runs — whose edge count
   is emergent from matching + repair — stop after the improving
   admissions (the sharded analog of BM2's repair phase).

**Δ accounting.**  With per-shard discrepancies ``Δ_s`` (scored against
shard-interior degrees) and boundary set ``B``, the merged tracker obeys
``Δ_merged ≤ Σ_s Δ_s + 2p|B|``: a node's global discrepancy is its shard
discrepancy minus ``p`` times its incident boundary edges, and the
``p·b(u)`` terms sum to ``2p|B|``.  Reconciliation admissions in the
improving phase only lower ``Δ``, and every demote/fill changes ``Δ`` by
at most ``+2`` (one endpoint's ``|dis|`` moves by at most 1 each).  Hence
the documented, property-tested bound::

    Δ_final ≤ Σ_s Δ_s + 2·p·|B| + 2·(boundary_filled + demoted)

**Exactness.**  With ``num_shards=1`` there is no boundary, the single
view's arrays are bit-identical to the whole-graph snapshot's, and every
reconciliation phase is a no-op — the reduced graph equals the
whole-graph ``CRRShedder``/``BM2Shedder`` result exactly.  Each
shard seeds a fresh generator from the same ``seed``, so results are
independent of worker scheduling and ``num_workers``.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.base import EdgeShedder, timed_phase
from repro.core.bm2 import BM2Shedder
from repro.core.crr import CRRShedder
from repro.core.discrepancy import ArrayDegreeTracker, round_half_up
from repro.core.sparsify import edcs_beta, prune_boundary_ids
from repro.graph.csr import CSRAdjacency
from repro.graph.graph import Graph
from repro.graph.parallel import _pool_context
from repro.shard.partition import PARTITION_METHODS, ShardPlan, partition_graph

__all__ = ["SHARD_METHODS", "ShardedShedder", "reconcile_ids"]

#: Kernels the sharded runner can drive.
SHARD_METHODS = ("crr", "bm2")

#: Improvement threshold for boundary admissions (same float-noise filter
#: as the CRR rewiring loop).
_MIN_IMPROVEMENT = 1e-9


# Shard-worker state: the parent snapshot's arrays, shipped once per
# worker by the pool initializer.  The scan-order edge list rides along
# because workers rebuild views from it — falling back to the snapshot's
# lexicographic edge enumeration would silently reorder shard edge scans
# and break the serial/parallel bit-identity contract.
_WORKER_SHARD_CSR: Optional[
    Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
] = None


def _init_shard_worker(
    indptr: np.ndarray,
    indices: np.ndarray,
    edge_u: np.ndarray,
    edge_v: np.ndarray,
) -> None:
    global _WORKER_SHARD_CSR
    _WORKER_SHARD_CSR = (indptr, indices, edge_u, edge_v)


def shard_worker_snapshot() -> CSRAdjacency:
    """The parent CSR snapshot inside a shard worker (ids as labels).

    The reconstructed snapshot's :meth:`CSRAdjacency.edge_list_ids` is the
    parent's scan order, so ``snapshot.view_of(node_ids)`` builds the very
    same view arrays the parent holds — the property the workers=N
    bit-identity test pins.
    """
    assert _WORKER_SHARD_CSR is not None, "worker initialised without shard arrays"
    indptr, indices, edge_u, edge_v = _WORKER_SHARD_CSR
    n = indptr.shape[0] - 1
    return CSRAdjacency(
        indptr=indptr,
        indices=indices,
        labels=list(range(n)),
        index_of={},
        _derived={"edge_list_ids": (edge_u, edge_v)},
    )


def _shed_shard_view(
    view: CSRAdjacency, shedder: CRRShedder | BM2Shedder, p: float
) -> Tuple[np.ndarray, np.ndarray, Dict[str, Any]]:
    """Run the shedder's id core over one shard view; returns local kept ids."""
    stats: Dict[str, Any] = {}
    started = time.perf_counter()
    kept_u, kept_v = shedder.reduce_ids(view, p, stats)
    stats["seconds"] = time.perf_counter() - started
    return kept_u, kept_v, stats


def _shard_job(
    payload: Tuple[int, np.ndarray, CRRShedder | BM2Shedder, float]
) -> Tuple[int, np.ndarray, np.ndarray, Dict[str, Any]]:
    """Process-pool task: rebuild the shard view from the initializer-shipped
    parent arrays and shed it.  Local ids only — the parent lifts them."""
    index, node_ids, shedder, p = payload
    view = shard_worker_snapshot().view_of(node_ids)
    kept_u, kept_v, stats = _shed_shard_view(view, shedder, p)
    return index, kept_u, kept_v, stats


def _admission_rounds(
    tracker: ArrayDegreeTracker,
    boundary_u: np.ndarray,
    boundary_v: np.ndarray,
    remaining: np.ndarray,
    improving_only: bool,
    limit: Optional[int],
) -> Tuple[List[int], List[int]]:
    """Greedy boundary admission in batch rounds.

    Each round evaluates every remaining boundary edge's ``Δ``-change in
    one vectorized call, walks candidates best-first, and defers edges
    sharing an endpoint with a this-round admission (their gain is stale
    after it).  ``improving_only`` restricts admissions to strict
    improvements; otherwise admission continues least-harm-first until
    ``limit`` edges were taken.  Gains are monotone non-decreasing in the
    endpoints' discrepancies, so once no strict improvement remains none
    can reappear — the improving loop terminates.
    """
    added_u: List[int] = []
    added_v: List[int] = []
    while remaining.any():
        if limit is not None and len(added_u) >= limit:
            break
        positions = np.nonzero(remaining)[0]
        batch_u = boundary_u[positions]
        batch_v = boundary_v[positions]
        gains = tracker.add_change_ids(batch_u, batch_v)
        if improving_only:
            candidates = np.nonzero(gains < -_MIN_IMPROVEMENT)[0]
            if candidates.shape[0] == 0:
                break
            order = candidates[np.argsort(gains[candidates], kind="stable")]
        else:
            order = np.argsort(gains, kind="stable")
        touched = np.zeros(tracker.num_nodes, dtype=bool)
        round_u: List[int] = []
        round_v: List[int] = []
        for k in order.tolist():
            if limit is not None and len(added_u) + len(round_u) >= limit:
                break
            u = int(batch_u[k])
            v = int(batch_v[k])
            if touched[u] or touched[v]:
                continue
            remaining[positions[k]] = False
            touched[u] = True
            touched[v] = True
            round_u.append(u)
            round_v.append(v)
        if not round_u:
            break
        # Round admissions touch disjoint endpoints, so the bulk admit
        # takes the vectorized path with the scalar loop's exact Δ order.
        tracker.admit_edges_ids(
            np.asarray(round_u, dtype=np.int64), np.asarray(round_v, dtype=np.int64)
        )
        added_u.extend(round_u)
        added_v.extend(round_v)
    return added_u, added_v


def reconcile_ids(
    csr: CSRAdjacency,
    p: float,
    kept_u: np.ndarray,
    kept_v: np.ndarray,
    boundary_u: np.ndarray,
    boundary_v: np.ndarray,
    stats: Dict[str, Any],
    target: Optional[int] = None,
    sparsify_beta: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Merge per-shard keeps and reconcile boundary edges globally.

    Builds a whole-graph :class:`ArrayDegreeTracker` over the union of the
    shard results, then (a) admits every boundary edge that strictly
    lowers the global ``Δ`` and — when ``target`` is given — (b) demotes
    worst-scoring kept edges while the count exceeds it and (c) fills
    with least-harm boundary edges while it falls short.  Steps (b)/(c)
    are mutually exclusive and land the reduction on exactly ``target``
    edges.

    ``target`` is the *method's* contract, not a universal one: CRR pins
    ``[p·m]`` exactly, so its sharded runs pass it; BM2's edge count is
    emergent (matched + repaired), so its sharded runs pass ``None`` and
    reconcile with the improving-admission phase alone — the sharded
    analog of its repair phase.  Stats gain ``boundary_admitted``,
    ``boundary_filled``, ``demoted``, ``reconcile_target`` and the final
    ``tracker_delta``.

    ``sparsify_beta`` opts the improving phase into EDCS-style candidate
    pruning (:func:`repro.core.sparsify.prune_boundary_ids`): each
    boundary edge must rank inside its endpoints' top-``β`` most-improving
    candidates.  Admissions over the pruned subset still only lower
    ``Δ``, so the documented ``Σ_s Δ_s + 2p|B| + 2(filled+demoted)``
    bound is untouched.  Intended for ``target=None`` (BM2) runs — with a
    ``target``, pruning would also shrink the fill pool.
    """
    tracker = ArrayDegreeTracker(csr, p)
    tracker.add_edges_ids(kept_u, kept_v)
    stats["boundary_candidates_pruned"] = 0
    if sparsify_beta is not None and boundary_u.shape[0]:
        scores = tracker.add_change_ids(boundary_u, boundary_v)
        remaining = prune_boundary_ids(boundary_u, boundary_v, scores, sparsify_beta)
        stats["boundary_candidates_pruned"] = int(
            boundary_u.shape[0] - np.count_nonzero(remaining)
        )
    else:
        remaining = np.ones(boundary_u.shape[0], dtype=bool)

    admitted_u, admitted_v = _admission_rounds(
        tracker, boundary_u, boundary_v, remaining, improving_only=True, limit=None
    )
    current_u = np.concatenate((kept_u, np.asarray(admitted_u, dtype=np.int64)))
    current_v = np.concatenate((kept_v, np.asarray(admitted_v, dtype=np.int64)))

    demoted = 0
    while target is not None and tracker.num_edges > target:
        costs = tracker.remove_change_ids(current_u, current_v)
        order = np.argsort(costs, kind="stable")
        drop = np.zeros(current_u.shape[0], dtype=bool)
        touched = np.zeros(tracker.num_nodes, dtype=bool)
        removed_this_round = False
        for k in order.tolist():
            if tracker.num_edges <= target:
                break
            u = int(current_u[k])
            v = int(current_v[k])
            if touched[u] or touched[v]:
                continue
            tracker.remove_edge_ids(u, v)
            drop[k] = True
            touched[u] = True
            touched[v] = True
            demoted += 1
            removed_this_round = True
        if not removed_this_round:
            break
        keep = ~drop
        current_u = current_u[keep]
        current_v = current_v[keep]

    filled_u: List[int] = []
    filled_v: List[int] = []
    if target is not None and tracker.num_edges < target:
        filled_u, filled_v = _admission_rounds(
            tracker,
            boundary_u,
            boundary_v,
            remaining,
            improving_only=False,
            limit=target - tracker.num_edges,
        )
        current_u = np.concatenate((current_u, np.asarray(filled_u, dtype=np.int64)))
        current_v = np.concatenate((current_v, np.asarray(filled_v, dtype=np.int64)))

    stats["reconcile_target"] = target
    stats["boundary_admitted"] = len(admitted_u)
    stats["boundary_filled"] = len(filled_u)
    stats["demoted"] = demoted
    stats["tracker_delta"] = tracker.delta
    return current_u, current_v


class ShardedShedder(EdgeShedder):
    """Partition → per-shard CRR/BM2 → boundary reconciliation.

    Every shard runs :attr:`shard_shedder`, one :class:`CRRShedder` or
    :class:`BM2Shedder` built from the values below (the engine's defaults
    for everything else), through its :meth:`reduce_ids` id core.

    Args:
        method: which engine runs per shard — ``"crr"`` or ``"bm2"``.
        num_shards: node groups to partition into (clamped to the node
            count).  ``1`` reproduces the whole-graph shedder bit for bit.
        num_workers: process fan-out for the per-shard runs.  ``1`` stays
            in-process; results are identical either way.
        partition: ``"community"`` (default) or ``"contiguous"`` — see
            :func:`repro.shard.partition.partition_graph`.
        seed: integer seed (or ``None``).  Every shard derives a fresh
            generator from it, so the reduction is independent of shard
            scheduling; generators are not accepted because they cannot be
            replayed per shard (or shipped to workers).
        num_betweenness_sources: the CRR engine's sampled-betweenness
            source count (ignored for BM2).
        sparsify / sparsify_beta: the BM2 engine's candidate pruning
            (``bm2`` only); ``sparsify="edcs"`` additionally prunes the
            boundary-reconciliation candidates with the same ``β``
            (:func:`repro.core.sparsify.prune_boundary_ids`), keeping the
            delta bound intact.
    """

    name = "ShardedShedder"

    def __init__(
        self,
        method: str = "crr",
        num_shards: int = 4,
        num_workers: int = 1,
        partition: str = "community",
        seed: Optional[int] = None,
        num_betweenness_sources: Optional[int] = None,
        sparsify: str = "off",
        sparsify_beta: Optional[int] = None,
    ) -> None:
        if method not in SHARD_METHODS:
            raise ValueError(f"method must be one of {SHARD_METHODS}, got {method!r}")
        if num_shards < 1:
            raise ValueError(f"num_shards must be positive, got {num_shards}")
        if num_workers < 1:
            raise ValueError(f"num_workers must be positive, got {num_workers}")
        if partition not in PARTITION_METHODS:
            raise ValueError(
                f"partition must be one of {PARTITION_METHODS}, got {partition!r}"
            )
        if seed is not None and not isinstance(seed, (int, np.integer)):
            raise ValueError(
                "ShardedShedder requires an int (or None) seed: each shard"
                " replays it independently"
            )
        if sparsify != "off" and method != "bm2":
            raise ValueError("sparsify requires method='bm2'")
        self.method = method
        self.num_shards = num_shards
        self.num_workers = num_workers
        self.partition = partition
        self._seed = None if seed is None else int(seed)
        self.shard_shedder: CRRShedder | BM2Shedder = (
            CRRShedder(num_betweenness_sources=num_betweenness_sources, seed=self._seed)
            if method == "crr"
            else BM2Shedder(seed=self._seed, sparsify=sparsify, sparsify_beta=sparsify_beta)
        )
        self.name = f"Sharded{method.upper()}"

    def _run_shards(
        self, plan: ShardPlan, p: float
    ) -> List[Tuple[np.ndarray, np.ndarray, Dict[str, Any]]]:
        """Shed every shard; serial or process fan-out, identical results."""
        shedder = self.shard_shedder
        workers = min(self.num_workers, plan.num_shards)
        if workers <= 1:
            return [_shed_shard_view(shard.view, shedder, p) for shard in plan.shards]
        csr = plan.csr
        edge_u, edge_v = csr.edge_list_ids()
        payloads = [(shard.index, shard.node_ids, shedder, p) for shard in plan.shards]
        context = _pool_context()
        with context.Pool(
            processes=workers,
            initializer=_init_shard_worker,
            initargs=(csr.indptr, csr.indices, edge_u, edge_v),
        ) as pool:
            results = pool.map(_shard_job, payloads)
        ordered: List[Optional[Tuple[np.ndarray, np.ndarray, Dict[str, Any]]]] = [
            None
        ] * plan.num_shards
        for index, kept_u, kept_v, stats in results:
            ordered[index] = (kept_u, kept_v, stats)
        return ordered  # type: ignore[return-value]

    def _reduce(self, graph: Graph, p: float) -> Tuple[Graph, Dict[str, Any]]:
        stats: Dict[str, Any] = {
            "method": self.method,
            "num_shards": self.num_shards,
            "num_workers": self.num_workers,
        }
        with timed_phase(stats, "partition_seconds"):
            plan = partition_graph(
                graph, self.num_shards, method=self.partition, seed=self._seed
            )
        stats["partition"] = plan.describe()

        with timed_phase(stats, "shard_seconds"):
            shard_results = self._run_shards(plan, p)

        per_shard: List[Dict[str, Any]] = []
        global_u: List[np.ndarray] = []
        global_v: List[np.ndarray] = []
        shard_deltas: List[float] = []
        for shard, (local_u, local_v, shard_stats) in zip(plan.shards, shard_results):
            global_u.append(shard.node_ids[local_u])
            global_v.append(shard.node_ids[local_v])
            shard_deltas.append(float(shard_stats.get("tracker_delta", 0.0)))
            per_shard.append(
                {
                    "shard": shard.index,
                    "nodes": shard.num_nodes,
                    "interior_edges": shard.interior_edges,
                    "kept_edges": int(local_u.shape[0]),
                    "delta": shard_deltas[-1],
                    "seconds": shard_stats["seconds"],
                }
            )
        kept_u = np.concatenate(global_u) if global_u else np.empty(0, dtype=np.int64)
        kept_v = np.concatenate(global_v) if global_v else np.empty(0, dtype=np.int64)

        # CRR pins the whole-graph edge count [p·m]; BM2's count is
        # emergent (matched + repaired), so its reconciliation must not
        # force one — see reconcile_ids.
        shedder = self.shard_shedder
        target: Optional[int] = None
        boundary_beta: Optional[int] = None
        if isinstance(shedder, CRRShedder):
            target = round_half_up(p * plan.csr.num_edges)
        elif shedder.sparsify == "edcs":
            beta = shedder.sparsify_beta
            boundary_beta = int(beta) if beta is not None else edcs_beta()
        with timed_phase(stats, "reconcile_seconds"):
            kept_u, kept_v = reconcile_ids(
                plan.csr,
                p,
                kept_u,
                kept_v,
                plan.boundary_u,
                plan.boundary_v,
                stats,
                target=target,
                sparsify_beta=boundary_beta,
            )

        stats["per_shard"] = per_shard
        stats["shard_deltas"] = shard_deltas
        stats["boundary_edges"] = plan.num_boundary
        # The documented reconciliation bound (see module docstring):
        # Δ ≤ Σ_s Δ_s + 2p|B| + 2·(fills + demotions).
        stats["delta_bound"] = (
            sum(shard_deltas)
            + 2.0 * p * plan.num_boundary
            + 2.0 * (stats["boundary_filled"] + stats["demoted"])
        )
        reduced = plan.csr.subgraph_from_edge_ids(kept_u, kept_v)
        return reduced, stats
