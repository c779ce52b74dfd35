"""Per-op churn reference for :meth:`IncrementalShedder.apply_ops`.

:meth:`repro.dynamic.IncrementalShedder.apply_ops` is the one runtime
implementation of a churn op.  It inlines the tracker's graph-side
arithmetic and the drift policy, and buffers stats and version checks
across a batch.  The functions here are the plain per-op version it is
pinned against: they drive an :class:`IncrementalShedder`'s own graphs,
tracker, repairer and drift monitor one op at a time, through
``Graph.add_edge``/``remove_edge``, the tracker's event methods and
:meth:`DriftMonitor.observe`.

* :func:`insert` / :func:`delete` / :func:`apply` / :func:`replay` — one
  op, or a stream of them, with the same errors strict ``apply_ops``
  raises;
* :func:`graph_edge_added` / :func:`graph_edge_removed` — the tracker's
  graph-side events, which ``apply_ops`` writes inline on the lists;
* :class:`ReferenceRepairer` — :class:`repro.dynamic.LocalRepairer`'s
  two moves scored with the vectorized formulas
  (``add_change_from_dis`` and ``remove_change_from_dis``) over a
  ``float64`` copy of the tracker's ``dis``, picked with ``np.argmin``
  and ``np.argsort(kind="stable")`` over id-sorted candidates.  The
  runtime repairer scores the same candidates with scalar expressions and
  must make the same moves in the same order.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

import numpy as np

from repro.core.discrepancy import add_change_from_dis, remove_change_from_dis
from repro.dynamic import DriftDecision, DynamicDegreeTracker, IncrementalShedder
from repro.dynamic.maintainer import ChurnOp
from repro.dynamic.repair import _DEMOTE_THRESHOLD, _EPSILON
from repro.errors import EdgeNotFoundError, ReductionError, SelfLoopError
from repro.graph.graph import Graph, Node

__all__ = [
    "ReferenceRepairer",
    "apply",
    "delete",
    "graph_edge_added",
    "graph_edge_removed",
    "insert",
    "replay",
]


def graph_edge_added(tracker: DynamicDegreeTracker, u: int, v: int) -> None:
    """An edge joined ``G``: both expectations rise by ``p``."""
    tracker._deg[u] += 1
    tracker._deg[v] += 1
    tracker._retouch(u, v)


def graph_edge_removed(tracker: DynamicDegreeTracker, u: int, v: int) -> None:
    """An edge left ``G``: both expectations drop by ``p``."""
    tracker._deg[u] -= 1
    tracker._deg[v] -= 1
    tracker._retouch(u, v)


def insert(shedder: IncrementalShedder, u: Node, v: Node) -> DriftDecision:
    """Insert edge ``(u, v)`` into ``G``; admit to ``G'`` if capacity fits."""
    shedder._check_versions()
    if u == v:
        raise SelfLoopError(u)
    if shedder.graph.has_edge(u, v):
        raise ReductionError(f"edge ({u!r}, {v!r}) already in the graph")
    # Id assignment mirrors Graph.add_edge's add_node(u); add_node(v) so
    # tracker ids stay in graph insertion order (exact_delta contract).
    tracker = shedder.tracker
    tu = tracker.ensure_node(u)
    tv = tracker.ensure_node(v)
    shedder.graph.add_edge(u, v)
    reduced = shedder.reduced
    reduced.add_node(u)
    reduced.add_node(v)
    cap_u, cap_v = tracker.capacity(tu), tracker.capacity(tv)
    graph_edge_added(tracker, tu, tv)
    new_cap_u, new_cap_v = tracker.capacity(tu), tracker.capacity(tv)
    if new_cap_u > tracker.kept_degree(tu) and new_cap_v > tracker.kept_degree(tv):
        reduced.add_edge(u, v)
        tracker.kept_edge_added(tu, tv)
        shedder.stats["admitted"] += 1
        # Admission spends the grown capacity: no promotion hint.
        hints = (False, False)
    else:
        shedder.stats["rejected"] += 1
        hints = (new_cap_u > cap_u, new_cap_v > cap_v)
    shedder.stats["inserts"] += 1
    return _after_op(shedder, (tu, tv), hints)


def delete(shedder: IncrementalShedder, u: Node, v: Node) -> DriftDecision:
    """Delete edge ``(u, v)`` from ``G`` (and from ``G'`` if kept)."""
    shedder._check_versions()
    if not shedder.graph.has_edge(u, v):
        raise EdgeNotFoundError(u, v)
    tracker = shedder.tracker
    tu = tracker.id_of(u)
    tv = tracker.id_of(v)
    reduced = shedder.reduced
    was_kept = reduced.has_edge(u, v)
    shedder.graph.remove_edge(u, v)
    cap_u, cap_v = tracker.capacity(tu), tracker.capacity(tv)
    graph_edge_removed(tracker, tu, tv)
    if was_kept:
        reduced.remove_edge(u, v)
        tracker.kept_edge_removed(tu, tv)
        shedder.stats["evicted"] += 1
        # Eviction frees a unit of kept degree; spare grows unless the
        # capacity shrank with the degree.
        hints = (tracker.capacity(tu) == cap_u, tracker.capacity(tv) == cap_v)
    else:
        hints = (False, False)
    shedder.stats["deletes"] += 1
    return _after_op(shedder, (tu, tv), hints)


def apply(shedder: IncrementalShedder, op: ChurnOp) -> DriftDecision:
    """Apply one ``("insert" | "delete", u, v)`` churn operation."""
    kind, u, v = op
    if kind == "insert":
        return insert(shedder, u, v)
    if kind == "delete":
        return delete(shedder, u, v)
    raise ReductionError(f"unknown churn op {kind!r} (expected 'insert' or 'delete')")


def replay(shedder: IncrementalShedder, ops: Iterable[ChurnOp]) -> None:
    """Apply a churn stream one op at a time."""
    for op in ops:
        apply(shedder, op)


def _after_op(
    shedder: IncrementalShedder, touched: Tuple[int, int], hints: Tuple[bool, bool]
) -> DriftDecision:
    """Repair around ``touched``, consult the drift monitor, maybe rebuild."""
    stats = shedder.stats
    if shedder._repairer is not None:
        demoted, promoted = shedder._repairer.repair(touched, hints)
        stats["demoted"] += demoted
        stats["promoted"] += promoted
    stats["ops"] += 1
    graph = shedder.graph
    decision = shedder.monitor.observe(
        shedder.tracker.approx_delta, graph.num_nodes, graph.num_edges
    )
    if decision.rebuild:
        shedder.rebuild()
    else:
        shedder._sync_versions()
    return decision


class ReferenceRepairer:
    """The churn repair's moves scored with numpy over a copy of ``dis``.

    Same interface and move order as :class:`repro.dynamic.LocalRepairer`:
    demote at the touched nodes, promote at each touched node that was
    hinted or demoted, then at the far endpoint of every evicted edge in
    eviction order.  The runtime repairer skips the demoted touched
    nodes: demotion leaves them no spare capacity, so promoting there
    admits nothing, which this reference checks.  Install it on a
    maintainer with
    ``shedder._repairer = ReferenceRepairer(shedder.graph, shedder.reduced,
    shedder.tracker)`` before the first op.
    """

    def __init__(self, graph: Graph, reduced: Graph, tracker: DynamicDegreeTracker) -> None:
        self._graph = graph
        self._reduced = reduced
        self._tracker = tracker

    def rebind(self, reduced: Graph) -> None:
        self._reduced = reduced

    def repair(
        self, touched: Tuple[int, ...], promote_hints: Tuple[bool, ...]
    ) -> Tuple[int, int]:
        evicted_far: List[int] = []
        demote_freed = []
        for node_id in touched:
            far = self._demote(node_id)
            demote_freed.append(bool(far))
            evicted_far.extend(far)
        promoted = 0
        for index, node_id in enumerate(touched):
            if promote_hints[index] or demote_freed[index]:
                promoted += self._promote_local(node_id)
        for node_id in evicted_far:
            promoted += self._promote_local(node_id)
        return len(evicted_far), promoted

    def _kept_neighbor_ids(self, node_id: int) -> np.ndarray:
        tracker = self._tracker
        label = tracker.label_of(node_id)
        ids = [tracker.id_of(x) for x in self._reduced.neighbors(label)]
        return np.sort(np.asarray(ids, dtype=np.int64))

    def _demote(self, node_id: int) -> List[int]:
        tracker = self._tracker
        threshold = _DEMOTE_THRESHOLD + _EPSILON
        evicted = []
        while tracker.dis(node_id) > threshold and tracker.kept_degree(node_id) > 0:
            neighbor_ids = self._kept_neighbor_ids(node_id)
            dis = tracker.dis_array()
            changes = remove_change_from_dis(
                dis[np.full(neighbor_ids.shape[0], node_id, dtype=np.int64)],
                dis[neighbor_ids],
                1.0,
            )
            other = int(neighbor_ids[int(np.argmin(changes))])
            self._reduced.remove_edge(tracker.label_of(node_id), tracker.label_of(other))
            tracker.kept_edge_removed(node_id, other)
            evicted.append(other)
        return evicted

    def _promote_local(self, node_id: int) -> int:
        tracker = self._tracker
        spare = tracker.spare_capacity(node_id)
        if spare <= 0:
            return 0
        label = tracker.label_of(node_id)
        held_back = self._graph._adj[label].keys() - self._reduced._adj[label].keys()
        if not held_back:
            return 0
        index_of = tracker._index_of
        candidates = np.sort(
            np.fromiter(
                (index_of[x] for x in held_back),
                dtype=np.int64,
                count=len(held_back),
            )
        )
        dis = tracker.dis_array()
        changes = add_change_from_dis(
            dis[np.full(candidates.shape[0], node_id, dtype=np.int64)],
            dis[candidates],
            1.0,
        )
        degrees = np.asarray(tracker._deg, dtype=np.int64)[candidates]
        far_spares = (
            np.floor(tracker.p * degrees + 0.5).astype(np.int64)
            - np.asarray(tracker._current, dtype=np.int64)[candidates]
        )
        order = np.argsort(changes, kind="stable")
        promoted = 0
        for k in order.tolist():
            if spare <= 0:
                break
            if far_spares[k] <= 0:
                continue
            v = int(candidates[k])
            self._reduced.add_edge(label, tracker.label_of(v))
            tracker.kept_edge_added(node_id, v)
            spare -= 1
            promoted += 1
        return promoted
