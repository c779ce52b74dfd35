"""Per-op churn reference for :meth:`IncrementalShedder.apply_ops`.

:meth:`repro.dynamic.IncrementalShedder.apply_ops` is the one runtime
implementation of a churn op.  It inlines the tracker's graph-side
arithmetic and the drift policy, and buffers stats and version checks
across a batch.  The functions here are the plain per-op version it is
pinned against: they drive an :class:`IncrementalShedder`'s own graphs,
tracker, reservoir, repairer and drift monitor one op at a time, through
``Graph.add_edge``/``remove_edge``, the tracker's event methods and
:meth:`DriftMonitor.observe`.

* :func:`insert` / :func:`delete` / :func:`apply` / :func:`replay` — one
  op, or a stream of them, with the same errors strict ``apply_ops``
  raises;
* :func:`graph_edge_added` / :func:`graph_edge_removed` — the tracker's
  graph-side events, which ``apply_ops`` writes inline on the arrays.
"""

from __future__ import annotations

from typing import Iterable, Tuple

from repro.dynamic import DriftDecision, DynamicDegreeTracker, IncrementalShedder
from repro.dynamic.maintainer import ChurnOp
from repro.dynamic.repair import _key
from repro.errors import EdgeNotFoundError, ReductionError, SelfLoopError
from repro.graph.graph import Node

__all__ = [
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
        shedder.reservoir.offer(_key(tu, tv))
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
        shedder.reservoir.discard(_key(tu, tv))
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
        counts = shedder._repairer.repair(touched, hints)
        stats["demoted"] += counts["demoted"]
        stats["promoted"] += counts["promoted"]
        stats["swapped"] += counts["swapped"]
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
