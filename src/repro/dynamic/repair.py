"""Localized Δ-repair around the nodes an operation touched.

After each insert/delete the maintainer calls :meth:`LocalRepairer.repair`
with the (two) touched node ids.  Repair is deliberately *local* — it looks
only at the incident edges of the nodes whose state the op changed — so
its cost is O(deg) per op, never O(|E|).  Two moves, in this order:

1. **Demote** (``dis(w) > 1``): a deletion in ``G`` shrinks
   ``p·deg(w)`` under a fixed kept degree, which can push ``dis(w)`` above
   the per-node guarantee a BM2 seed provides (``dis < 1``, Lemmas 1-2).
   Evicting the incident kept edge with the best (most negative) ``d_1``
   restores it.  Evicted edges stay in ``G ∖ G'``.
2. **Promote** wherever spare capacity grew: at each touched node the op
   hinted, then at the far endpoint of every edge a demotion evicted, in
   eviction order.  Held-back incident edges are admitted while *both*
   endpoints sit strictly below their live capacities
   ``b(u) = [p·deg_G(u)]``.  Below-capacity means ``dis ≤ −1/2`` at both
   ends, so a promotion never increases ``Δ`` and keeps BM2's Phase-1
   admission invariant intact.

An edge of ``G ∖ G'`` can only gain spare capacity at both ends where an
op or an eviction raised it, and those are exactly the nodes promoted at
(a demoted node itself ends with none: its last eviction still leaves
``current > p·deg``).  So a maintainer whose ``G'`` is a maximal
b-matching under ``b`` — a BM2 seed or rebuild — keeps it maximal after
every op: no held-back edge has spare capacity at both endpoints, and
``dis ≤ 1`` everywhere.

A move considers a few dozen candidates at most, so each is scored with
scalar ``d_1``/``d_2`` expressions over the tracker's ``dis`` list, in
the association order of the vectorized formulas in
:mod:`repro.core.discrepancy`; ties go to the lower node id, as a stable
sort over id-sorted candidates would give.  Nothing is random, so a run
replays identically.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.graph.graph import Graph
from repro.dynamic.tracker import DynamicDegreeTracker

__all__ = ["LocalRepairer"]

#: Float-noise guard mirroring the offline engines' thresholds.
_EPSILON = 1e-9
#: Per-node ``dis`` ceiling restored by demotion.  1.0 is the BM2 per-node
#: guarantee (Phase 2 leaves every node with ``dis < 1``), so a BM2-seeded
#: maintainer preserves that guarantee at every step.
_DEMOTE_THRESHOLD = 1.0
_DEMOTE_CEILING = _DEMOTE_THRESHOLD + _EPSILON


class LocalRepairer:
    """Applies the two localized repair moves for one maintainer.

    Owns no state beyond references: the maintainer hands it the live
    graphs and tracker it already keeps in lockstep, and the moves read
    the tracker's lists directly (the tracker only updates them in
    place).  Every mutation performed here goes through the same
    (graph, tracker) bookkeeping the maintainer's own ops use.
    """

    def __init__(
        self, graph: Graph, reduced: Graph, tracker: DynamicDegreeTracker
    ) -> None:
        self._graph = graph
        self._reduced = reduced
        self._tracker = tracker
        self._p = tracker.p
        self._labels = tracker._labels
        self._index_of = tracker._index_of
        self._deg = tracker._deg
        self._current = tracker._current
        self._dis = tracker._dis

    def rebind(self, reduced: Graph) -> None:
        """Point at the fresh ``G'`` a full rebuild produced."""
        self._reduced = reduced

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def repair(
        self, touched: Tuple[int, ...], promote_hints: Tuple[bool, ...]
    ) -> Tuple[int, int]:
        """Demote at ``touched``, then promote wherever spare capacity grew.

        Returns the ``(demoted, promoted)`` move counts.
        ``promote_hints`` marks the touched nodes whose spare capacity the
        operation *increased*; every demotion increases it at the evicted
        edge's far endpoint.  Only those nodes can have newly become able
        to admit a held-back incident edge.
        """
        dis = self._dis
        freed: List[int] = []
        for node_id in touched:
            if dis[node_id] > _DEMOTE_CEILING:
                freed += self._demote(node_id)
        promoted = 0
        for node_id, hinted in zip(touched, promote_hints):
            if hinted:
                promoted += self._promote_local(node_id)
        for node_id in freed:
            promoted += self._promote_local(node_id)
        return len(freed), promoted

    # ------------------------------------------------------------------
    # Moves
    # ------------------------------------------------------------------

    def _demote(self, node_id: int) -> List[int]:
        """Evict best-``d_1`` kept edges until ``dis ≤ 1``; return their far ends.

        ``d_1 = |du − 1| + |dv − 1| − (|du| + |dv|)`` over the id-sorted
        kept neighbours ``v``; the first minimum goes.
        """
        dis, current = self._dis, self._current
        index_of, labels = self._index_of, self._labels
        evicted: List[int] = []
        while dis[node_id] > _DEMOTE_CEILING and current[node_id] > 0:
            du = dis[node_id]
            drop, stay = abs(du - 1.0), abs(du)
            kept = sorted([index_of[x] for x in self._reduced._adj[labels[node_id]]])
            other = min(
                kept, key=lambda v: drop + abs(dis[v] - 1.0) - (stay + abs(dis[v]))
            )
            self._reduced.remove_edge(labels[node_id], labels[other])
            self._tracker.kept_edge_removed(node_id, other)
            evicted.append(other)
        return evicted

    def _promote_local(self, node_id: int) -> int:
        """Admit held-back incident edges while capacities allow (best ``d_2`` first).

        Only held-back neighbours with spare capacity are scored, with
        ``d_2 = |du + 1| + |dv + 1| − (|du| + |dv|)`` against the state
        before any admission; ties go to the lower id.  An admission moves
        only ``node_id`` and that neighbour, so the other neighbours'
        spares and scores stay as read.
        """
        p, deg, current = self._p, self._deg, self._current
        spare = int(p * deg[node_id] + 0.5) - current[node_id]
        if spare <= 0:
            return 0
        labels = self._labels
        label = labels[node_id]
        # Set difference in C: graph neighbours not currently kept.
        held_back = self._graph._adj[label].keys() - self._reduced._adj[label].keys()
        if not held_back:
            return 0
        index_of, dis = self._index_of, self._dis
        du = dis[node_id]
        grow, stay = abs(du + 1.0), abs(du)
        scored = []
        for x in held_back:
            v = index_of[x]
            if int(p * deg[v] + 0.5) > current[v]:
                dv = dis[v]
                scored.append((grow + abs(dv + 1.0) - (stay + abs(dv)), v))
        scored.sort()
        admitted = scored[:spare]
        for _, v in admitted:
            self._reduced.add_edge(label, labels[v])
            self._tracker.kept_edge_added(node_id, v)
        return len(admitted)
