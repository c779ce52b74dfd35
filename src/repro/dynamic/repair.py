"""Localized Δ-repair around the nodes an operation touched.

After each insert/delete the maintainer calls :meth:`LocalRepairer.repair`
with the (two) touched node ids.  Repair is deliberately *local* — it looks
only at the touched nodes' incident edges plus a bounded random probe of
the held-back reservoir — so its cost is O(deg) per op, never O(|E|).
Three moves, applied in invariant-first order:

1. **Demote** (``dis(w) > 1``): a deletion in ``G`` shrinks
   ``p·deg(w)`` under a fixed kept degree, which can push ``dis(w)`` above
   the per-node guarantee a BM2 seed provides (``dis < 1``, Lemmas 1-2).
   Evicting the incident kept edge with the best (most negative) ``d_1``
   restores it; evicted edges enter the reservoir for later promotion.
2. **Promote** (spare Phase-1 capacity at a touched node): admit held-back
   incident edges — and a bounded probe of reservoir candidates — while
   *both* endpoints sit strictly below their live capacities
   ``b(u) = [p·deg_G(u)]``.  Below-capacity means ``dis ≤ −1/2`` at both
   ends, so a capacity-based promotion never increases ``Δ`` and keeps
   BM2's Phase-1 admission invariant intact.
3. **Swap** (``1/2 < dis(w) ≤ 1``): a bounded grid of (kept incident
   edge out, reservoir candidate in) pairs is priced with CRR's rewiring
   arithmetic (``d_1 + d_2`` for disjoint edges,
   :func:`~repro.core.discrepancy.swap_change_scalar_from_dis` when they
   share an endpoint); the best strictly Δ-improving, capacity-feasible
   pair is applied, at most one per repair call.

A move considers a few dozen candidates at most, so each is scored with
scalar ``d_1``/``d_2`` expressions over the tracker's ``dis`` list, in
the association order of the vectorized formulas in
:mod:`repro.core.discrepancy`; ties go to the lower node id (or grid
position), as a stable sort over id-sorted candidates would give.

The move budgets are the module constants below; they are fixed, not
settable.  All candidate orderings are over integer node ids or the
seeded reservoir sample — never raw set iteration order — so a seeded
run replays identically.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.discrepancy import swap_change_scalar_from_dis
from repro.graph.graph import Graph
from repro.streaming.shedder import EdgeReservoir
from repro.dynamic.tracker import DynamicDegreeTracker

__all__ = ["LocalRepairer"]

#: Float-noise guard mirroring the offline engines' thresholds; a swap must
#: also improve Δ by more than this.
_EPSILON = 1e-9
#: Per-node ``dis`` ceiling restored by demotion.  1.0 is the BM2 per-node
#: guarantee (Phase 2 leaves every node with ``dis < 1``), so a BM2-seeded
#: maintainer preserves that guarantee at every step.
_DEMOTE_THRESHOLD = 1.0
_DEMOTE_CEILING = _DEMOTE_THRESHOLD + _EPSILON
#: Reservoir candidates probed for promotion per probing call (stale
#: entries found probing are dropped).  Local promotion does most of the Δ
#: work under churn, so the probe budget is small.
_RESERVOIR_PROBES = 2
#: Reservoir probing runs on every 4th repair call.  Probing is a
#: background drain of leftover promotable edges — anything an op *newly*
#: enables is incident to a hinted node and caught by local promotion — so
#: it amortizes cleanly.
_PROBE_INTERVAL = 4
#: Surplus-node swap pricing runs on every 8th repair call.  Pricing is the
#: most expensive repair move and improving pairs are rare, so it amortizes
#: like probing does.
_SWAP_INTERVAL = 8
#: Kept incident edges and reservoir candidates priced per surplus node.
_SWAP_OUT_CANDIDATES = 32
_SWAP_IN_CANDIDATES = 16


class LocalRepairer:
    """Applies the three localized repair moves for one maintainer.

    Owns no state beyond references: the maintainer hands it the live
    graphs, tracker and reservoir it already keeps in lockstep, and the
    moves read the tracker's lists directly (the tracker only updates
    them in place).  Every mutation performed here goes through the same
    (graph, tracker, reservoir) bookkeeping the maintainer's own ops use.
    """

    def __init__(
        self,
        graph: Graph,
        reduced: Graph,
        tracker: DynamicDegreeTracker,
        reservoir: EdgeReservoir,
    ) -> None:
        self._graph = graph
        self._reduced = reduced
        self._tracker = tracker
        self._reservoir = reservoir
        self._p = tracker.p
        self._labels = tracker._labels
        self._index_of = tracker._index_of
        self._deg = tracker._deg
        self._current = tracker._current
        self._dis = tracker._dis
        self._calls = 0  # drives the probe/swap amortization intervals

    def rebind(self, reduced: Graph) -> None:
        """Point at the fresh ``G'`` a full rebuild produced."""
        self._reduced = reduced

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def repair(
        self, touched: Tuple[int, ...], promote_hints: Tuple[bool, ...]
    ) -> Tuple[int, int, int]:
        """Run demote → promote → swap around ``touched``.

        Returns the ``(demoted, promoted, swapped)`` move counts.
        ``promote_hints`` marks the touched nodes whose spare capacity the
        operation *increased* — only those (plus any node demotion freed
        capacity at) can have newly become able to admit a held-back
        incident edge, so the local-promotion scan is skipped elsewhere.
        """
        self._calls += 1
        dis = self._dis
        demoted = promoted = swapped = 0
        hints = list(promote_hints)
        for index, node_id in enumerate(touched):
            if dis[node_id] > _DEMOTE_CEILING:
                count = self._demote(node_id)
                if count:
                    demoted += count
                    hints[index] = True
        for node_id, hinted in zip(touched, hints):
            if hinted:
                promoted += self._promote_local(node_id)
        if self._calls % _PROBE_INTERVAL == 0:
            promoted += self._promote_reservoir()
        if self._calls % _SWAP_INTERVAL == 0:
            for node_id in touched:
                if self._swap(node_id):
                    swapped = 1
                    break
        return demoted, promoted, swapped

    # ------------------------------------------------------------------
    # Moves
    # ------------------------------------------------------------------

    def _kept_neighbor_ids(self, node_id: int) -> List[int]:
        """Sorted ids of ``node_id``'s neighbours in ``G'`` (deterministic)."""
        index_of = self._index_of
        return sorted([index_of[x] for x in self._reduced._adj[self._labels[node_id]]])

    def _demote(self, node_id: int) -> int:
        """Evict best-``d_1`` kept edges until ``dis ≤ 1``.

        ``d_1 = |du − 1| + |dv − 1| − (|du| + |dv|)`` over the id-sorted
        kept neighbours ``v``; the first minimum goes.
        """
        dis, current = self._dis, self._current
        demoted = 0
        while dis[node_id] > _DEMOTE_CEILING and current[node_id] > 0:
            du = dis[node_id]
            drop, stay = abs(du - 1.0), abs(du)
            other = min(
                self._kept_neighbor_ids(node_id),
                key=lambda v: drop + abs(dis[v] - 1.0) - (stay + abs(dis[v])),
            )
            self._evict(node_id, other)
            demoted += 1
        return demoted

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
        label = self._labels[node_id]
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
            self._admit(node_id, v)
        return len(admitted)

    def _promote_reservoir(self) -> int:
        """Probe a bounded reservoir sample; promote capacity-fitting edges.

        The validity test is inlined over the graphs' adjacency dicts
        rather than going through :meth:`_valid_candidate`.
        """
        reservoir = self._reservoir
        if len(reservoir) == 0:
            return 0
        p, deg, current, labels = self._p, self._deg, self._current, self._labels
        graph_adj = self._graph._adj
        reduced_adj = self._reduced._adj
        promoted = 0
        for key in reservoir.probe(_RESERVOIR_PROBES):
            u, v = key
            lu, lv = labels[u], labels[v]
            if lv not in graph_adj[lu] or lv in reduced_adj[lu]:
                reservoir.discard(key)  # stale: left G or already kept
                continue
            if int(p * deg[u] + 0.5) > current[u] and int(p * deg[v] + 0.5) > current[v]:
                reservoir.discard(key)
                self._admit(u, v)
                promoted += 1
        return promoted

    def _swap(self, node_id: int) -> bool:
        """Apply the best Δ-improving capacity-feasible (kept-out, reservoir-in) swap.

        Prices the out×in grid out-edge-major, as CRR's rewiring does:
        ``d_1`` of the out-edge plus ``d_2``'s terms of the in-edge, or the
        exact joint change where the two share an endpoint.
        """
        dis = self._dis
        if dis[node_id] <= 0.5 + _EPSILON:
            return False
        out_ids = self._kept_neighbor_ids(node_id)[:_SWAP_OUT_CANDIDATES]
        in_keys = [
            key
            for key in self._reservoir.probe(_SWAP_IN_CANDIDATES)
            if self._valid_candidate(*key)
        ]
        if not out_ids or not in_keys:
            return False
        in_terms = [
            (iu, iv, abs(dis[iu] + 1.0), abs(dis[iv] + 1.0), abs(dis[iu]) + abs(dis[iv]))
            for iu, iv in in_keys
        ]
        du = dis[node_id]
        drop, stay = abs(du - 1.0), abs(du)
        threshold = -_EPSILON
        improving = []
        position = 0
        for ov in out_ids:
            dv = dis[ov]
            out_change = drop + abs(dv - 1.0) - (stay + abs(dv))
            for iu, iv, grow_u, grow_v, stay_in in in_terms:
                if node_id == iu or node_id == iv or ov == iu or ov == iv:
                    change = swap_change_scalar_from_dis(dis, node_id, ov, iu, iv, 1.0, 1.0)
                else:
                    change = out_change + grow_u + grow_v - stay_in
                if change < threshold:
                    improving.append((change, position, ov, iu, iv))
                position += 1
        improving.sort()
        for _, _, ov, iu, iv in improving:
            if self._swap_feasible(node_id, ov, iu, iv):
                self._evict(node_id, ov)
                self._reservoir.discard(_key(iu, iv))
                self._admit(iu, iv)
                return True
        return False

    # ------------------------------------------------------------------
    # Shared mutation plumbing
    # ------------------------------------------------------------------

    def _valid_candidate(self, u: int, v: int) -> bool:
        """Held-back means: still an edge of ``G`` and not already kept."""
        lu, lv = self._labels[u], self._labels[v]
        return self._graph.has_edge(lu, lv) and not self._reduced.has_edge(lu, lv)

    def _swap_feasible(self, out_u: int, out_v: int, in_u: int, in_v: int) -> bool:
        """Would the in-edge fit both capacities once the out-edge is gone?"""
        p, deg, current = self._p, self._deg, self._current
        for endpoint in (in_u, in_v):
            freed = (endpoint == out_u) + (endpoint == out_v)
            if int(p * deg[endpoint] + 0.5) - current[endpoint] + freed <= 0:
                return False
        return True

    def _admit(self, u: int, v: int) -> None:
        labels = self._labels
        self._reduced.add_edge(labels[u], labels[v])
        self._tracker.kept_edge_added(u, v)

    def _evict(self, u: int, v: int) -> None:
        labels = self._labels
        self._reduced.remove_edge(labels[u], labels[v])
        self._tracker.kept_edge_removed(u, v)
        self._reservoir.offer(_key(u, v))


def _key(u: int, v: int) -> Tuple[int, int]:
    """Canonical id-tuple key for reservoir membership."""
    return (u, v) if u < v else (v, u)
