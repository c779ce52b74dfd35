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
3. **Swap** (``1/2 < dis(w) ≤ 1``): a bounded batch of (kept incident
   edge out, reservoir candidate in) pairs is priced with the shared
   vectorized :meth:`~repro.dynamic.DynamicDegreeTracker.swap_change_ids`
   (exactly CRR's rewiring arithmetic); the best strictly Δ-improving,
   capacity-feasible pair is applied, at most one per repair call.

The move budgets are the module constants below; they are fixed, not
settable.  All candidate orderings are over integer node ids (sorted) or
the seeded reservoir sample — never raw set iteration order — so a seeded
run replays identically.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

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
    graphs, tracker and reservoir it already keeps in lockstep.  Every
    mutation performed here goes through the same (graph, tracker,
    reservoir) bookkeeping the maintainer's own ops use.
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
        self._calls = 0  # drives the probe/swap amortization intervals

    def rebind(self, reduced: Graph) -> None:
        """Point at the fresh ``G'`` a full rebuild produced."""
        self._reduced = reduced

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def repair(
        self, touched: Tuple[int, ...], promote_hints: Tuple[bool, ...]
    ) -> Dict[str, int]:
        """Run demote → promote → swap around ``touched``; return move counts.

        ``promote_hints`` marks the touched nodes whose spare capacity the
        operation *increased* — only those (plus any node demotion freed
        capacity at) can have newly become able to admit a held-back
        incident edge, so the local-promotion scan is skipped elsewhere.
        """
        self._calls += 1
        counts = {"demoted": 0, "promoted": 0, "swapped": 0}
        demote_freed = []
        for node_id in touched:
            demoted = self._demote(node_id)
            demote_freed.append(demoted > 0)
            counts["demoted"] += demoted
        for index, node_id in enumerate(touched):
            if promote_hints[index] or demote_freed[index]:
                counts["promoted"] += self._promote_local(node_id)
        if self._calls % _PROBE_INTERVAL == 0:
            counts["promoted"] += self._promote_reservoir()
        if self._calls % _SWAP_INTERVAL == 0:
            for node_id in touched:
                if self._swap(node_id):
                    counts["swapped"] += 1
                    break
        return counts

    # ------------------------------------------------------------------
    # Moves
    # ------------------------------------------------------------------

    def _kept_neighbor_ids(self, node_id: int) -> np.ndarray:
        """Sorted ids of ``node_id``'s neighbours in ``G'`` (deterministic)."""
        tracker = self._tracker
        label = tracker.label_of(node_id)
        ids = [tracker.id_of(x) for x in self._reduced.neighbors(label)]
        return np.sort(np.asarray(ids, dtype=np.int64))

    def _demote(self, node_id: int) -> int:
        """Evict best-``d_1`` kept edges until ``dis ≤ 1``."""
        tracker = self._tracker
        threshold = _DEMOTE_THRESHOLD + _EPSILON
        demoted = 0
        while tracker.dis(node_id) > threshold and tracker.kept_degree(node_id) > 0:
            neighbor_ids = self._kept_neighbor_ids(node_id)
            changes = tracker.remove_change_ids(
                np.full(neighbor_ids.shape[0], node_id, dtype=np.int64), neighbor_ids
            )
            other = int(neighbor_ids[int(np.argmin(changes))])
            self._evict(node_id, other)
            demoted += 1
        return demoted

    def _promote_local(self, node_id: int) -> int:
        """Admit held-back incident edges while capacities allow (best first)."""
        tracker = self._tracker
        spare = tracker.spare_capacity(node_id)
        if spare <= 0:
            return 0
        label = tracker.label_of(node_id)
        # Set difference in C: graph neighbours not currently kept.
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
        # Most Δ-reducing first.  This node's spare shrinks per admission
        # (tracked locally); each far endpoint appears at most once (simple
        # graph), so far spares can be batch-computed up front.
        changes = tracker.add_change_ids(
            np.full(candidates.shape[0], node_id, dtype=np.int64), candidates
        )
        far_spares = tracker.capacities(candidates) - tracker._current[candidates]
        order = np.argsort(changes, kind="stable")
        promoted = 0
        for k in order.tolist():
            if spare <= 0:
                break
            if far_spares[k] <= 0:
                continue
            self._admit(node_id, int(candidates[k]))
            spare -= 1
            promoted += 1
        return promoted

    def _promote_reservoir(self) -> int:
        """Probe a bounded reservoir sample; promote capacity-fitting edges.

        Runs on every op, so the validity test is inlined over the graphs'
        adjacency dicts rather than going through :meth:`_valid_candidate`.
        """
        reservoir = self._reservoir
        if len(reservoir) == 0:
            return 0
        tracker = self._tracker
        labels = tracker._labels
        graph_adj = self._graph._adj
        reduced_adj = self._reduced._adj
        promoted = 0
        for key in reservoir.probe(_RESERVOIR_PROBES):
            u, v = key
            lu, lv = labels[u], labels[v]
            if lv not in graph_adj[lu] or lv in reduced_adj[lu]:
                reservoir.discard(key)  # stale: left G or already kept
                continue
            if tracker.spare_capacity(u) > 0 and tracker.spare_capacity(v) > 0:
                reservoir.discard(key)
                self._admit(u, v)
                promoted += 1
        return promoted

    def _swap(self, node_id: int) -> bool:
        """Apply the best Δ-improving capacity-feasible (kept-out, reservoir-in) swap."""
        tracker = self._tracker
        if tracker.dis(node_id) <= 0.5 + _EPSILON:
            return False
        out_ids = self._kept_neighbor_ids(node_id)[:_SWAP_OUT_CANDIDATES]
        in_keys = [
            key
            for key in self._reservoir.probe(_SWAP_IN_CANDIDATES)
            if self._valid_candidate(*key)
        ]
        if out_ids.shape[0] == 0 or not in_keys:
            return False
        num_out, num_in = out_ids.shape[0], len(in_keys)
        out_u = np.repeat(np.full(num_out, node_id, dtype=np.int64), num_in)
        out_v = np.repeat(out_ids, num_in)
        in_u = np.tile(np.asarray([a for a, _ in in_keys], dtype=np.int64), num_out)
        in_v = np.tile(np.asarray([b for _, b in in_keys], dtype=np.int64), num_out)
        changes = tracker.swap_change_ids(out_u, out_v, in_u, in_v)
        for k in np.argsort(changes, kind="stable").tolist():
            if changes[k] >= -_EPSILON:
                return False
            ou, ov = int(out_u[k]), int(out_v[k])
            iu, iv = int(in_u[k]), int(in_v[k])
            if self._swap_feasible(ou, ov, iu, iv):
                self._evict(ou, ov)
                self._reservoir.discard(_key(iu, iv))
                self._admit(iu, iv)
                return True
        return False

    # ------------------------------------------------------------------
    # Shared mutation plumbing
    # ------------------------------------------------------------------

    def _valid_candidate(self, u: int, v: int) -> bool:
        """Held-back means: still an edge of ``G`` and not already kept."""
        tracker = self._tracker
        lu, lv = tracker.label_of(u), tracker.label_of(v)
        return self._graph.has_edge(lu, lv) and not self._reduced.has_edge(lu, lv)

    def _swap_feasible(self, out_u: int, out_v: int, in_u: int, in_v: int) -> bool:
        """Would the in-edge fit both capacities once the out-edge is gone?"""
        tracker = self._tracker
        for endpoint in (in_u, in_v):
            freed = (endpoint == out_u) + (endpoint == out_v)
            if tracker.spare_capacity(endpoint) + freed <= 0:
                return False
        return True

    def _admit(self, u: int, v: int) -> None:
        tracker = self._tracker
        self._reduced.add_edge(tracker.label_of(u), tracker.label_of(v))
        tracker.kept_edge_added(u, v)

    def _evict(self, u: int, v: int) -> None:
        tracker = self._tracker
        self._reduced.remove_edge(tracker.label_of(u), tracker.label_of(v))
        tracker.kept_edge_removed(u, v)
        self._reservoir.offer(_key(u, v))


def _key(u: int, v: int) -> Tuple[int, int]:
    """Canonical id-tuple key for reservoir membership."""
    return (u, v) if u < v else (v, u)
