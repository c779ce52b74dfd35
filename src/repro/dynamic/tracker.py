"""Growable array-native Δ state for a *mutating* original graph.

:class:`~repro.core.discrepancy.ArrayDegreeTracker` is frozen to one CSR
snapshot: its node ids, expectations ``p·deg_G(u)`` and edge-key universe
are fixed at construction, which is exactly right for offline shedding and
exactly wrong under churn, where every insert/delete moves *both* sides of
``dis(u) = deg_G'(u) − p·deg_G(u)``.

:class:`DynamicDegreeTracker` keeps the same flat-array layout (``deg``,
``current``, ``dis`` per integer id) but lets the node universe grow
(amortized-doubling arrays, ids assigned in first-seen order so they always
mirror the live graph's insertion order) and maintains both sides of
``dis`` per operation:

* a **graph-side** event (edge inserted into / deleted from ``G``) moves
  ``p·deg``; :meth:`~repro.dynamic.IncrementalShedder.apply_ops` writes
  these inline, on the arrays, as its hot path;
* a **kept-side** event (edge admitted to / evicted from ``G'``) moves
  ``current`` through :meth:`DynamicDegreeTracker.kept_edge_added` /
  :meth:`DynamicDegreeTracker.kept_edge_removed`.

Every touched ``dis`` slot is rewritten as ``current − p·deg`` — the exact
product-and-subtract a from-scratch :func:`repro.core.compute_delta` would
perform, never an incremental float drift.  ``Δ`` itself is maintained two
ways: :attr:`approx_delta` is the O(1) running sum (used by the per-op
drift monitor; carries float-association noise of order 1e-12 per op), and
:meth:`exact_delta` re-sums ``Σ|current − p·deg|`` in id order, which is
**bit-identical** to ``compute_delta(G, G', p)`` on the live graphs — the
checkpoint contract the property suite pins.

Scoring (``add_change_ids`` / ``remove_change_ids`` / ``swap_change_ids``)
delegates to the shared formulas in :mod:`repro.core.discrepancy` at unit
weight, so the localized repair pass prices moves with the very arithmetic
the offline engines use.  This is the unit-weight growable variant: churn
moves degrees by whole edges, and probability mass stays with the offline
:class:`~repro.core.discrepancy.ArrayDegreeTracker`.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.core.discrepancy import (
    add_change_from_dis,
    remove_change_from_dis,
    swap_change_from_dis,
)
from repro.errors import InvalidRatioError
from repro.graph.graph import Graph, Node

__all__ = ["DynamicDegreeTracker"]

#: Initial array capacity for trackers seeded from an empty-ish graph.
_MIN_CAPACITY = 16


class DynamicDegreeTracker:
    """Per-node ``deg_G`` / ``deg_G'`` / ``dis`` arrays under live churn.

    Construct from the *current* original graph, then seed the kept side
    with :meth:`reset_kept`; thereafter the owner reports every mutation
    (graph-side ones inline on the arrays, kept-side ones through the two
    event methods).  The tracker never touches the graphs
    themselves — it is pure bookkeeping, and
    :class:`~repro.dynamic.IncrementalShedder` is the component that keeps
    the graphs and this state in lockstep.
    """

    def __init__(self, graph: Graph, p: float) -> None:
        if not 0.0 < p < 1.0:
            raise InvalidRatioError(p)
        self._p = float(p)
        n = graph.num_nodes
        capacity = max(_MIN_CAPACITY, n)
        #: label <-> id in first-seen order (== graph insertion order).
        self._labels: List[Node] = []
        self._index_of: Dict[Node, int] = {}
        #: int64 — live degree in G per id.
        self._deg = np.zeros(capacity, dtype=np.int64)
        #: int64 — live degree in G' per id.
        self._current = np.zeros(capacity, dtype=np.int64)
        #: float64 — current − p·deg, rewritten per touched slot.
        self._dis = np.zeros(capacity, dtype=np.float64)
        self._n = 0
        self._approx_delta = 0.0
        for node in graph.nodes():
            self.ensure_node(node)
        if n:
            degrees = np.fromiter(
                (graph.degree(node) for node in graph.nodes()), dtype=np.int64, count=n
            )
            self._deg[:n] = degrees
            self._dis[:n] = self._current[:n] - self._p * degrees
            self._approx_delta = float(np.abs(self._dis[:n]).sum())

    # ------------------------------------------------------------------
    # Node universe
    # ------------------------------------------------------------------

    @property
    def p(self) -> float:
        return self._p

    @property
    def num_nodes(self) -> int:
        return self._n

    def ensure_node(self, node: Node) -> int:
        """Return ``node``'s id, assigning the next one on first sight."""
        node_id = self._index_of.get(node)
        if node_id is not None:
            return node_id
        node_id = self._n
        if node_id == self._deg.shape[0]:
            self._grow()
        self._index_of[node] = node_id
        self._labels.append(node)
        self._n += 1
        # Fresh slots are already zeroed: deg = current = dis = 0.
        return node_id

    def _grow(self) -> None:
        capacity = 2 * self._deg.shape[0]
        for name in ("_deg", "_current", "_dis"):
            old = getattr(self, name)
            grown = np.zeros(capacity, dtype=old.dtype)
            grown[: old.shape[0]] = old
            setattr(self, name, grown)

    def id_of(self, node: Node) -> int:
        return self._index_of[node]

    def label_of(self, node_id: int) -> Node:
        return self._labels[node_id]

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------

    @property
    def approx_delta(self) -> float:
        """O(1) running ``Δ`` (float-association noise; see module doc)."""
        return self._approx_delta

    def exact_delta(self) -> float:
        """``Δ`` re-summed from scratch, bit-identical to ``compute_delta``.

        Same per-node term (``|current − p·deg|`` with ``p·deg`` formed as
        one product) and the same left-to-right id-order summation as
        :func:`repro.core.compute_delta` over the live graphs.  O(n).
        """
        n = self._n
        terms = np.abs(self._current[:n] - self._p * self._deg[:n])
        return float(sum(terms.tolist()))

    def graph_degree(self, node_id: int) -> int:
        """Live degree in ``G``."""
        return int(self._deg[node_id])

    def kept_degree(self, node_id: int) -> int:
        """Live degree in ``G'``."""
        return int(self._current[node_id])

    def dis(self, node_id: int) -> float:
        return float(self._dis[node_id])

    def dis_array(self) -> np.ndarray:
        """``float64[num_nodes]`` of live ``dis`` per id.  Treat as read-only."""
        return self._dis[: self._n]

    def capacity(self, node_id: int) -> int:
        """BM2's Phase-1 capacity ``b(u) = [p·deg_G(u)]`` at the live degree.

        ``p·deg ≥ 0``, so plain truncation of ``p·deg + 0.5`` equals
        :func:`~repro.core.discrepancy.round_half_up` — kept inline because
        this sits on the repair pass's hot path.
        """
        return int(self._p * self._deg[node_id] + 0.5)

    def spare_capacity(self, node_id: int) -> int:
        """``b(u) − deg_G'(u)``: admissions left before Phase 1 would refuse."""
        return int(self._p * self._deg[node_id] + 0.5) - int(self._current[node_id])

    def capacities(self, ids: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`capacity` (elementwise identical to the scalar)."""
        return np.floor(self._p * self._deg[ids] + 0.5).astype(np.int64)

    # ------------------------------------------------------------------
    # Kept-side events (the owner reports each G' mutation once)
    # ------------------------------------------------------------------

    def _retouch(self, u: int, v: int) -> None:
        """Rewrite two dis slots from their exact sides; update running Δ.

        The ``.item()`` pulls convert numpy scalars to native Python numbers
        up front so the arithmetic below runs on the fast scalar path.
        """
        dis, current, deg, p = self._dis, self._current, self._deg, self._p
        delta = self._approx_delta - abs(dis[u].item()) - abs(dis[v].item())
        new_u = current[u].item() - p * deg[u].item()
        new_v = current[v].item() - p * deg[v].item()
        dis[u] = new_u
        dis[v] = new_v
        self._approx_delta = delta + abs(new_u) + abs(new_v)

    def kept_edge_added(self, u: int, v: int) -> None:
        """An edge was admitted to ``G'``."""
        self._current[u] += 1
        self._current[v] += 1
        self._retouch(u, v)

    def kept_edge_removed(self, u: int, v: int) -> None:
        """An edge was evicted from ``G'``."""
        self._current[u] -= 1
        self._current[v] -= 1
        self._retouch(u, v)

    def reset_kept(self, reduced: Graph) -> None:
        """Resynchronise the kept side after a full rebuild replaced ``G'``."""
        n = self._n
        index_of = self._index_of
        current = np.zeros(n, dtype=np.int64)
        for a, b in reduced.edges():
            current[index_of[a]] += 1
            current[index_of[b]] += 1
        self._current[:n] = current
        self._dis[:n] = current - self._p * self._deg[:n]
        self._approx_delta = float(np.abs(self._dis[:n]).sum())

    # ------------------------------------------------------------------
    # Scoring (shared formulas at unit weight; see repro.core.discrepancy)
    # ------------------------------------------------------------------

    def add_change_ids(self, edge_u: np.ndarray, edge_v: np.ndarray) -> np.ndarray:
        """Vectorized Δ-change of admitting each edge (paper's ``d_2``)."""
        return add_change_from_dis(self._dis, edge_u, edge_v, 1.0)

    def remove_change_ids(self, edge_u: np.ndarray, edge_v: np.ndarray) -> np.ndarray:
        """Vectorized Δ-change of evicting each edge (paper's ``d_1``)."""
        return remove_change_from_dis(self._dis, edge_u, edge_v, 1.0)

    def swap_change_ids(
        self,
        out_u: np.ndarray,
        out_v: np.ndarray,
        in_u: np.ndarray,
        in_v: np.ndarray,
    ) -> np.ndarray:
        """Vectorized exact swap change (shared-endpoint positions exact)."""
        return swap_change_from_dis(self._dis, out_u, out_v, in_u, in_v, 1.0, 1.0)
