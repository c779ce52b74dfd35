"""Growable Δ state for a *mutating* original graph.

:class:`~repro.core.discrepancy.ArrayDegreeTracker` reads one CSR
snapshot: its node ids, expectations ``p·deg_G(u)`` and snapshot edge ids
are fixed at construction, which is right for offline shedding and wrong
under churn, where every insert/delete moves *both* sides of
``dis(u) = deg_G'(u) − p·deg_G(u)``.

:class:`DynamicDegreeTracker` keeps ``deg``, ``current`` (ints) and
``dis`` (floats) as Python lists indexed by integer id.  The node universe
grows by appending (ids assigned in first-seen order, so they always
mirror the live graph's insertion order), and both sides of ``dis`` are
maintained per operation:

* a **graph-side** event (edge inserted into / deleted from ``G``) moves
  ``p·deg``; :meth:`~repro.dynamic.IncrementalShedder.apply_ops` writes
  these inline, on the lists, as its hot path;
* a **kept-side** event (edge admitted to / evicted from ``G'``) moves
  ``current`` through :meth:`DynamicDegreeTracker.kept_edge_added` /
  :meth:`DynamicDegreeTracker.kept_edge_removed`.

Churn touches a handful of slots per op, where list items are native
Python numbers and numpy scalar indexing would cost more than the
arithmetic.  Every touched ``dis`` slot is rewritten as
``current − p·deg`` — the exact product-and-subtract a from-scratch
:func:`repro.core.compute_delta` would perform, never an incremental float
drift.  ``Δ`` itself is maintained two ways: :attr:`approx_delta` is the
O(1) running sum (used by the per-op drift monitor; carries
float-association noise of order 1e-12 per op, and is seeded by numpy's
pairwise ``Σ|dis|`` at construction and on :meth:`reset_kept`), and
:meth:`exact_delta` re-sums ``Σ|current − p·deg|`` in id order, which is
**bit-identical** to ``compute_delta(G, G', p)`` on the live graphs — the
checkpoint contract the property suite pins.

:class:`~repro.dynamic.LocalRepairer` scores its moves from these lists
with the paper's unit-weight ``d_1``/``d_2`` expressions.  This is the
unit-weight growable variant: churn moves degrees by whole edges, and
probability mass stays with the offline
:class:`~repro.core.discrepancy.ArrayDegreeTracker`.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.errors import InvalidRatioError
from repro.graph.graph import Graph, Node

__all__ = ["DynamicDegreeTracker"]


class DynamicDegreeTracker:
    """Per-node ``deg_G`` / ``deg_G'`` / ``dis`` lists under live churn.

    Construct from the *current* original graph, then seed the kept side
    with :meth:`reset_kept`; thereafter the owner reports every mutation
    (graph-side ones inline on the lists, kept-side ones through the two
    event methods).  The tracker never touches the graphs
    themselves — it is pure bookkeeping, and
    :class:`~repro.dynamic.IncrementalShedder` is the component that keeps
    the graphs and this state in lockstep.  The lists are only ever
    updated in place, so an owner may hold them across node growth and
    :meth:`reset_kept`.
    """

    def __init__(self, graph: Graph, p: float) -> None:
        if not 0.0 < p < 1.0:
            raise InvalidRatioError(p)
        self._p = p = float(p)
        #: label <-> id in first-seen order (== graph insertion order).
        self._labels: List[Node] = list(graph.nodes())
        self._index_of: Dict[Node, int] = {
            node: node_id for node_id, node in enumerate(self._labels)
        }
        #: live degree in G per id.
        self._deg: List[int] = [graph.degree(node) for node in self._labels]
        #: live degree in G' per id.
        self._current: List[int] = [0] * len(self._labels)
        #: current − p·deg, rewritten per touched slot (here current = 0,
        #: and ``0 − p·0`` is +0.0 where ``−p·0`` would be −0.0).
        self._dis: List[float] = [0 - p * d for d in self._deg]
        self._approx_delta = _pairwise_abs_sum(self._dis)

    # ------------------------------------------------------------------
    # Node universe
    # ------------------------------------------------------------------

    @property
    def p(self) -> float:
        return self._p

    @property
    def num_nodes(self) -> int:
        return len(self._labels)

    def ensure_node(self, node: Node) -> int:
        """Return ``node``'s id, assigning the next one on first sight."""
        node_id = self._index_of.get(node)
        if node_id is not None:
            return node_id
        node_id = len(self._labels)
        self._index_of[node] = node_id
        self._labels.append(node)
        self._deg.append(0)
        self._current.append(0)
        self._dis.append(0.0)
        return node_id

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
        p = self._p
        return float(sum([abs(c - p * d) for c, d in zip(self._current, self._deg)]))

    def graph_degree(self, node_id: int) -> int:
        """Live degree in ``G``."""
        return self._deg[node_id]

    def kept_degree(self, node_id: int) -> int:
        """Live degree in ``G'``."""
        return self._current[node_id]

    def dis(self, node_id: int) -> float:
        return self._dis[node_id]

    def dis_array(self) -> np.ndarray:
        """``float64[num_nodes]`` copy of the live ``dis`` per id."""
        return np.array(self._dis, dtype=np.float64)

    def capacity(self, node_id: int) -> int:
        """BM2's Phase-1 capacity ``b(u) = [p·deg_G(u)]`` at the live degree.

        ``p·deg ≥ 0``, so plain truncation of ``p·deg + 0.5`` equals
        :func:`~repro.core.discrepancy.round_half_up`.
        """
        return int(self._p * self._deg[node_id] + 0.5)

    def spare_capacity(self, node_id: int) -> int:
        """``b(u) − deg_G'(u)``: admissions left before Phase 1 would refuse."""
        return int(self._p * self._deg[node_id] + 0.5) - self._current[node_id]

    # ------------------------------------------------------------------
    # Kept-side events (the owner reports each G' mutation once)
    # ------------------------------------------------------------------

    def _retouch(self, u: int, v: int) -> None:
        """Rewrite two dis slots from their exact sides; update running Δ."""
        dis, current, deg, p = self._dis, self._current, self._deg, self._p
        delta = self._approx_delta - abs(dis[u]) - abs(dis[v])
        new_u = current[u] - p * deg[u]
        new_v = current[v] - p * deg[v]
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
        index_of = self._index_of
        current = [0] * len(self._labels)
        for a, b in reduced.edges():
            current[index_of[a]] += 1
            current[index_of[b]] += 1
        p = self._p
        self._current[:] = current
        self._dis[:] = [c - p * d for c, d in zip(current, self._deg)]
        self._approx_delta = _pairwise_abs_sum(self._dis)


def _pairwise_abs_sum(values: List[float]) -> float:
    """``Σ|x|`` in numpy's pairwise order, the seed of :attr:`approx_delta`.

    Numpy's pairwise sum is not Python's left-to-right one, and every
    :class:`~repro.dynamic.DriftDecision` reports the running sum it seeds.
    """
    return float(np.abs(np.array(values, dtype=np.float64)).sum())
