"""Scalar oracles for the shedding cores: tracker, CRR, BM2 and matching.

These are the paper-shaped dict/heap implementations the array engines
in :mod:`repro.core` were built against.  They run only in tests and
micro-benchmarks, where they pin the runtime engines bit for bit:

* :class:`DegreeTracker` — dict-keyed ``dis``/``Δ`` bookkeeping, the
  reference for :class:`repro.core.discrepancy.ArrayDegreeTracker`;
* :func:`greedy_b_matching` — the single greedy scan of Algorithm 2,
  the reference for :func:`repro.graph.matching.greedy_b_matching_ids`;
* :func:`bipartite_repair` — Algorithm 3 as a lazy max-heap, and
  :func:`weighted_bipartite_repair_ids`, the same heap over
  expected-degree mass: the unit and weighted references for
  :func:`repro.core.bm2.bipartite_repair_ids`;
* :class:`LegacyCRRShedder` / :class:`LegacyBM2Shedder` — the label-space
  engines, which must keep exactly the edges ``CRRShedder`` /
  ``BM2Shedder`` keep;
* :func:`swap_change_from_dis` — the vectorized swap change over batches
  of id quadruples, which CRR's rewiring and the churn repair inline as
  scalar expressions.
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple
from unittest import mock

import numpy as np

from repro.core.base import timed_phase
from repro.core.bm2 import BM2Shedder, _gain_array, _snap, _weighted_gain
from repro.core.crr import _MIN_IMPROVEMENT, CRRShedder, IndexedEdgePool
from repro.core.discrepancy import (
    ArrayDegreeTracker,
    round_half_up,
    swap_change_scalar_from_dis,
)
from repro.errors import EdgeNotFoundError, GraphError, InvalidRatioError, ReductionError
from repro.graph.centrality import top_edges_by_betweenness
from repro.graph.graph import Edge, Graph, Node
from repro.rng import RandomState, ensure_rng

__all__ = [
    "DegreeTracker",
    "IdsView",
    "LabelTracker",
    "LegacyBM2Shedder",
    "LegacyCRRShedder",
    "bipartite_repair",
    "greedy_b_matching",
    "heap_repair",
    "heap_repair_ids",
    "swap_change_from_dis",
    "weighted_bipartite_repair_ids",
]


#: Scalar capacity rounding rules, one node at a time; the runtime's
#: vectorized rules must round every ``p·deg`` to the same integer.
_ROUNDING_RULES = {
    "half_up": round_half_up,
    "half_even": lambda x: int(round(x)),
    "floor": lambda x: int(x),
    "ceil": lambda x: -int(-x // 1),
}


def swap_change_from_dis(
    dis: np.ndarray,
    out_u: np.ndarray,
    out_v: np.ndarray,
    in_u: np.ndarray,
    in_v: np.ndarray,
    w_out: float | np.ndarray,
    w_in: float | np.ndarray,
) -> np.ndarray:
    """Vectorized exact swap change over batches of candidate swaps.

    The batched reference for the scalar swap pricing in CRR's rewiring
    (``repro.core.crr._run_swaps``) and the churn repair's swap move.

    ``w_out``/``w_in`` are ``1.0`` or float arrays aligned with the swaps.
    The vector expression is the disjoint-endpoint ``d_1 + d_2`` sum;
    positions where the outgoing and incoming edges share an endpoint
    (where that sum double-counts the shared node) are recomputed with
    the exact scalar joint formula.
    """
    d_ou, d_ov = dis[out_u], dis[out_v]
    d_iu, d_iv = dis[in_u], dis[in_v]
    change = (
        np.abs(d_ou - w_out)
        + np.abs(d_ov - w_out)
        - (np.abs(d_ou) + np.abs(d_ov))
        + np.abs(d_iu + w_in)
        + np.abs(d_iv + w_in)
        - (np.abs(d_iu) + np.abs(d_iv))
    )
    shared = (out_u == in_u) | (out_u == in_v) | (out_v == in_u) | (out_v == in_v)
    if shared.any():
        w_out = np.broadcast_to(w_out, change.shape)
        w_in = np.broadcast_to(w_in, change.shape)
        for k in np.nonzero(shared)[0].tolist():
            change[k] = swap_change_scalar_from_dis(
                dis,
                int(out_u[k]), int(out_v[k]), int(in_u[k]), int(in_v[k]),
                float(w_out[k]), float(w_in[k]),
            )
    return change


class DegreeTracker:
    """Incremental ``dis(u)`` / ``Δ`` state for a growing/shrinking edge set.

    Construct from the original graph and ratio ``p``; the tracked edge set
    starts empty (every node sits at ``dis(u) = −p·deg_G(u)``).  Feed edges
    through :meth:`add_edge` / :meth:`remove_edge`, or evaluate hypothetical
    moves with the ``*_change`` methods without mutating state.
    """

    def __init__(self, graph: Graph, p: float) -> None:
        if not 0.0 < p < 1.0:
            raise InvalidRatioError(p)
        self._graph = graph
        self._p = p
        #: node -> expected degree in the reduced graph (Equation 1)
        self._expected: Dict[Node, float] = {
            node: p * graph.degree(node) for node in graph.nodes()
        }
        #: node -> current degree in the tracked edge set
        self._current: Dict[Node, int] = dict.fromkeys(graph.nodes(), 0)
        self._edges: set[frozenset] = set()
        self._delta = sum(self._expected.values())

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------

    @property
    def p(self) -> float:
        return self._p

    @property
    def delta(self) -> float:
        """Current ``Δ`` over the tracked edge set."""
        return self._delta

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def expected_degree(self, node: Node) -> float:
        """``E(deg_G'(node)) = p · deg_G(node)``."""
        return self._expected[node]

    def current_degree(self, node: Node) -> int:
        return self._current[node]

    def dis(self, node: Node) -> float:
        """``dis(node)`` for the tracked edge set (Equation 3)."""
        return self._current[node] - self._expected[node]

    def has_edge(self, u: Node, v: Node) -> bool:
        return frozenset((u, v)) in self._edges

    def edges(self) -> Iterable[Tuple[Node, Node]]:
        """The tracked edges (arbitrary orientation)."""
        return [tuple(edge) for edge in self._edges]

    def average_delta(self) -> float:
        """``Δ / |V|`` — the per-node discrepancy the paper plots (Fig. 4/5)."""
        n = len(self._expected)
        if n == 0:
            return 0.0
        return self._delta / n

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add_edge(self, u: Node, v: Node) -> None:
        """Track edge ``(u, v)``; must exist in the original graph."""
        if not self._graph.has_edge(u, v):
            raise EdgeNotFoundError(u, v)
        key = frozenset((u, v))
        if key in self._edges:
            raise ReductionError(f"edge ({u!r}, {v!r}) is already tracked")
        self._delta += self.add_change(u, v)
        self._edges.add(key)
        self._current[u] += 1
        self._current[v] += 1

    def remove_edge(self, u: Node, v: Node) -> None:
        """Stop tracking edge ``(u, v)``."""
        key = frozenset((u, v))
        if key not in self._edges:
            raise EdgeNotFoundError(u, v)
        self._delta += self.remove_change(u, v)
        self._edges.discard(key)
        self._current[u] -= 1
        self._current[v] -= 1

    # ------------------------------------------------------------------
    # Hypothetical moves (no mutation)
    # ------------------------------------------------------------------

    def add_change(self, u: Node, v: Node) -> float:
        """Change in ``Δ`` if edge ``(u, v)`` were added.

        This is the paper's ``d_2 = |dis(x)+1| + |dis(y)+1| − (|dis(x)| + |dis(y)|)``.
        """
        du, dv = self.dis(u), self.dis(v)
        return abs(du + 1) + abs(dv + 1) - (abs(du) + abs(dv))

    def remove_change(self, u: Node, v: Node) -> float:
        """Change in ``Δ`` if edge ``(u, v)`` were removed.

        This is the paper's ``d_1 = |dis(u)−1| + |dis(v)−1| − (|dis(u)| + |dis(v)|)``.
        """
        du, dv = self.dis(u), self.dis(v)
        return abs(du - 1) + abs(dv - 1) - (abs(du) + abs(dv))

    def swap_change(self, edge_out: Edge, edge_in: Edge) -> float:
        """Exact change in ``Δ`` for removing ``edge_out`` and adding ``edge_in``.

        When the two edges share no endpoint this equals ``d_1 + d_2`` from
        Algorithm 1 lines 10-11.  When they share an endpoint the independent
        formulas double-count that node; this method computes the exact joint
        effect so CRR's accepted swaps can never increase ``Δ``.
        """
        (u, v), (x, y) = edge_out, edge_in
        touched = {u, v, x, y}
        shift: Dict[Node, int] = dict.fromkeys(touched, 0)
        shift[u] -= 1
        shift[v] -= 1
        shift[x] += 1
        shift[y] += 1
        change = 0.0
        for node in touched:
            before = self.dis(node)
            change += abs(before + shift[node]) - abs(before)
        return change

    def apply_swap(self, edge_out: Edge, edge_in: Edge) -> None:
        """Remove ``edge_out`` and add ``edge_in`` in one move."""
        self.remove_edge(*edge_out)
        self.add_edge(*edge_in)


class IdsView:
    """Duck-typed tracker facade whose node handles are CSR integer ids.

    :func:`bipartite_repair` only calls ``dis`` and ``add_edge``; this view
    lets it run over an :class:`ArrayDegreeTracker` with id tuples, mapping
    each pair to its snapshot edge id (a pair that is not an edge raises
    :class:`EdgeNotFoundError`).  ``dis`` values are bitwise identical to
    the dict tracker's (same ``int - float`` IEEE subtraction), so the
    repair heap makes bitwise-identical decisions.
    """

    __slots__ = ("_tracker",)

    def __init__(self, tracker: ArrayDegreeTracker) -> None:
        self._tracker = tracker

    def dis(self, node_id: int) -> float:
        return self._tracker.dis_list()[node_id]

    def add_edge(self, u: int, v: int) -> None:
        self._tracker.add_edge(_edge_id(self._tracker.csr, u, v))


def _edge_id(csr: Any, u: int, v: int) -> int:
    """The snapshot edge id of id pair ``(u, v)``; :class:`EdgeNotFoundError` if none."""
    return int(csr.existing_edge_ids(np.array([u]), np.array([v]))[0])


def _b_sides(tracker: ArrayDegreeTracker, cand_ids: np.ndarray, cand_a: np.ndarray) -> np.ndarray:
    """The B-side endpoint of each candidate edge, given its A side."""
    edge_u, edge_v = tracker.csr.edge_list_ids()
    end_u, end_v = edge_u[cand_ids], edge_v[cand_ids]
    assert bool(np.all((end_u == cand_a) | (end_v == cand_a)))
    return np.where(end_u == cand_a, end_v, end_u)


class LabelTracker:
    """An :class:`ArrayDegreeTracker` addressed by node labels.

    :class:`DegreeTracker`'s interface over a tracker built on
    ``graph.csr()``, so one label-keyed contract can run against both.
    Label pairs become snapshot edge ids at one boundary, where a pair
    that is not an edge raises :class:`EdgeNotFoundError`.  The scalar
    ``*_change`` formulas are the dict tracker's; the id API
    (``add_edge(e)``, ``add_edges``, ``dis_array``, ...) passes through
    to the wrapped tracker.
    """

    def __init__(self, graph: Graph, p: float, weighted: bool = False) -> None:
        self._csr = graph.csr()
        self.tracker = ArrayDegreeTracker(self._csr, p, weighted=weighted)

    def __getattr__(self, name: str) -> Any:
        return getattr(self.tracker, name)

    def _id(self, node: Node) -> int:
        return self._csr.index_of[node]

    def edge_id(self, u: Node, v: Node) -> int:
        """The snapshot edge id of label pair ``(u, v)``."""
        return _edge_id(self._csr, self._id(u), self._id(v))

    def _weight(self, u: Node, v: Node) -> float:
        tracker = self.tracker
        return tracker._weight_of[self.edge_id(u, v)] if tracker.weighted else 1

    def expected_degree(self, node: Node) -> float:
        return float(self.tracker._expected[self._id(node)])

    def current_degree(self, node: Node):
        value = self.tracker._current[self._id(node)]
        return float(value) if self.tracker.weighted else int(value)

    def dis(self, node: Node) -> float:
        return self.tracker.dis_list()[self._id(node)]

    def has_edge(self, u: Node, v: Node) -> bool:
        e = int(self._csr.edge_ids_of(np.array([self._id(u)]), np.array([self._id(v)]))[0])
        return e >= 0 and bool(self.tracker._kept[e])

    def edges(self) -> List[Tuple[Node, Node]]:
        edge_u, edge_v = self._csr.edge_list_ids()
        tracked = np.flatnonzero(self.tracker._kept_flags)
        labels = self._csr.labels
        return [(labels[u], labels[v]) for u, v in zip(edge_u[tracked], edge_v[tracked])]

    def average_delta(self) -> float:
        n = self.tracker.num_nodes
        return self.tracker.delta / n if n else 0.0

    def add_edge(self, u: Node, v: Node) -> None:
        self.tracker.add_edge(self.edge_id(u, v))

    def remove_edge(self, u: Node, v: Node) -> None:
        self.tracker.remove_edge(self.edge_id(u, v))

    def apply_swap(self, edge_out: Edge, edge_in: Edge) -> None:
        self.remove_edge(*edge_out)
        self.add_edge(*edge_in)

    def add_change(self, u: Node, v: Node) -> float:
        du, dv = self.dis(u), self.dis(v)
        w = self._weight(u, v)
        return abs(du + w) + abs(dv + w) - (abs(du) + abs(dv))

    def remove_change(self, u: Node, v: Node) -> float:
        du, dv = self.dis(u), self.dis(v)
        w = self._weight(u, v)
        return abs(du - w) + abs(dv - w) - (abs(du) + abs(dv))

    def swap_change(self, edge_out: Edge, edge_in: Edge) -> float:
        (u, v), (x, y) = edge_out, edge_in
        return swap_change_scalar_from_dis(
            self.tracker.dis_list(),
            self._id(u), self._id(v), self._id(x), self._id(y),
            self._weight(u, v), self._weight(x, y),
        )


def greedy_b_matching(
    graph: Graph,
    capacities: Mapping[Node, int],
    edge_order: Optional[Iterable[Edge]] = None,
    shuffle_seed: RandomState = None,
) -> List[Edge]:
    """Maximal b-matching by a single greedy scan over the edges.

    ``edge_order`` overrides the scan order (ablation hook: input order vs
    random vs degree-sorted); ``shuffle_seed`` randomises it instead.  The
    default is the graph's canonical edge order, matching the paper's
    "for each (u,v) in E" loop.

    Raises :class:`GraphError` on negative or missing capacities.
    """
    for node in graph.nodes():
        capacity = capacities.get(node)
        if capacity is None:
            raise GraphError(f"missing capacity for node {node!r}")
        if capacity < 0:
            raise GraphError(f"capacity for node {node!r} is negative: {capacity}")

    if edge_order is None:
        edges = list(graph.edges())
        if shuffle_seed is not None:
            ensure_rng(shuffle_seed).shuffle(edges)
    else:
        edges = list(edge_order)
        for u, v in edges:
            if not graph.has_edge(u, v):
                raise GraphError(f"edge order contains non-edge ({u!r}, {v!r})")

    load: Dict[Node, int] = dict.fromkeys(graph.nodes(), 0)
    matched: List[Edge] = []
    for u, v in edges:
        if load[u] < capacities[u] and load[v] < capacities[v]:
            matched.append((u, v))
            load[u] += 1
            load[v] += 1
    return matched


def bipartite_repair(
    tracker: DegreeTracker,
    candidate_edges: List[Tuple[Node, Node]],
    accept_zero_gain: bool = False,
) -> List[Edge]:
    """Algorithm 3: greedy weighted semi-matching between groups A and B.

    ``candidate_edges`` must be oriented ``(a, b)`` with ``a`` in group A and
    ``b`` in group B under ``tracker``'s current state.  The tracker is
    mutated: every selected edge is added to it.  Returns the selected edges.
    Only ``tracker.dis`` and ``tracker.add_edge`` are used, so any tracker
    flavour works — including :class:`IdsView`, in which case the candidate
    "nodes" are CSR integer ids.

    Implementation: a lazy max-heap.  Each entry carries the weight it was
    pushed with; stale entries (whose edge was re-weighted or retired) are
    skipped on pop.  Gains only ever decrease as A-deficits shrink, so lazy
    deletion is safe.
    """
    weight: Dict[Tuple[Node, Node], float] = {}
    edges_by_a: Dict[Node, List[Node]] = {}
    alive_b: set = set()

    for a, b in candidate_edges:
        gain = _snap(
            abs(tracker.dis(a))
            + 2 * abs(tracker.dis(b))
            - abs(tracker.dis(a) + 1)
            - 1
        )
        if gain < 0:
            continue
        key = (a, b)
        if key in weight:
            raise ReductionError(f"duplicate candidate edge {key!r}")
        weight[key] = gain
        edges_by_a.setdefault(a, []).append(b)
        alive_b.add(b)

    heap: List[Tuple[float, int, Node, Node]] = []
    counter = 0
    for (a, b), w in weight.items():
        heap.append((-w, counter, a, b))
        counter += 1
    heapq.heapify(heap)

    selected: List[Edge] = []
    while heap:
        negative_w, _, a, b = heapq.heappop(heap)
        w = -negative_w
        key = (a, b)
        current = weight.get(key)
        if current is None or b not in alive_b or current != w:
            continue  # stale or retired entry
        if w == 0 and not accept_zero_gain:
            del weight[key]
            continue

        selected.append(key)
        del weight[key]
        tracker.add_edge(a, b)
        # b's discrepancy is now >= 0: it left group B (line 6).
        alive_b.discard(b)

        dis_a = _snap(tracker.dis(a))
        if dis_a <= -1:
            # Lemma 2 zone: gains of a's remaining edges are unchanged.
            continue
        if dis_a > -0.5:
            # a left group A (lines 15-17): retire all its edges.
            for x in edges_by_a.get(a, ()):
                weight.pop((a, x), None)
            continue
        # -1 < dis(a) <= -0.5: re-weight a's surviving edges (lines 8-14).
        for x in edges_by_a.get(a, ()):
            edge = (a, x)
            if edge not in weight or x not in alive_b:
                continue
            new_w = _snap(abs(dis_a) + 2 * abs(tracker.dis(x)) - abs(1 + dis_a) - 1)
            if new_w > 0 or (new_w == 0 and accept_zero_gain):
                weight[edge] = new_w
                heapq.heappush(heap, (-new_w, counter, a, x))
                counter += 1
            else:
                del weight[edge]
    return selected


def heap_repair_ids(
    tracker: ArrayDegreeTracker,
    cand_ids: np.ndarray,
    cand_a: np.ndarray,
    accept_zero_gain: bool = False,
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`bipartite_repair` over id arrays, shaped like ``bipartite_repair_ids``."""
    cand_ids = np.asarray(cand_ids, dtype=np.int64)
    cand_a = np.asarray(cand_a, dtype=np.int64)
    cand_b = _b_sides(tracker, cand_ids, cand_a)
    candidates = list(zip(cand_a.tolist(), cand_b.tolist()))
    repaired = bipartite_repair(IdsView(tracker), candidates, accept_zero_gain=accept_zero_gain)
    count = len(repaired)
    sel_a = np.fromiter((a for a, _ in repaired), np.int64, count=count)
    sel_b = np.fromiter((b for _, b in repaired), np.int64, count=count)
    return sel_a, sel_b


def weighted_bipartite_repair_ids(
    tracker: ArrayDegreeTracker,
    cand_ids: np.ndarray,
    cand_a: np.ndarray,
    accept_zero_gain: bool = False,
) -> Tuple[np.ndarray, np.ndarray]:
    """Algorithm 3 over *expected-degree mass*: the uncertain-graph repair.

    Algorithm 3's lazy max-heap (see :func:`bipartite_repair`), with every
    unit move replaced by the edge's weight (:func:`_weighted_gain`).  Two
    behaviours appear that the unit-weight algorithm cannot exhibit, both
    dormant at all-ones weights:

    * a selected edge of weight ``w < |dis(b)|`` leaves ``b`` *inside*
      group B — ``b`` survives with a smaller deficit and its remaining
      pool edges are re-weighted instead of retired;
    * the Lemma 2 plateau starts at ``dis(a) ≤ −max_w`` (the largest
      candidate weight) rather than ``−1``: below it, every incident gain
      is independent of ``dis(a)``, so no re-weight is needed.

    With all weights exactly 1.0, ``b`` always leaves group B on selection,
    ``max_w`` is 1.0, and every gain/re-weight expression evaluates the
    unweighted heap's arithmetic bit for bit — including heap-counter
    consumption — so the selections and their order are identical to
    :func:`bipartite_repair`'s.  Requires ``tracker.weighted`` (weights
    in ``[0, 1]``; :mod:`repro.graph.io` clamps on read).  The tracker is
    mutated: every selected edge is added.  Returns selected ``(a_ids,
    b_ids)`` in selection order.
    """
    if not tracker.weighted:
        raise ValueError("weighted_bipartite_repair_ids requires a weighted tracker")
    cand_ids = np.asarray(cand_ids, dtype=np.int64)
    cand_a = np.asarray(cand_a, dtype=np.int64)
    empty = np.empty(0, dtype=np.int64)
    k = int(cand_a.shape[0])
    if k == 0:
        return empty, empty.copy()
    cand_b = _b_sides(tracker, cand_ids, cand_a)
    dis = tracker.dis_array()
    n = tracker.num_nodes

    masses = tracker.edge_weights(cand_ids)
    max_w = float(masses.max())
    gains = _gain_array(dis[cand_a], dis[cand_b], masses)

    # The per-edge heap's duplicate check covers every gain >= 0 edge.
    eligible = np.nonzero(gains >= 0.0)[0]
    if eligible.size:
        keys = cand_a[eligible] * n + cand_b[eligible]
        if np.unique(keys).shape[0] != keys.shape[0]:
            seen: set = set()
            for i in eligible.tolist():
                key = (int(cand_a[i]), int(cand_b[i]))
                if key in seen:
                    raise ReductionError(f"duplicate candidate edge {key!r}")
                seen.add(key)

    # Rejected zero-gain edges can be excluded up front: re-weights are
    # non-increasing (|dis(b)| only shrinks, and the crossing/non-crossing
    # branches agree at the |dis(b)| = w boundary), so a zero-gain pool
    # entry could only ever be deleted, never selected.
    pool = eligible if accept_zero_gain else np.nonzero(gains > 0.0)[0]
    if pool.size == 0:
        return empty, empty.copy()

    # Lazy-heap bookkeeping by candidate index: `cur_gain` is the single
    # source of truth (a popped entry is live iff its gain still matches
    # — the dict-of-weights staleness rule, array-indexed), `alive` marks
    # pool membership, `b_alive` group-B survival.  The replay loop is
    # scalar Python over plain lists: candidate groups per endpoint are
    # tiny (~1 edge), where list indexing beats numpy fancy indexing.
    cur_gain = gains.tolist()
    ids_l = cand_ids.tolist()
    ca_l = cand_a.tolist()
    cb_l = cand_b.tolist()
    w_l = masses.tolist()
    alive = bytearray(k)
    b_alive = bytearray(n)

    # Incident pool edges grouped by endpoint, ascending candidate index —
    # the `edges_by_*` insertion order.
    by_a_node: Dict[int, List[int]] = {}
    by_b_node: Dict[int, List[int]] = {}
    for idx in pool.tolist():
        alive[idx] = 1
        b_alive[cb_l[idx]] = 1
        by_a_node.setdefault(ca_l[idx], []).append(idx)
        by_b_node.setdefault(cb_l[idx], []).append(idx)

    heap: List[Tuple[float, int, int]] = [
        (-cur_gain[idx], i, idx) for i, idx in enumerate(pool.tolist())
    ]
    heapq.heapify(heap)
    counter = int(pool.shape[0])
    heappop, heappush = heapq.heappop, heapq.heappush
    dis_l = tracker.dis_list()

    sel_a: List[int] = []
    sel_b: List[int] = []
    while heap:
        negative_w, _, idx = heappop(heap)
        w = -negative_w
        if not alive[idx] or cur_gain[idx] != w:
            continue  # stale or retired entry
        b = cb_l[idx]
        if not b_alive[b]:
            continue
        if w == 0 and not accept_zero_gain:
            alive[idx] = 0
            continue
        a = ca_l[idx]

        sel_a.append(a)
        sel_b.append(b)
        alive[idx] = 0
        tracker.add_edge(ids_l[idx])

        dis_b = _snap(dis_l[b])
        if dis_b >= 0:
            # b crossed out of group B (the only possibility at w = 1).
            b_alive[b] = 0
        else:
            # b survives in group B with a smaller deficit: re-weight its
            # surviving pool edges (gains are non-increasing in |dis(b)|).
            for eidx in by_b_node.get(b, ()):
                if not alive[eidx]:
                    continue
                new_w = _weighted_gain(dis_l[ca_l[eidx]], dis_b, w_l[eidx])
                if new_w > 0 or (new_w == 0 and accept_zero_gain):
                    cur_gain[eidx] = new_w
                    heappush(heap, (-new_w, counter, eidx))
                    counter += 1
                else:
                    alive[eidx] = 0

        dis_a = _snap(dis_l[a])
        if dis_a <= -max_w:
            # Weighted Lemma 2 zone: with dis(a) ≤ −w for every incident
            # weight w, each gain reduces to a dis(a)-free expression.
            continue
        edges_a = by_a_node.get(a, ())
        if dis_a > -0.5:
            # a left group A: retire all its edges.
            for eidx in edges_a:
                alive[eidx] = 0
            continue
        # Deficit shrank out of the plateau: re-weight a's surviving edges.
        for eidx in edges_a:
            if not alive[eidx]:
                continue
            x = cb_l[eidx]
            if not b_alive[x]:
                continue
            new_w = _weighted_gain(dis_a, dis_l[x], w_l[eidx])
            if new_w > 0 or (new_w == 0 and accept_zero_gain):
                cur_gain[eidx] = new_w
                heappush(heap, (-new_w, counter, eidx))
                counter += 1
            else:
                alive[eidx] = 0

    return (
        np.asarray(sel_a, dtype=np.int64),
        np.asarray(sel_b, dtype=np.int64),
    )


def _reference_repair_ids(
    tracker: ArrayDegreeTracker,
    cand_ids: np.ndarray,
    cand_a: np.ndarray,
    accept_zero_gain: bool = False,
) -> Tuple[np.ndarray, np.ndarray]:
    """The lazy-heap reference that matches ``tracker``: weighted or unit."""
    reference = weighted_bipartite_repair_ids if tracker.weighted else heap_repair_ids
    return reference(tracker, cand_ids, cand_a, accept_zero_gain=accept_zero_gain)


@contextmanager
def heap_repair() -> Iterator[mock.MagicMock]:
    """Run BM2's Algorithm 3 through a plain lazy heap while active.

    Swaps :func:`repro.core.bm2.bipartite_repair_ids` inside
    :func:`repro.core.bm2.bm2_reduce_ids` for the reference that matches
    the run's tracker — :func:`heap_repair_ids` on unit trackers,
    :func:`weighted_bipartite_repair_ids` on weighted ones — so every BM2
    path (sparsified, sharded, weighted or plain) can be checked against
    (or timed against) the heap.  Yields the patched callable, whose
    ``call_count`` shows the reference ran.
    """
    with mock.patch(
        "repro.core.bm2.bipartite_repair_ids", side_effect=_reference_repair_ids
    ) as patched:
        yield patched


class LegacyCRRShedder(CRRShedder):
    """Algorithm 1 over node labels: ranked Phase 1 plus the scalar swap loop.

    Consumes the RNG exactly as :class:`CRRShedder` does and accepts the
    same swap sequence, so both keep the same edges.
    """

    engine = "legacy"

    def _reduce(self, graph: Graph, p: float) -> Tuple[Graph, Dict[str, Any]]:
        rng = ensure_rng(self._seed)
        target = round_half_up(p * graph.num_edges)
        steps = self.steps
        if steps is None:
            steps = round_half_up(self.steps_factor * p * graph.num_edges)

        stats: Dict[str, Any] = {
            "target_edges": target,
            "steps": steps,
            "initial_ranking": self.importance,
            "engine": self.engine,
        }
        with timed_phase(stats, "ranking_seconds"):
            kept_edges = self._initial_edges(graph, target, rng)
        with timed_phase(stats, "rewiring_seconds"):
            reduced = self._rewire_legacy(graph, p, kept_edges, steps, rng, stats)
        return reduced, stats

    def _rewire_legacy(
        self,
        graph: Graph,
        p: float,
        kept_edges: List[Edge],
        steps: int,
        rng: np.random.Generator,
        stats: Dict[str, Any],
    ) -> Graph:
        """The original scalar rewiring loop (the array engine's oracle)."""
        tracker = DegreeTracker(graph, p)
        for u, v in kept_edges:
            tracker.add_edge(u, v)

        kept = IndexedEdgePool(kept_edges)
        kept_set = set(kept_edges)
        shed = IndexedEdgePool(e for e in graph.edges() if e not in kept_set)

        accepted = 0
        attempted = 0
        if len(kept) and len(shed):
            for _ in range(steps):
                edge_out = kept.sample(rng)
                edge_in = shed.sample(rng)
                attempted += 1
                if tracker.swap_change(edge_out, edge_in) < -_MIN_IMPROVEMENT:
                    tracker.apply_swap(edge_out, edge_in)
                    kept.remove(edge_out)
                    shed.add(edge_out)
                    shed.remove(edge_in)
                    kept.add(edge_in)
                    accepted += 1

        stats["attempted_swaps"] = attempted
        stats["accepted_swaps"] = accepted
        stats["tracker_delta"] = tracker.delta
        return graph.edge_subgraph(kept.items())

    def _initial_edges(self, graph: Graph, target: int, rng: np.random.Generator) -> List[Edge]:
        """Phase 1: the [P]-edge initial selection."""
        target = min(target, graph.num_edges)
        if self.importance == "random":
            edges = list(graph.edges())
            picks = rng.choice(len(edges), size=target, replace=False)
            return [edges[i] for i in picks]
        return top_edges_by_betweenness(
            graph,
            target,
            num_sources=self.num_betweenness_sources,
            seed=rng,
            tie_seed=rng,
        )


class LegacyBM2Shedder(BM2Shedder):
    """Algorithms 2-3 over node labels: dict greedy scan plus the repair heap.

    Keeps exactly the edges :class:`BM2Shedder` keeps (``sparsify="off"``).
    """

    engine = "legacy"

    def _reduce(self, graph: Graph, p: float) -> Tuple[Graph, Dict[str, Any]]:
        """The original dict-based phases (the array engine's oracle)."""
        round_rule = _ROUNDING_RULES[self.rounding]
        capacities = {node: round_rule(p * graph.degree(node)) for node in graph.nodes()}

        stats: Dict[str, Any] = {"capacity_rounding": self.rounding, "engine": self.engine}
        with timed_phase(stats, "phase1_seconds"):
            shuffle_seed = ensure_rng(self._seed) if self.shuffle_edges else None
            matched = greedy_b_matching(graph, capacities, shuffle_seed=shuffle_seed)

        with timed_phase(stats, "phase2_seconds"):
            tracker = DegreeTracker(graph, p)
            for u, v in matched:
                tracker.add_edge(u, v)

            group_a = {node for node in graph.nodes() if _snap(tracker.dis(node)) <= -0.5}
            group_b = {
                node for node in graph.nodes() if -0.5 < _snap(tracker.dis(node)) < 0
            }

            # Phase 1 scans graph.edges(), so every matched edge is already a
            # canonical tuple — plain tuple lookups beat building a frozenset
            # per graph edge.
            matched_keys = set(matched)
            candidates: List[Tuple[Node, Node]] = []
            for u, v in graph.edges():
                if (u, v) in matched_keys:
                    continue
                if u in group_a and v in group_b:
                    candidates.append((u, v))
                elif v in group_a and u in group_b:
                    candidates.append((v, u))

            repaired = bipartite_repair(
                tracker, candidates, accept_zero_gain=self.accept_zero_gain
            )

        reduced = graph.edge_subgraph(list(matched) + [tuple(e) for e in repaired])
        stats.update(
            {
                "matched_edges": len(matched),
                "repair_edges": len(repaired),
                "group_a_size": len(group_a),
                "group_b_size": len(group_b),
                "candidate_edges": len(candidates),
                "tracker_delta": tracker.delta,
                "sparsify": "off",
                "sparsify_beta": 0,
                "phase2_candidate_edges_pruned": 0,
            }
        )
        return reduced, stats
