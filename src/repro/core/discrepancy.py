"""Degree-discrepancy bookkeeping: ``dis(u)`` and ``Δ``.

The paper's quality objective (Section II-A) is built from two quantities:

* ``dis(u) = deg_G'(u) − p·deg_G(u)`` — how far node ``u``'s degree in the
  reduced graph is from its expectation (Equation 3), and
* ``Δ = Σ_u |dis(u)|`` — the total absolute discrepancy (Equation 4).

Both CRR's rewiring loop and BM2's bipartite phase mutate the candidate edge
set thousands of times, so :class:`ArrayDegreeTracker` maintains ``dis`` and
``Δ`` incrementally over a CSR snapshot, naming each edge by its snapshot
edge id (its position in ``edge_list_ids()``): adding or removing an edge
is O(1), and tracking costs one flag byte per snapshot edge.

The uncertain-graph workload (:mod:`repro.uncertain`) generalises both
quantities to probability mass: ``dis(u) = E[deg_G'(u)] − p·E[deg_G(u)]``
where an edge contributes its weight instead of 1.  There is one family
of Δ-change formulas (vectorized add and remove, and the exact scalar
swap), and the weight is an argument of each: the float ``1.0`` for unit
moves, or an array aligned with the edges.  The unit case is the
weighted case at ``w = 1`` in the same association order, so unit
results are bit-identical to the paper's ``d_1``/``d_2`` expressions.
Scalar movers (CRR's rewiring, the churn repair in
:mod:`repro.dynamic`) write the same expressions inline over ``dis``
lists.  :class:`ArrayDegreeTracker` with
``weighted=True`` feeds the formulas its edges' weights; with all
weights exactly 1.0 it degenerates bit-identically to the unweighted
tracker (the property suite pins this).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import (
    EdgeNotFoundError,
    GraphError,
    InvalidRatioError,
    ReductionError,
)
from repro.graph.graph import Graph

__all__ = [
    "ArrayDegreeTracker",
    "add_change_from_dis",
    "compute_delta",
    "remove_change_from_dis",
    "round_half_up",
    "swap_change_scalar_from_dis",
]


def round_half_up(value: float) -> int:
    """Round to the nearest integer, halves away from zero.

    The paper writes ``[P]`` for "the nearest integer of P"; Python's
    built-in ``round`` uses banker's rounding, so we pin down half-up
    explicitly to keep targets deterministic and intuitive
    (``round_half_up(4.5) == 5``).
    """
    return int(math.floor(value + 0.5)) if value >= 0 else -int(math.floor(-value + 0.5))


def check_probability_weights(csr: "CSRAdjacency") -> None:
    """Raise :class:`GraphError` unless every edge weight lies in ``[0, 1]``.

    The weighted engines read weights as edge probabilities, but a
    ``Graph`` stores any float.  The first offending edge in edge-scan
    order is named by its labels, with its value (NaN included).
    """
    weights = csr.weights
    if weights is None:
        return
    bad = ~((weights >= 0.0) & (weights <= 1.0))
    if bad.any():
        k = int(np.argmax(bad))
        edge_u, edge_v = csr.edge_list_ids()
        labels = csr.labels
        raise GraphError(
            f"edge ({labels[edge_u[k]]!r}, {labels[edge_v[k]]!r}) has weight"
            f" {weights[k].item()!r}, outside the probability range [0, 1]"
        )


def add_change_from_dis(
    du: np.ndarray, dv: np.ndarray, weight: float | np.ndarray
) -> np.ndarray:
    """Vectorized ``d_2`` (Δ-change of adding each edge) from its endpoints'
    ``dis`` values ``du`` and ``dv`` (``float64`` arrays aligned with the edges).

    Adding an edge moves both endpoints by ``weight``: the float ``1.0``
    for the paper's unit moves, or a float array aligned with the edges
    (probability mass on uncertain graphs).  Offline unit and weighted
    scores share this expression, so they cannot drift apart.
    """
    return np.abs(du + weight) + np.abs(dv + weight) - (np.abs(du) + np.abs(dv))


def remove_change_from_dis(
    du: np.ndarray, dv: np.ndarray, weight: float | np.ndarray
) -> np.ndarray:
    """Vectorized ``d_1`` (Δ-change of removing each edge) from its endpoints' ``dis``."""
    return np.abs(du - weight) + np.abs(dv - weight) - (np.abs(du) + np.abs(dv))


def swap_change_scalar_from_dis(
    dis: Sequence[float],
    out_u: int,
    out_v: int,
    in_u: int,
    in_v: int,
    w_out: float,
    w_in: float,
) -> float:
    """Exact joint swap change for one id quadruple (shared endpoints OK).

    ``dis`` is an array or a list (a tracker's ``dis_list()``).  The
    outgoing edge moves its endpoints by ``-w_out``, the incoming one by
    ``+w_in``; unit weights give integer-valued shifts, exactly.
    """
    touched = {out_u, out_v, in_u, in_v}
    shift: Dict[int, float] = dict.fromkeys(touched, 0.0)
    shift[out_u] -= w_out
    shift[out_v] -= w_out
    shift[in_u] += w_in
    shift[in_v] += w_in
    change = 0.0
    for node in touched:
        before = float(dis[node])
        change += abs(before + shift[node]) - abs(before)
    return change


class ArrayDegreeTracker:
    """Incremental ``dis(u)`` / ``Δ`` state over a CSR snapshot's edge ids.

    Construct from a snapshot and ratio ``p``; the tracked edge set starts
    empty (every node sits at ``dis(u) = −p·deg_G(u)``).  The snapshot may
    be a whole-graph export or a per-shard :class:`repro.graph.csr.CSRView`
    — expectations are ``p`` times the snapshot's own degree array, so a
    view tracker scores discrepancy against shard-interior degrees.

    Edges are named by their snapshot edge id, the position in
    :meth:`~repro.graph.csr.CSRAdjacency.edge_list_ids`, and tracked as one
    flag byte each; ``expected``, ``current`` and ``dis`` are Python lists
    by node id.  :meth:`add_edge` and :meth:`remove_edge` are the one
    per-edge move, which CRR's rewiring and BM2's repair make between reads
    of :meth:`dis_list` (plain-list arithmetic beats numpy scalar indexing
    several times over); vectorized readers take :meth:`dis_array`, a
    ``float64`` copy cached until the next move.  An id outside ``[0, m)``
    raises :class:`~repro.errors.GraphError`, adding a tracked edge
    :class:`~repro.errors.ReductionError`, removing an untracked one
    :class:`~repro.errors.EdgeNotFoundError`; a batch is checked whole first.

    Exactness: ``dis`` slots are always written as ``current - expected``
    (never ``-expected``, so a zero expectation gives ``+0.0``), and the
    per-edge moves accumulate ``Δ`` term by term with the paper's
    ``d_1``/``d_2`` expressions.  Bulk :meth:`add_edges` recomputes
    ``Δ = Σ|dis|`` directly instead — bit-identical whenever every
    ``p·deg`` is exactly representable (e.g. ``p = 0.5``), and within
    float-association noise (≪ 1e-9) otherwise.

    ``weighted=True`` switches every quantity to probability mass:
    expectations become ``p·E[deg]`` (weighted degrees), ``current`` holds
    floats instead of ints, and each edge moves its endpoints by its
    weight.  All expression shapes match the unweighted paths with ``w``
    replacing ``1``, so all-ones weights degenerate bit-identically.
    """

    def __init__(self, csr: "CSRAdjacency", p: float, weighted: bool = False) -> None:
        if not 0.0 < p < 1.0:
            raise InvalidRatioError(p)
        self._p = p
        self._csr = csr
        self._is_weighted = bool(weighted)
        n = csr.num_nodes
        self._n = n
        #: endpoint (and weight) arrays by edge id, and memoryviews of them for
        #: the per-edge moves, whose items are Python ints (floats).
        self._edge_u, self._edge_v = csr.edge_list_ids()
        self._u_of, self._v_of = memoryview(self._edge_u), memoryview(self._edge_v)
        self._m = len(self._u_of)
        self._weights = csr.edge_weights_array() if weighted else None
        self._weight_of = memoryview(self._weights) if weighted else None
        if weighted:
            degrees, zero = csr.weighted_degree_array(), 0.0
        else:
            degrees, zero = csr.degree_array(), 0
        expected = p * degrees
        #: p·deg_G(u) per id (Equation 1); p·E[deg_G(u)] when weighted.
        self._expected: List[float] = expected.tolist()
        #: tracked degree per id: ints, or floats of mass when weighted.
        self._current: list = [zero] * n
        #: current − expected per id, rewritten per touched slot.
        self._dis: List[float] = (zero - expected).tolist()
        #: :meth:`dis_array`'s copy; every move drops it.
        self._dis_cache: Optional[np.ndarray] = None
        #: one flag per edge id, 1 while tracked, and a ``uint8`` view of it.
        self._kept = bytearray(self._m)
        self._kept_flags = np.frombuffer(self._kept, dtype=np.uint8)
        # Python sum in id (= insertion) order: the same float as summing
        # the expectations node by node in graph order.
        self._delta = float(sum(self._expected))

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
        return int(np.count_nonzero(self._kept_flags))

    @property
    def num_nodes(self) -> int:
        return self._n

    @property
    def csr(self) -> "CSRAdjacency":
        """The snapshot whose node and edge ids this tracker reads."""
        return self._csr

    @property
    def weighted(self) -> bool:
        """Whether this tracker scores probability mass instead of counts."""
        return self._is_weighted

    def dis_list(self) -> List[float]:
        """The live ``dis`` list per CSR id (moves update it in place).  Read only."""
        return self._dis

    def dis_array(self) -> np.ndarray:
        """Read-only ``float64[n]`` copy of ``dis``, cached until the next move."""
        if self._dis_cache is None:
            self._dis_cache = np.array(self._dis, dtype=np.float64)
            self._dis_cache.flags.writeable = False
        return self._dis_cache

    def edge_weights(self, ids: np.ndarray) -> np.ndarray:
        """``float64`` weights of the edges ``ids`` (all-ones when unweighted)."""
        ids = self._ids_in_range(ids)
        return np.ones(ids.shape[0]) if self._weights is None else self._weights[ids]

    def _tracked_error(self, e: int) -> ReductionError:
        u, v = self._csr.labels[self._u_of[e]], self._csr.labels[self._v_of[e]]
        return ReductionError(f"edge ({u!r}, {v!r}) is already tracked")

    def _bad_id(self, e: int) -> GraphError:
        return GraphError(f"edge id {e!r} is outside [0, {self._m})")

    def _ids_in_range(self, ids: np.ndarray) -> np.ndarray:
        """``ids`` as ``int64``; raise :meth:`_bad_id` for the first outside ``[0, m)``."""
        ids = np.asarray(ids, dtype=np.int64)
        if ids.shape[0] and (ids.min() < 0 or ids.max() >= self._m):
            raise self._bad_id(int(ids[(ids < 0) | (ids >= self._m)][0]))
        return ids

    def _new_ids(self, ids: np.ndarray) -> np.ndarray:
        """Validate a batch of edge ids to start tracking; return it as ``int64``.

        Only a batch failing the vectorized checks is walked id by id, to
        raise what :meth:`add_edge` would for its first out-of-range,
        tracked or repeated id in batch order.
        """
        ids = np.asarray(ids, dtype=np.int64)
        flags, m = self._kept_flags, self._m
        if ids.shape[0] and ids.min() >= 0 and ids.max() < m and not flags[ids].any():
            # Flag the batch: fewer new flags than ids means a repeat.
            before = np.count_nonzero(flags)
            flags[ids] = 1
            distinct = np.count_nonzero(flags) == before + ids.shape[0]
            flags[ids] = 0
            if distinct:
                return ids
        seen: set = set()
        for e in ids.tolist():
            if not 0 <= e < m:
                raise self._bad_id(e)
            if self._kept[e] or e in seen:
                raise self._tracked_error(e)
            seen.add(e)
        return ids

    # ------------------------------------------------------------------
    # Mutation (per-edge moves, term-by-term Δ accumulation)
    # ------------------------------------------------------------------

    def add_edge(self, e: int) -> None:
        """Track snapshot edge ``e``."""
        if not 0 <= e < self._m:
            raise self._bad_id(e)
        kept = self._kept
        if kept[e]:
            raise self._tracked_error(e)
        u, v = self._u_of[e], self._v_of[e]
        # w is the int literal 1 when unweighted, so the float expressions
        # below are the paper's d_2 (and d_1 on removal) term for term, and
        # unit degrees stay ints.
        w = self._weight_of[e] if self._is_weighted else 1
        dis, current, expected = self._dis, self._current, self._expected
        du, dv = dis[u], dis[v]
        self._delta += abs(du + w) + abs(dv + w) - (abs(du) + abs(dv))
        kept[e] = 1
        self._dis_cache = None
        current[u] += w
        current[v] += w
        dis[u] = current[u] - expected[u]
        dis[v] = current[v] - expected[v]

    def remove_edge(self, e: int) -> None:
        """Stop tracking snapshot edge ``e``."""
        if not 0 <= e < self._m:
            raise self._bad_id(e)
        kept = self._kept
        u, v = self._u_of[e], self._v_of[e]
        if not kept[e]:
            raise EdgeNotFoundError(self._csr.labels[u], self._csr.labels[v])
        w = self._weight_of[e] if self._is_weighted else 1
        dis, current, expected = self._dis, self._current, self._expected
        du, dv = dis[u], dis[v]
        self._delta += abs(du - w) + abs(dv - w) - (abs(du) + abs(dv))
        kept[e] = 0
        self._dis_cache = None
        current[u] -= w
        current[v] -= w
        dis[u] = current[u] - expected[u]
        dis[v] = current[v] - expected[v]

    def add_edges(self, ids: np.ndarray) -> None:
        """Bulk-track a batch of edge ids.

        Equivalent to calling :meth:`add_edge` per id, except that
        ``current`` is rebuilt with two ``bincount`` calls (weights summed
        in batch order) and ``Δ`` is recomputed as ``Σ|dis|`` (see the
        class docstring for the exactness contract).  Raises like the
        per-edge move, and commits nothing before the raise.
        """
        ids = self._new_ids(ids)
        self._kept_flags[ids] = 1
        w = self._weights[ids] if self._is_weighted else None
        current = np.array(self._current, dtype=np.float64 if self._is_weighted else np.int64)
        current += np.bincount(self._edge_u[ids], weights=w, minlength=self._n)
        current += np.bincount(self._edge_v[ids], weights=w, minlength=self._n)
        dis = current - np.array(self._expected, dtype=np.float64)
        self._current[:] = current.tolist()
        self._dis[:] = dis.tolist()
        dis.flags.writeable = False
        self._dis_cache = dis
        self._delta = float(np.abs(dis).sum())

    def admit_edges(self, ids: np.ndarray) -> None:
        """:meth:`add_edge` for each id of a batch, all or nothing.

        Unlike :meth:`add_edges` (which recomputes ``Δ = Σ|dis|``), this
        accumulates ``Δ`` term by term in batch order.  The whole batch is
        validated first, so the first offending id in batch order (out of
        range, tracked or repeated) raises what :meth:`add_edge` would,
        before any edge of the batch is tracked.
        """
        for e in self._new_ids(ids).tolist():
            self.add_edge(e)

    # ------------------------------------------------------------------
    # Hypothetical moves (no mutation)
    # ------------------------------------------------------------------

    def _endpoint_dis(self, ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``dis`` at the edges' ``u`` and at their ``v`` endpoints, read from
        :meth:`dis_list` at those endpoints only (no copy of the whole list)."""
        dis = self._dis
        du = np.array([dis[x] for x in self._edge_u[ids].tolist()], dtype=np.float64)
        dv = np.array([dis[x] for x in self._edge_v[ids].tolist()], dtype=np.float64)
        return du, dv

    def add_change(self, ids: np.ndarray) -> np.ndarray:
        """Change in ``Δ`` if each edge were added (paper's ``d_2``), vectorized."""
        ids = self._ids_in_range(ids)
        return add_change_from_dis(*self._endpoint_dis(ids), self.edge_weights(ids))

    def remove_change(self, ids: np.ndarray) -> np.ndarray:
        """Change in ``Δ`` if each edge were removed (paper's ``d_1``), vectorized."""
        ids = self._ids_in_range(ids)
        return remove_change_from_dis(*self._endpoint_dis(ids), self.edge_weights(ids))


def compute_delta(original: Graph, reduced: Graph, p: float) -> float:
    """``Δ`` of an already-built reduced graph against ``original`` and ``p``.

    A from-scratch (non-incremental) computation used to validate trackers
    and to score reduction methods that do not track ``Δ`` internally
    (e.g. the UDS baseline after reconstruction).
    """
    if not 0.0 < p < 1.0:
        raise InvalidRatioError(p)
    csr = original.cached_csr()
    if csr is not None:
        # Array path when a current CSR snapshot already exists (every
        # engine run leaves one behind): same per-node terms and the same
        # left-to-right summation order as the scalar loop, so the result
        # is bit-identical.  An engine result still holds its edge ids
        # over the same node order and counts degrees from them.
        reduced_degrees = reduced._id_degrees(csr.labels)
        if reduced_degrees is None:
            reduced._build_dicts()  # the loop holds the dict, not a stand-in
            reduced_adj = reduced._adj
            empty: set = set()
            reduced_degrees = np.fromiter(
                (len(reduced_adj.get(node, empty)) for node in csr.labels),
                dtype=np.int64,
                count=csr.num_nodes,
            )
        terms = np.abs(reduced_degrees - p * csr.degree_array())
        return float(sum(terms.tolist()))
    delta = 0.0
    for node in original.nodes():
        reduced_degree = reduced.degree(node) if reduced.has_node(node) else 0
        delta += abs(reduced_degree - p * original.degree(node))
    return delta
