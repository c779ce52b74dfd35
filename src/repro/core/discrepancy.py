"""Degree-discrepancy bookkeeping: ``dis(u)`` and ``Δ``.

The paper's quality objective (Section II-A) is built from two quantities:

* ``dis(u) = deg_G'(u) − p·deg_G(u)`` — how far node ``u``'s degree in the
  reduced graph is from its expectation (Equation 3), and
* ``Δ = Σ_u |dis(u)|`` — the total absolute discrepancy (Equation 4).

Both CRR's rewiring loop and BM2's bipartite phase mutate the candidate edge
set thousands of times, so :class:`ArrayDegreeTracker` maintains ``dis`` and
``Δ`` incrementally over a CSR snapshot's ids: adding or removing an edge
is O(1).

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
from typing import Dict, List, Optional, Sequence

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
    dis: np.ndarray,
    edge_u: np.ndarray,
    edge_v: np.ndarray,
    weight: float | np.ndarray,
) -> np.ndarray:
    """Vectorized ``d_2`` (Δ-change of adding each edge) over a ``dis`` array.

    Adding an edge moves both endpoints by ``weight``: the float ``1.0``
    for the paper's unit moves, or a float array aligned with the edges
    (probability mass on uncertain graphs).  Offline unit and weighted
    scores share this expression, so they cannot drift apart.
    """
    du, dv = dis[edge_u], dis[edge_v]
    return np.abs(du + weight) + np.abs(dv + weight) - (np.abs(du) + np.abs(dv))


def remove_change_from_dis(
    dis: np.ndarray,
    edge_u: np.ndarray,
    edge_v: np.ndarray,
    weight: float | np.ndarray,
) -> np.ndarray:
    """Vectorized ``d_1`` (Δ-change of removing each edge) over a ``dis`` array."""
    du, dv = dis[edge_u], dis[edge_v]
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
    """Incremental ``dis(u)`` / ``Δ`` state over a CSR snapshot's integer ids.

    Construct from a snapshot and ratio ``p``; the tracked edge set starts
    empty (every node sits at ``dis(u) = −p·deg_G(u)``).  The snapshot may
    be a whole-graph export or a per-shard :class:`repro.graph.csr.CSRView`
    — expectations are ``p`` times the snapshot's own degree array, so a
    view tracker scores discrepancy against shard-interior degrees.

    ``expected``, ``current`` and ``dis`` are Python lists indexed by id,
    and tracked edges are integer keys in a hash set.  :meth:`add_edge_ids`
    and :meth:`remove_edge_ids` are the one per-edge move, which CRR's
    rewiring and BM2's repair make between reads of :meth:`dis_list`
    (plain-list arithmetic beats numpy scalar indexing several times over).
    Vectorized readers take :meth:`dis_array`, a ``float64`` copy cached
    until the next move.

    Exactness: ``dis`` slots are always written as ``current - expected``
    (never ``-expected``, so a zero expectation gives ``+0.0``), and the
    per-edge moves accumulate ``Δ`` term by term with the paper's
    ``d_1``/``d_2`` expressions.  Bulk :meth:`add_edges_ids` recomputes
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
        if weighted:
            degrees, zero = csr.weighted_degree_array(), 0.0
            #: edge key -> weight, for the per-edge moves (memoised on the
            #: snapshot, shared across trackers; read-only here).
            self._weight_of: Optional[Dict[int, float]] = csr.edge_weight_map()
        else:
            degrees, zero = csr.degree_array(), 0
            self._weight_of = None
        expected = p * degrees
        #: p·deg_G(u) per id (Equation 1); p·E[deg_G(u)] when weighted.
        self._expected: List[float] = expected.tolist()
        #: tracked degree per id: ints, or floats of mass when weighted.
        self._current: list = [zero] * n
        #: current − expected per id, rewritten per touched slot.
        self._dis: List[float] = (zero - expected).tolist()
        #: :meth:`dis_array`'s copy; every move drops it.
        self._dis_cache: Optional[np.ndarray] = None
        #: tracked edges as ``min_id * n + max_id`` integer keys.
        self._edge_keys: set = set()
        #: every original-graph edge as an integer key (membership checks;
        #: memoised on the snapshot, shared across trackers).
        self._graph_keys: frozenset = csr.edge_key_set()
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
        return len(self._edge_keys)

    @property
    def num_nodes(self) -> int:
        return self._n

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

    def _edge_key(self, u: int, v: int) -> int:
        return (u * self._n + v) if u < v else (v * self._n + u)

    def edge_weights_ids(self, edge_u: np.ndarray, edge_v: np.ndarray) -> np.ndarray:
        """``float64`` weights of graph edges given as id arrays."""
        if not self._is_weighted:
            return np.ones(int(np.asarray(edge_u).shape[0]), dtype=np.float64)
        return self._csr.edge_weights_for(
            np.asarray(edge_u, dtype=np.int64), np.asarray(edge_v, dtype=np.int64)
        )

    def _new_edge_keys(self, edge_u: np.ndarray, edge_v: np.ndarray) -> set:
        """Validate a batch of edges to start tracking; return their keys.

        Set-level checks first; only a failing batch is walked edge by
        edge, to raise what :meth:`add_edge_ids` would raise for its first
        offending edge: a non-graph edge, or one already tracked (earlier
        in the batch included).
        """
        n = self._n
        keys = (np.minimum(edge_u, edge_v) * n + np.maximum(edge_u, edge_v)).tolist()
        key_set = set(keys)
        if (
            len(key_set) != len(keys)
            or not key_set <= self._graph_keys
            or (key_set & self._edge_keys)
        ):
            labels = self._csr.labels
            seen: set = set(self._edge_keys)
            for key, u, v in zip(keys, edge_u.tolist(), edge_v.tolist()):
                if key not in self._graph_keys:
                    raise EdgeNotFoundError(labels[u], labels[v])
                if key in seen:
                    raise ReductionError(
                        f"edge ({labels[u]!r}, {labels[v]!r}) is already tracked"
                    )
                seen.add(key)
        return key_set

    # ------------------------------------------------------------------
    # Mutation (per-edge moves, term-by-term Δ accumulation)
    # ------------------------------------------------------------------

    def add_edge_ids(self, u: int, v: int) -> None:
        """Track graph edge ``(u, v)`` given by CSR ids."""
        key = self._edge_key(u, v)
        if key not in self._graph_keys:
            labels = self._csr.labels
            raise EdgeNotFoundError(labels[u], labels[v])
        if key in self._edge_keys:
            labels = self._csr.labels
            raise ReductionError(f"edge ({labels[u]!r}, {labels[v]!r}) is already tracked")
        # w is the int literal 1 when unweighted, so the float expressions
        # below are the paper's d_2 (and d_1 on removal) term for term, and
        # unit degrees stay ints.
        w = self._weight_of[key] if self._is_weighted else 1
        dis, current, expected = self._dis, self._current, self._expected
        du, dv = dis[u], dis[v]
        self._delta += abs(du + w) + abs(dv + w) - (abs(du) + abs(dv))
        self._edge_keys.add(key)
        self._dis_cache = None
        current[u] += w
        current[v] += w
        dis[u] = current[u] - expected[u]
        dis[v] = current[v] - expected[v]

    def remove_edge_ids(self, u: int, v: int) -> None:
        """Stop tracking edge ``(u, v)`` given by CSR ids."""
        key = self._edge_key(u, v)
        if key not in self._edge_keys:
            labels = self._csr.labels
            raise EdgeNotFoundError(labels[u], labels[v])
        w = self._weight_of[key] if self._is_weighted else 1
        dis, current, expected = self._dis, self._current, self._expected
        du, dv = dis[u], dis[v]
        self._delta += abs(du - w) + abs(dv - w) - (abs(du) + abs(dv))
        self._edge_keys.discard(key)
        self._dis_cache = None
        current[u] -= w
        current[v] -= w
        dis[u] = current[u] - expected[u]
        dis[v] = current[v] - expected[v]

    def add_edges_ids(self, edge_u: np.ndarray, edge_v: np.ndarray) -> None:
        """Bulk-track a batch of edges given as endpoint id arrays.

        Equivalent to calling :meth:`add_edge_ids` per edge, except that
        ``current`` is rebuilt with two ``bincount`` calls and ``Δ`` is
        recomputed as ``Σ|dis|`` (see the class docstring for the exactness
        contract).  Raises like the per-edge move on non-graph edges, edges
        already tracked, or duplicates within the batch, and commits
        nothing before the raise.
        """
        edge_u = np.asarray(edge_u, dtype=np.int64)
        edge_v = np.asarray(edge_v, dtype=np.int64)
        self._edge_keys |= self._new_edge_keys(edge_u, edge_v)
        # Every key is a validated graph edge by now, so the vectorized
        # snapshot lookup returns the same stored doubles as the dict.
        w = self.edge_weights_ids(edge_u, edge_v) if self._is_weighted else None
        current = np.array(self._current, dtype=np.float64 if self._is_weighted else np.int64)
        current += np.bincount(edge_u, weights=w, minlength=self._n)
        current += np.bincount(edge_v, weights=w, minlength=self._n)
        dis = current - np.array(self._expected, dtype=np.float64)
        self._current[:] = current.tolist()
        self._dis[:] = dis.tolist()
        dis.flags.writeable = False
        self._dis_cache = dis
        self._delta = float(np.abs(dis).sum())

    def admit_edges_ids(self, edge_u: np.ndarray, edge_v: np.ndarray) -> None:
        """:meth:`add_edge_ids` for each edge of a batch, all or nothing.

        Unlike :meth:`add_edges_ids` (which recomputes ``Δ = Σ|dis|``),
        this accumulates ``Δ`` term by term in batch order.  The whole
        batch is validated first, so the first offending edge in batch
        order raises what :meth:`add_edge_ids` would, before any edge of
        the batch is tracked.
        """
        edge_u = np.asarray(edge_u, dtype=np.int64)
        edge_v = np.asarray(edge_v, dtype=np.int64)
        self._new_edge_keys(edge_u, edge_v)
        for u, v in zip(edge_u.tolist(), edge_v.tolist()):
            self.add_edge_ids(u, v)

    # ------------------------------------------------------------------
    # Hypothetical moves (no mutation)
    # ------------------------------------------------------------------

    def add_change_ids(self, edge_u: np.ndarray, edge_v: np.ndarray) -> np.ndarray:
        """Change in ``Δ`` if each edge were added (paper's ``d_2``), vectorized."""
        return add_change_from_dis(
            self.dis_array(), edge_u, edge_v, self.edge_weights_ids(edge_u, edge_v)
        )

    def remove_change_ids(self, edge_u: np.ndarray, edge_v: np.ndarray) -> np.ndarray:
        """Change in ``Δ`` if each edge were removed (paper's ``d_1``), vectorized."""
        return remove_change_from_dis(
            self.dis_array(), edge_u, edge_v, self.edge_weights_ids(edge_u, edge_v)
        )


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
