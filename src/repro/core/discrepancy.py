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
where an edge contributes its weight instead of 1.  The ``weighted_*``
formula variants and :class:`ArrayDegreeTracker`'s ``weighted=True`` mode
implement this with the *same* floating-point expression shapes as the
unweighted paths (``w`` textually replacing ``1.0`` in identical
association order), so with all weights exactly 1.0 every weighted result
is bit-identical to the unweighted tracker's — the degeneration the
property suite pins.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

import numpy as np

from repro.errors import EdgeNotFoundError, InvalidRatioError, ReductionError
from repro.graph.graph import Graph

__all__ = [
    "ArrayDegreeTracker",
    "add_change_from_dis",
    "compute_delta",
    "remove_change_from_dis",
    "round_half_up",
    "swap_change_from_dis",
    "swap_change_scalar_from_dis",
    "weighted_add_change_from_dis",
    "weighted_remove_change_from_dis",
    "weighted_swap_change_from_dis",
    "weighted_swap_change_scalar_from_dis",
]


def round_half_up(value: float) -> int:
    """Round to the nearest integer, halves away from zero.

    The paper writes ``[P]`` for "the nearest integer of P"; Python's
    built-in ``round`` uses banker's rounding, so we pin down half-up
    explicitly to keep targets deterministic and intuitive
    (``round_half_up(4.5) == 5``).
    """
    return int(math.floor(value + 0.5)) if value >= 0 else -int(math.floor(-value + 0.5))


def add_change_from_dis(dis: np.ndarray, edge_u: np.ndarray, edge_v: np.ndarray) -> np.ndarray:
    """Vectorized ``d_2`` (Δ-change of adding each edge) over a ``dis`` array.

    The formula every tracker flavour shares; both
    :meth:`ArrayDegreeTracker.add_change_ids` and the dynamic-maintenance
    tracker (:mod:`repro.dynamic`) delegate here so their scores cannot
    drift apart.
    """
    du, dv = dis[edge_u], dis[edge_v]
    return np.abs(du + 1.0) + np.abs(dv + 1.0) - (np.abs(du) + np.abs(dv))


def remove_change_from_dis(dis: np.ndarray, edge_u: np.ndarray, edge_v: np.ndarray) -> np.ndarray:
    """Vectorized ``d_1`` (Δ-change of removing each edge) over a ``dis`` array."""
    du, dv = dis[edge_u], dis[edge_v]
    return np.abs(du - 1.0) + np.abs(dv - 1.0) - (np.abs(du) + np.abs(dv))


def swap_change_scalar_from_dis(
    dis: np.ndarray, out_u: int, out_v: int, in_u: int, in_v: int
) -> float:
    """Exact joint swap change for one id quadruple (shared endpoints OK)."""
    touched = {out_u, out_v, in_u, in_v}
    shift: Dict[int, int] = dict.fromkeys(touched, 0)
    shift[out_u] -= 1
    shift[out_v] -= 1
    shift[in_u] += 1
    shift[in_v] += 1
    change = 0.0
    for node in touched:
        before = float(dis[node])
        change += abs(before + shift[node]) - abs(before)
    return change


def swap_change_from_dis(
    dis: np.ndarray,
    out_u: np.ndarray,
    out_v: np.ndarray,
    in_u: np.ndarray,
    in_v: np.ndarray,
) -> np.ndarray:
    """Vectorized exact swap change over batches of candidate swaps.

    The vector expression is the disjoint-endpoint ``d_1 + d_2`` sum;
    positions where the outgoing and incoming edges share an endpoint
    (where that sum double-counts the shared node) are recomputed with
    the exact scalar joint formula.
    """
    d_ou, d_ov = dis[out_u], dis[out_v]
    d_iu, d_iv = dis[in_u], dis[in_v]
    change = (
        np.abs(d_ou - 1.0)
        + np.abs(d_ov - 1.0)
        - (np.abs(d_ou) + np.abs(d_ov))
        + np.abs(d_iu + 1.0)
        + np.abs(d_iv + 1.0)
        - (np.abs(d_iu) + np.abs(d_iv))
    )
    shared = (out_u == in_u) | (out_u == in_v) | (out_v == in_u) | (out_v == in_v)
    if shared.any():
        for k in np.nonzero(shared)[0].tolist():
            change[k] = swap_change_scalar_from_dis(
                dis, int(out_u[k]), int(out_v[k]), int(in_u[k]), int(in_v[k])
            )
    return change


def weighted_add_change_from_dis(
    dis: np.ndarray, edge_u: np.ndarray, edge_v: np.ndarray, weight: np.ndarray
) -> np.ndarray:
    """Weighted ``d_2``: adding each edge moves both endpoints by its weight.

    The expression is :func:`add_change_from_dis` with ``weight`` in place
    of ``1.0`` in the same association order, so all-ones weights produce
    bit-identical scores.
    """
    du, dv = dis[edge_u], dis[edge_v]
    return np.abs(du + weight) + np.abs(dv + weight) - (np.abs(du) + np.abs(dv))


def weighted_remove_change_from_dis(
    dis: np.ndarray, edge_u: np.ndarray, edge_v: np.ndarray, weight: np.ndarray
) -> np.ndarray:
    """Weighted ``d_1`` (Δ-change of removing each weighted edge)."""
    du, dv = dis[edge_u], dis[edge_v]
    return np.abs(du - weight) + np.abs(dv - weight) - (np.abs(du) + np.abs(dv))


def weighted_swap_change_scalar_from_dis(
    dis: np.ndarray,
    out_u: int,
    out_v: int,
    in_u: int,
    in_v: int,
    w_out: float,
    w_in: float,
) -> float:
    """Exact joint weighted swap change for one id quadruple.

    With ``w_out == w_in == 1.0`` the per-node shifts equal the integer
    shifts of :func:`swap_change_scalar_from_dis` exactly.
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


def weighted_swap_change_from_dis(
    dis: np.ndarray,
    out_u: np.ndarray,
    out_v: np.ndarray,
    in_u: np.ndarray,
    in_v: np.ndarray,
    w_out: np.ndarray,
    w_in: np.ndarray,
) -> np.ndarray:
    """Vectorized exact weighted swap change over batches of candidate swaps.

    Mirrors :func:`swap_change_from_dis` (disjoint ``d_1 + d_2`` with an
    exact scalar recompute at shared endpoints), with each edge moving its
    endpoints by its own weight.
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
        for k in np.nonzero(shared)[0].tolist():
            change[k] = weighted_swap_change_scalar_from_dis(
                dis,
                int(out_u[k]), int(out_v[k]), int(in_u[k]), int(in_v[k]),
                float(w_out[k]), float(w_in[k]),
            )
    return change


class ArrayDegreeTracker:
    """Incremental ``dis(u)`` / ``Δ`` state over a CSR snapshot's integer ids.

    Construct from a snapshot and ratio ``p``; the tracked edge set starts
    empty (every node sits at ``dis(u) = −p·deg_G(u)``).  ``expected``,
    ``current`` and ``dis`` live in flat arrays, tracked edges are integer
    keys in a hash set, and the ``*_change_ids`` methods evaluate whole
    batches of hypothetical moves in one vectorized call.  The snapshot may
    be a whole-graph export or a per-shard :class:`repro.graph.csr.CSRView`
    — expectations are ``p`` times the snapshot's own degree array, so a
    view tracker scores discrepancy against shard-interior degrees.

    Exactness: ``dis`` slots are always written as ``current - expected``
    (never an incremental drift), and the scalar mutation path accumulates
    ``Δ`` term by term with the paper's ``d_1``/``d_2`` expressions.  Bulk
    :meth:`add_edges_ids` recomputes ``Δ = Σ|dis|`` directly instead —
    bit-identical whenever every ``p·deg`` is exactly representable (e.g.
    ``p = 0.5``), and within float-association noise (≪ 1e-9) otherwise.

    ``weighted=True`` switches every quantity to probability mass:
    expectations become ``p·E[deg]`` (weighted degrees), the tracked
    ``current`` array turns float, and each edge moves its endpoints by its
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
            #: float64[n] — p·E[deg_G(u)] per id (probability-mass mode).
            self._expected = p * csr.weighted_degree_array()
            #: float64[n] — tracked expected degree per id.
            self._current = np.zeros(n, dtype=np.float64)
            #: edge key -> weight, for the scalar mutation paths (memoised
            #: on the snapshot, shared across trackers; read-only here).
            self._weight_of: Dict[int, float] = csr.edge_weight_map()
        else:
            #: float64[n] — p·deg_G(u) per id (Equation 1).
            self._expected = p * csr.degree_array()
            #: int64[n] — tracked degree per id.
            self._current = np.zeros(n, dtype=np.int64)
            self._weight_of = None
        #: float64[n] — current − expected, rewritten per touched slot.
        self._dis = self._current - self._expected
        #: tracked edges as ``min_id * n + max_id`` integer keys.
        self._edge_keys: set = set()
        #: every original-graph edge as an integer key (membership checks;
        #: memoised on the snapshot, shared across trackers).
        self._graph_keys: frozenset = csr.edge_key_set()
        # Python sum in id (= insertion) order: the same float as summing
        # the expectations node by node in graph order.
        self._delta = float(sum(self._expected.tolist()))

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

    def dis_array(self) -> np.ndarray:
        """``float64[n]`` of ``dis`` per CSR id.  Treat as read-only."""
        return self._dis

    def _edge_key(self, u: int, v: int) -> int:
        return (u * self._n + v) if u < v else (v * self._n + u)

    def edge_weights_ids(self, edge_u: np.ndarray, edge_v: np.ndarray) -> np.ndarray:
        """``float64`` weights of graph edges given as id arrays."""
        if not self._is_weighted:
            return np.ones(int(np.asarray(edge_u).shape[0]), dtype=np.float64)
        return self._csr.edge_weights_for(
            np.asarray(edge_u, dtype=np.int64), np.asarray(edge_v, dtype=np.int64)
        )

    # ------------------------------------------------------------------
    # Mutation (scalar, term-by-term Δ accumulation)
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
        # below are the paper's d_2 (and d_1 on removal) term for term.
        w = self._weight_of[key] if self._is_weighted else 1
        dis = self._dis
        du, dv = float(dis[u]), float(dis[v])
        self._delta += abs(du + w) + abs(dv + w) - (abs(du) + abs(dv))
        self._edge_keys.add(key)
        current, expected = self._current, self._expected
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
        dis = self._dis
        du, dv = float(dis[u]), float(dis[v])
        self._delta += abs(du - w) + abs(dv - w) - (abs(du) + abs(dv))
        self._edge_keys.discard(key)
        current, expected = self._current, self._expected
        current[u] -= w
        current[v] -= w
        dis[u] = current[u] - expected[u]
        dis[v] = current[v] - expected[v]

    def apply_swap_ids(self, out_u: int, out_v: int, in_u: int, in_v: int) -> None:
        """Remove edge ``(out_u, out_v)``, then add ``(in_u, in_v)``."""
        self.remove_edge_ids(out_u, out_v)
        self.add_edge_ids(in_u, in_v)

    def add_edges_ids(self, edge_u: np.ndarray, edge_v: np.ndarray) -> None:
        """Bulk-track a batch of edges given as endpoint id arrays.

        Equivalent to calling :meth:`add_edge_ids` per edge, except that
        ``current`` is rebuilt with two ``bincount`` calls and ``Δ`` is
        recomputed as ``Σ|dis|`` (see the class docstring for the exactness
        contract).  Raises like the scalar path on non-graph edges, edges
        already tracked, or duplicates within the batch.
        """
        edge_u = np.asarray(edge_u, dtype=np.int64)
        edge_v = np.asarray(edge_v, dtype=np.int64)
        n = self._n
        keys = (np.minimum(edge_u, edge_v) * n + np.maximum(edge_u, edge_v)).tolist()
        new_keys = set(keys)
        if len(new_keys) != len(keys) or (new_keys & self._edge_keys):
            seen: set = set(self._edge_keys)
            for key, u, v in zip(keys, edge_u.tolist(), edge_v.tolist()):
                if key in seen:
                    labels = self._csr.labels
                    raise ReductionError(
                        f"edge ({labels[u]!r}, {labels[v]!r}) is already tracked"
                    )
                seen.add(key)
        if not new_keys <= self._graph_keys:
            for key, u, v in zip(keys, edge_u.tolist(), edge_v.tolist()):
                if key not in self._graph_keys:
                    labels = self._csr.labels
                    raise EdgeNotFoundError(labels[u], labels[v])
        self._edge_keys |= new_keys
        if self._is_weighted:
            # Every key is a validated graph edge by now, so the vectorized
            # snapshot lookup returns the same stored doubles as the dict.
            w = self._csr.edge_weights_for(edge_u, edge_v)
            self._current += np.bincount(edge_u, weights=w, minlength=n)
            self._current += np.bincount(edge_v, weights=w, minlength=n)
        else:
            self._current += np.bincount(edge_u, minlength=n)
            self._current += np.bincount(edge_v, minlength=n)
        np.subtract(self._current, self._expected, out=self._dis)
        self._delta = float(np.abs(self._dis).sum())

    def admit_edges_ids(self, edge_u: np.ndarray, edge_v: np.ndarray) -> None:
        """Bulk :meth:`add_edge_ids` with the scalar path's exact ``Δ`` order.

        Unlike :meth:`add_edges_ids` (which recomputes ``Δ = Σ|dis|``),
        this accumulates ``Δ`` term by term in batch order — bit-identical
        to calling :meth:`add_edge_ids` per edge.  When every endpoint in
        the batch is distinct the per-edge terms are evaluated in one
        vectorized pass (no term can depend on an earlier edge's update);
        batches with repeated endpoints fall back to the scalar loop.
        Validation matches the scalar path: the first offending edge in
        batch order raises.  On the vectorized path nothing is committed
        before the raise; the scalar fallback commits the edges preceding
        the offender, exactly like per-edge :meth:`add_edge_ids` calls.
        """
        edge_u = np.asarray(edge_u, dtype=np.int64)
        edge_v = np.asarray(edge_v, dtype=np.int64)
        count = int(edge_u.shape[0])
        if count == 0:
            return
        endpoints = np.concatenate((edge_u, edge_v))
        if np.unique(endpoints).shape[0] != 2 * count:
            for u, v in zip(edge_u.tolist(), edge_v.tolist()):
                self.add_edge_ids(u, v)
            return
        n = self._n
        keys = (np.minimum(edge_u, edge_v) * n + np.maximum(edge_u, edge_v)).tolist()
        key_set = set(keys)
        if not key_set <= self._graph_keys or (key_set & self._edge_keys):
            labels = self._csr.labels
            for key, u, v in zip(keys, edge_u.tolist(), edge_v.tolist()):
                if key not in self._graph_keys:
                    raise EdgeNotFoundError(labels[u], labels[v])
                if key in self._edge_keys:
                    raise ReductionError(
                        f"edge ({labels[u]!r}, {labels[v]!r}) is already tracked"
                    )
        if self._is_weighted:
            # Keys are validated graph edges; the vectorized snapshot lookup
            # returns the same stored doubles as the dict.
            w = self._csr.edge_weights_for(edge_u, edge_v)
            terms = weighted_add_change_from_dis(self._dis, edge_u, edge_v, w)
        else:
            terms = add_change_from_dis(self._dis, edge_u, edge_v)
        delta = self._delta
        for term in terms.tolist():
            delta += term
        self._delta = delta
        self._edge_keys |= key_set
        current, expected, dis = self._current, self._expected, self._dis
        if self._is_weighted:
            current[edge_u] += w
            current[edge_v] += w
        else:
            current[edge_u] += 1
            current[edge_v] += 1
        dis[edge_u] = current[edge_u] - expected[edge_u]
        dis[edge_v] = current[edge_v] - expected[edge_v]

    def export_scalar_state(self) -> Tuple[List[float], List[float], List[float], float]:
        """Python-list mirrors of ``(dis, current, expected)`` plus ``Δ``.

        For scalar-heavy phases (the weighted repair heap) that interleave
        thousands of single-edge adds with scalar ``dis`` reads: plain-list
        arithmetic runs several times faster than numpy scalar indexing,
        and running :meth:`add_edge_ids`'s expressions over the mirrors
        keeps every intermediate bit-identical to the per-edge path.
        Mutated mirrors commit back via :meth:`absorb_scalar_state`; the
        tracker's own arrays must not be touched in between.
        """
        return (
            self._dis.tolist(),
            self._current.tolist(),
            self._expected.tolist(),
            self._delta,
        )

    def absorb_scalar_state(
        self,
        dis: List[float],
        current: List[float],
        delta: float,
        added_u: List[int],
        added_v: List[int],
    ) -> None:
        """Commit mirrors from :meth:`export_scalar_state` plus edges added.

        ``added_u``/``added_v`` list the ids of the edges the caller added
        to the mirrors (validated like :meth:`add_edge_ids`: each must be
        an original-graph edge that is not already tracked).
        """
        n = self._n
        keys = [
            (u * n + v) if u < v else (v * n + u)
            for u, v in zip(added_u, added_v)
        ]
        new_keys = set(keys)
        if len(new_keys) != len(keys) or (new_keys & self._edge_keys):
            seen: set = set(self._edge_keys)
            for key, u, v in zip(keys, added_u, added_v):
                if key in seen:
                    labels = self._csr.labels
                    raise ReductionError(
                        f"edge ({labels[u]!r}, {labels[v]!r}) is already tracked"
                    )
                seen.add(key)
        if not new_keys <= self._graph_keys:
            for key, u, v in zip(keys, added_u, added_v):
                if key not in self._graph_keys:
                    labels = self._csr.labels
                    raise EdgeNotFoundError(labels[u], labels[v])
        self._edge_keys |= new_keys
        self._dis[:] = dis
        self._current[:] = current
        self._delta = delta

    # ------------------------------------------------------------------
    # Hypothetical moves (no mutation)
    # ------------------------------------------------------------------

    def swap_change_scalar_ids(self, out_u: int, out_v: int, in_u: int, in_v: int) -> float:
        """Exact joint swap change for one id quadruple (shared endpoints OK)."""
        if self._is_weighted:
            return weighted_swap_change_scalar_from_dis(
                self._dis, out_u, out_v, in_u, in_v,
                self._weight_of[self._edge_key(out_u, out_v)],
                self._weight_of[self._edge_key(in_u, in_v)],
            )
        return swap_change_scalar_from_dis(self._dis, out_u, out_v, in_u, in_v)

    def add_change_ids(self, edge_u: np.ndarray, edge_v: np.ndarray) -> np.ndarray:
        """Change in ``Δ`` if each edge were added (paper's ``d_2``), vectorized."""
        if self._is_weighted:
            return weighted_add_change_from_dis(
                self._dis, edge_u, edge_v, self.edge_weights_ids(edge_u, edge_v)
            )
        return add_change_from_dis(self._dis, edge_u, edge_v)

    def remove_change_ids(self, edge_u: np.ndarray, edge_v: np.ndarray) -> np.ndarray:
        """Change in ``Δ`` if each edge were removed (paper's ``d_1``), vectorized."""
        if self._is_weighted:
            return weighted_remove_change_from_dis(
                self._dis, edge_u, edge_v, self.edge_weights_ids(edge_u, edge_v)
            )
        return remove_change_from_dis(self._dis, edge_u, edge_v)

    def swap_change_ids(
        self,
        out_u: np.ndarray,
        out_v: np.ndarray,
        in_u: np.ndarray,
        in_v: np.ndarray,
    ) -> np.ndarray:
        """Exact joint ``Δ`` change of each candidate swap, vectorized.

        Every entry matches :meth:`swap_change_scalar_ids` for the same pair
        of edges, including shared-endpoint pairs, where the paper's
        independent ``d_1 + d_2`` would double-count the shared node (see
        :func:`swap_change_from_dis`).
        """
        if self._is_weighted:
            return weighted_swap_change_from_dis(
                self._dis, out_u, out_v, in_u, in_v,
                self.edge_weights_ids(out_u, out_v),
                self.edge_weights_ids(in_u, in_v),
            )
        return swap_change_from_dis(self._dis, out_u, out_v, in_u, in_v)


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
        # is bit-identical.
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
