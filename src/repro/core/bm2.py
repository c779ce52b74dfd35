"""BM2 — B-Matching with Bipartite Matching (Algorithms 2 and 3).

Phase 1 rounds each node's expected degree ``p·deg_G(u)`` to an integer
capacity ``b(u)`` and runs the linear-time greedy maximal b-matching — every
kept edge fits inside both endpoints' capacities, so no node overshoots its
expectation by more than the rounding itself.

Phase 2 repairs the rounding slack.  Nodes are grouped by their discrepancy
``dis(u)`` after Phase 1:

* group A (``dis ≤ −0.5``): adding an incident edge *reduces* ``|dis|``;
* group B (``−0.5 < dis < 0``): adding an edge increases ``|dis|`` by < 1;
* group C (``dis ≥ 0``): adding an edge costs a full +1.

Only A–B edges can pay for themselves: Lemma 1 gives their gain
``|dis(u)| + 2|dis(v)| − |dis(u)+1| − 1``.  Algorithm 3 (``bipartite``)
greedily consumes the positive-gain A–B edges from a max-priority queue,
re-weighting an A node's remaining edges as its deficit shrinks (gains are
monotone non-increasing, and constant while ``dis(a) ≤ −1`` — Lemma 2), and
retiring nodes that leave their group.  The final edge set is
``E' = E_m ∪ E_BP``.

Zero-gain edges: Algorithm 2 admits them (``gain ≥ 0``) but the paper's
Example 2 notes a zero-gain head "can be selected or discarded according to
user's preference" — the ``accept_zero_gain`` flag (default ``False``,
matching the example's outcome) decides.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.core.base import EdgeShedder, is_int, timed_phase
from repro.core.discrepancy import ArrayDegreeTracker, check_probability_weights
from repro.core.sparsify import edcs_beta, prune_candidates_ids
from repro.errors import ReductionError
from repro.graph.graph import Graph
from repro.graph.matching import greedy_b_matching_ids
from repro.rng import RandomState, ensure_rng

__all__ = [
    "BM2Shedder",
    "bipartite_repair_ids",
    "bm2_reduce_ids",
]

#: Tolerance for float noise in gain/discrepancy comparisons.  Expected
#: degrees are products like ``0.4 * 2`` that are inexact in binary, so a
#: mathematically-zero gain can come out as ~1e-16; snapping keeps the
#: zero-gain policy and the A/B/C classification faithful to the paper.
_EPSILON = 1e-9


def _snap(value: float) -> float:
    """Round values within ``_EPSILON`` of an integer or half-integer."""
    doubled = value * 2.0
    nearest = round(doubled)
    if abs(doubled - nearest) < 2.0 * _EPSILON:
        return nearest / 2.0
    return value

def _snap_array(values: np.ndarray) -> np.ndarray:
    """Vectorized :func:`_snap` over a float array."""
    doubled = values * 2.0
    nearest = np.round(doubled)
    return np.where(np.abs(doubled - nearest) < 2.0 * _EPSILON, nearest * 0.5, values)


#: Supported capacity rounding rules (Phase 1 ablation), vectorized over
#: non-negative ``p·deg`` arrays: ``half_up`` is the paper's nearest
#: integer, ``half_even`` is banker's rounding like ``round``, and int64
#: truncation equals floor for non-negative inputs.
_ROUNDING_RULES = {
    "half_up": lambda x: np.floor(x + 0.5).astype(np.int64),
    "half_even": lambda x: np.round(x).astype(np.int64),
    "floor": lambda x: x.astype(np.int64),
    "ceil": lambda x: np.ceil(x).astype(np.int64),
}


def _weighted_gain(da: float, db: float, w: float) -> float:
    """Algorithm 3's edge gain generalised to an edge of probability mass ``w``.

    Adding ``(a, b)`` changes ``Δ`` by ``|da+w| − |da| + |db+w| − |db|``;
    the gain is the negation, split into the two algebraic regimes:

    * **crossing** (``db + w ≥ 0``): ``b``'s discrepancy crosses zero, so
      ``|db+w| = w − |db|`` and the gain is ``|da| + 2|db| − |da+w| − w`` —
      the Lemma 1 shape.  At ``w = 1`` this branch always fires (group B
      means ``|db| < 0.5 < 1``) and the expression is character-for-character
      the unweighted heap's, so all-ones gains are bit-identical.
    * **non-crossing** (``db + w < 0``): ``b`` stays in deficit and the
      gain simplifies to ``|da| − |da+w| + w``.  Unreachable at ``w = 1``.
    """
    if db + w >= 0:
        return _snap(abs(da) + 2 * abs(db) - abs(da + w) - w)
    return _snap(abs(da) - abs(da + w) + w)


def _gain_array(
    da: float | np.ndarray, db: np.ndarray, w: float | np.ndarray
) -> np.ndarray:
    """Vectorized :func:`_weighted_gain`: snapped gains of A–B edges.

    ``w`` is ``1.0`` or an array of edge weights aligned with ``db``;
    ``da`` is an array, or one A node's scalar ``dis``.  Both branches are
    evaluated with :func:`_weighted_gain`'s expressions and association
    order and selected per edge.  At ``w = 1.0`` every group-B candidate
    (``|dis(b)| < 0.5``) takes the crossing branch, which is Lemma 1's
    ``|dis(a)| + 2|dis(b)| − |dis(a)+1| − 1`` term for term.
    """
    crossing = np.abs(da) + 2.0 * np.abs(db)
    crossing -= np.abs(da + w)
    crossing -= w
    non_crossing = np.abs(da) - np.abs(da + w)
    non_crossing += w
    return _snap_array(np.where(db + w >= 0.0, crossing, non_crossing))


def bipartite_repair_ids(
    tracker: ArrayDegreeTracker,
    cand_ids: np.ndarray,
    cand_a: np.ndarray,
    accept_zero_gain: bool = False,
) -> Tuple[np.ndarray, np.ndarray]:
    """Algorithm 3: greedy weighted semi-matching between groups A and B.

    ``cand_ids`` are the candidates' snapshot edge ids and ``cand_a``
    their A-side endpoints under ``tracker``'s current state.  Returns the
    selected ``(a_ids, b_ids)`` node ids in selection order, A side first;
    the tracker is mutated — every selected edge is added to it.  A
    candidate edge listed twice, or an ``a`` that is not an endpoint of
    its edge, raises :class:`~repro.errors.ReductionError`.

    The paper's algorithm is a max-priority queue: pop the highest-gain
    A–B edge, admit it, retire ``b`` (it left group B), and re-weight or
    retire ``a``'s remaining edges as its deficit shrinks.  Lazy deletion
    is safe because a re-weight never raises a gain.  One loop serves unit
    and weighted trackers: on a weighted tracker (uncertain graphs, after
    Parchas et al.'s expected-degree sparsification) every unit move is
    the edge's weight (:func:`_weighted_gain`), and two behaviours appear
    that are dormant at all-ones weights:

    * a selected edge of weight ``w < |dis(b)|`` leaves ``b`` *inside*
      group B — ``b`` survives with a smaller deficit and its remaining
      pool edges are re-weighted instead of retired;
    * the Lemma 2 plateau starts at ``dis(a) ≤ −max_w`` (the largest
      candidate weight) rather than ``−1``: below it, every incident gain
      is independent of ``dis(a)``, so no re-weight is needed.

    A lazy heap pops entries in ``(gain desc, counter asc)`` order, where
    counters number pool insertions: the initial pool in candidate order,
    then each re-weight push.  Here the initial pool is popped from one
    ``lexsort`` pass (gain descending, then candidate order) merged with a
    heap that holds only re-weighted entries.  The merge pops exactly the
    lazy heap's order because a re-weighted entry always has a larger
    counter than every initial entry, so a tie in gain goes to the initial
    entry, and never a higher gain than the entry just popped, so pops
    still come in non-increasing gain.  ``tests/oracles`` keeps the plain
    lazy heaps (unit and weighted) as references; they select the same
    edges in the same order with the same ``Δ``.

    Gains and re-weights use one fixed association order and one
    :func:`_snap` pipeline, each selection is the tracker's
    :meth:`~ArrayDegreeTracker.add_edge`, and re-weights read its
    :meth:`~ArrayDegreeTracker.dis_list`, so every comparison and the
    final tracker state are deterministic.
    """
    cand_ids = np.asarray(cand_ids, dtype=np.int64)
    cand_a = np.asarray(cand_a, dtype=np.int64)
    empty = np.empty(0, dtype=np.int64)
    k = int(cand_a.shape[0])
    if k == 0:
        return empty, empty.copy()
    masses = tracker.edge_weights(cand_ids)
    edge_u, edge_v = tracker.csr.edge_list_ids()
    end_u, end_v = edge_u[cand_ids], edge_v[cand_ids]
    if not bool(np.all((end_u == cand_a) | (end_v == cand_a))):
        raise ReductionError("a candidate's A side is not an endpoint of its edge")
    cand_b = np.where(end_u == cand_a, end_v, end_u)
    dis = tracker.dis_array()
    n = tracker.num_nodes

    max_w = float(masses.max())
    gains = _gain_array(dis[cand_a], dis[cand_b], masses)

    # The per-edge heap's duplicate check covers every gain >= 0 edge.
    eligible = np.nonzero(gains >= 0.0)[0]
    ids = np.sort(cand_ids[eligible])
    repeats = ids[1:][ids[1:] == ids[:-1]]
    if repeats.shape[0]:
        raise ReductionError(f"duplicate candidate edge id {int(repeats[0])}")

    # Rejected zero-gain edges can be excluded up front: re-weights are
    # non-increasing (|dis(b)| only shrinks, and the crossing/non-crossing
    # branches agree at the |dis(b)| = w boundary), so a zero-gain pool
    # entry could only ever be deleted, never selected.
    pool = eligible if accept_zero_gain else np.nonzero(gains > 0.0)[0]
    if pool.size == 0:
        return empty, empty.copy()

    # Lazy-heap bookkeeping by candidate index: `cur_gain` is the single
    # source of truth (a popped entry is live iff its gain still matches),
    # `alive` marks pool membership, `b_alive` group-B survival.  The loop
    # is scalar Python over plain lists: candidate groups per endpoint are
    # tiny (~1 edge), where list indexing beats numpy fancy indexing.
    cur_gain = gains.tolist()
    ids_l = cand_ids.tolist()
    ca_l = cand_a.tolist()
    cb_l = cand_b.tolist()
    w_l = masses.tolist()
    alive = bytearray(k)
    b_alive = bytearray(n)

    # Incident pool edges grouped by endpoint, ascending candidate index.
    # A unit selection moves dis(b) by 1 > ½, always out of group B, so
    # only weighted runs re-weight a B node's edges and need them grouped.
    by_a_node: Dict[int, List[int]] = {}
    by_b_node: Dict[int, List[int]] = {}
    for idx in pool.tolist():
        alive[idx] = 1
        b_alive[cb_l[idx]] = 1
        by_a_node.setdefault(ca_l[idx], []).append(idx)
    if tracker.weighted:
        for idx in pool.tolist():
            by_b_node.setdefault(cb_l[idx], []).append(idx)

    initial = pool[np.lexsort((pool, -gains[pool]))]
    initial_idx = initial.tolist()
    initial_gain = gains[initial].tolist()
    num_initial = len(initial_idx)
    next_initial = 0
    reweighted: List[Tuple[float, int, int]] = []  # (-gain, counter, cand idx)
    counter = 0
    heappop, heappush = heapq.heappop, heapq.heappush
    dis_l = tracker.dis_list()
    add_edge = tracker.add_edge

    sel_a: List[int] = []
    sel_b: List[int] = []
    while True:
        if next_initial < num_initial and (
            not reweighted or initial_gain[next_initial] >= -reweighted[0][0]
        ):
            idx = initial_idx[next_initial]
            w = initial_gain[next_initial]
            next_initial += 1
        elif reweighted:
            negative_w, _, idx = heappop(reweighted)
            w = -negative_w
        else:
            break
        if not alive[idx] or cur_gain[idx] != w:
            continue  # stale or retired entry
        b = cb_l[idx]
        if not b_alive[b]:
            continue
        a = ca_l[idx]

        sel_a.append(a)
        sel_b.append(b)
        alive[idx] = 0
        add_edge(ids_l[idx])

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
                    heappush(reweighted, (-new_w, counter, eidx))
                    counter += 1
                else:
                    alive[eidx] = 0

        dis_a = _snap(dis_l[a])
        if dis_a <= -max_w:
            # Lemma 2 zone: with dis(a) ≤ −w for every incident weight w,
            # each gain reduces to a dis(a)-free expression.
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
                heappush(reweighted, (-new_w, counter, eidx))
                counter += 1
            else:
                alive[eidx] = 0

    return (
        np.asarray(sel_a, dtype=np.int64),
        np.asarray(sel_b, dtype=np.int64),
    )


def _check_sparsify(sparsify: str, sparsify_beta: "int | None") -> None:
    if sparsify not in ("off", "edcs"):
        raise ValueError(f"sparsify must be 'off' or 'edcs', got {sparsify!r}")
    if sparsify_beta is not None and not (is_int(sparsify_beta) and sparsify_beta >= 1):
        raise ValueError(f"sparsify_beta must be None or an int >= 1, got {sparsify_beta!r}")


class BM2Shedder(EdgeShedder):
    """Algorithm 2: rounded b-matching plus bipartite deficit repair.

    Both phases run over flat CSR-id arrays (:meth:`reduce_ids`, which
    calls :func:`bm2_reduce_ids` with this shedder's settings):
    vectorized capacity rounding, the greedy b-matching scan
    (:func:`greedy_b_matching_ids`), boolean-mask A/B grouping and
    candidate orientation, then Algorithm 3 (:func:`bipartite_repair_ids`).

    Args:
        rounding: capacity rounding rule — ``"half_up"`` (paper's nearest
            integer, the default), ``"half_even"``, ``"floor"``, ``"ceil"``.
        accept_zero_gain: whether Algorithm 3 keeps zero-gain edges.
        shuffle_edges: scan Phase 1's edges in a random order instead of the
            input order (ablation; the paper scans input order).
        sparsify: ``"off"`` (default) feeds Algorithm 3 every unmatched
            A–B edge; ``"edcs"`` first prunes the candidates to a
            bounded-degree subgraph
            (:func:`repro.core.sparsify.prune_candidates_ids`) — near-linear
            Phase 2 with a property-pinned quality bound.
        sparsify_beta: EDCS degree bound ``β``; ``None`` derives the
            default from :func:`repro.core.sparsify.edcs_beta`.
        seed: randomness for ``shuffle_edges``.
    """

    name = "BM2"
    #: Run both phases in expected-degree mass (set by the weighted subclass).
    weighted = False

    def __init__(
        self,
        rounding: str = "half_up",
        accept_zero_gain: bool = False,
        shuffle_edges: bool = False,
        seed: RandomState = None,
        sparsify: str = "off",
        sparsify_beta: "int | None" = None,
    ) -> None:
        if rounding not in _ROUNDING_RULES:
            raise ValueError(
                f"rounding must be one of {sorted(_ROUNDING_RULES)}, got {rounding!r}"
            )
        _check_sparsify(sparsify, sparsify_beta)
        self.rounding = rounding
        self.accept_zero_gain = accept_zero_gain
        self.shuffle_edges = shuffle_edges
        self.sparsify = sparsify
        self.sparsify_beta = sparsify_beta
        self._seed = seed

    def reduce_ids(
        self, csr: "CSRAdjacency", p: float, stats: Dict[str, Any]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Both phases over a CSR snapshot, returning kept edge ids.

        :func:`bm2_reduce_ids` bound to this shedder's settings; ``csr`` is
        a whole-graph snapshot or a per-shard
        :class:`~repro.graph.csr.CSRView` (the sharded runner's case).
        """
        stats["capacity_rounding"] = self.rounding
        if self.weighted:
            stats["weighted"] = True
        return bm2_reduce_ids(
            csr,
            p,
            stats,
            rounding=self.rounding,
            accept_zero_gain=self.accept_zero_gain,
            shuffle_edges=self.shuffle_edges,
            seed=self._seed,
            sparsify=self.sparsify,
            sparsify_beta=self.sparsify_beta,
            weighted=self.weighted,
        )

    def _reduce(self, graph: Graph, p: float) -> Tuple[Graph, Dict[str, Any]]:
        csr = graph.csr()
        stats: Dict[str, Any] = {}
        kept_u, kept_v = self.reduce_ids(csr, p, stats)
        return csr.subgraph_from_edge_ids(kept_u, kept_v), stats


def bm2_reduce_ids(
    csr: "CSRAdjacency",
    p: float,
    stats: Dict[str, Any],
    rounding: str = "half_up",
    accept_zero_gain: bool = False,
    shuffle_edges: bool = False,
    seed: RandomState = None,
    sparsify: str = "off",
    sparsify_beta: "int | None" = None,
    weighted: bool = False,
) -> Tuple[np.ndarray, np.ndarray]:
    """Both BM2 phases over a CSR snapshot, returning kept edge ids.

    The id-native core behind :meth:`BM2Shedder.reduce_ids`; the snapshot
    may equally be a per-shard :class:`repro.graph.csr.CSRView`, in
    which case capacities round the shard's interior degrees and the
    repair runs against shard-local discrepancies.  Kept edges come back
    as ``(u_ids, v_ids)`` — matched edges in scan order followed by the
    repair selections (repair pairs are oriented A-side first, which
    :meth:`CSRAdjacency.subgraph_from_edge_ids` accepts as-is).

    ``sparsify="edcs"`` prunes the A–B candidates to a bounded-degree
    subgraph before Algorithm 3 (``β`` from ``sparsify_beta`` or
    :func:`repro.core.sparsify.edcs_beta`); candidate and selected edges
    stay int64 arrays end to end.

    ``weighted=True`` (uncertain graphs, :mod:`repro.uncertain`) runs the
    whole algorithm in expected-degree mass: capacities round
    ``p·E[deg]``, Phase 1 admits edges by mass (:func:`greedy_b_matching_ids`
    with the weights), and groups and Phase 2's gains come from a weighted
    tracker's discrepancies; Phase 2 is the same
    :func:`bipartite_repair_ids` call either way.  With all weights
    exactly 1.0 every stage degenerates bit-identically, so the kept edge
    arrays equal the unweighted call's.  Weights outside
    ``[0, 1]`` raise :class:`~repro.errors.GraphError` before any work.
    """
    _check_sparsify(sparsify, sparsify_beta)
    if weighted:
        check_probability_weights(csr)
        capacities = _ROUNDING_RULES[rounding](
            p * csr.weighted_degree_array()
        ).astype(np.float64)
    else:
        capacities = _ROUNDING_RULES[rounding](p * csr.degree_array())

    with timed_phase(stats, "phase1_seconds"):
        edge_u, edge_v = csr.edge_list_ids()
        m = edge_u.shape[0]
        if shuffle_edges:
            perm = ensure_rng(seed).permutation(m)
            scan_u, scan_v = edge_u[perm], edge_v[perm]
        else:
            perm = None
            scan_u, scan_v = edge_u, edge_v
        scan_w = None
        if weighted:
            scan_w = csr.edge_weights_array()
            if perm is not None:
                scan_w = scan_w[perm]
        scan_kept = greedy_b_matching_ids(scan_u, scan_v, capacities, scan_w)
        # Matched edge ids in scan order, and a kept-mask over the
        # *unshuffled* scan for the candidate pass.
        matched = np.nonzero(scan_kept)[0]
        if perm is None:
            kept_mask = scan_kept
        else:
            matched = perm[matched]
            kept_mask = np.zeros(m, dtype=bool)
            kept_mask[matched] = True

    with timed_phase(stats, "phase2_seconds"):
        tracker = ArrayDegreeTracker(csr, p, weighted=weighted)
        tracker.add_edges(matched)

        snapped = _snap_array(tracker.dis_array())
        group_a = snapped <= -0.5
        group_b = (snapped > -0.5) & (snapped < 0)

        a_to_b = ~kept_mask & group_a[edge_u] & group_b[edge_v]
        b_to_a = ~kept_mask & group_b[edge_u] & group_a[edge_v]
        position = np.nonzero(a_to_b | b_to_a)[0]
        forward = a_to_b[position]
        cand_a = np.where(forward, edge_u[position], edge_v[position])
        total_candidates = int(position.shape[0])

        beta = 0
        pruned = 0
        if sparsify == "edcs":
            beta = int(sparsify_beta) if sparsify_beta is not None else edcs_beta()
            if total_candidates:
                cand_b = np.where(forward, edge_v[position], edge_u[position])
                dis = tracker.dis_array()
                w = tracker.edge_weights(position) if weighted else 1.0
                cand_gains = _gain_array(dis[cand_a], dis[cand_b], w)
                keep = prune_candidates_ids(cand_a, cand_b, cand_gains, beta)
                pruned = total_candidates - int(keep.shape[0])
                position = position[keep]
                cand_a = cand_a[keep]

        sel_a, sel_b = bipartite_repair_ids(
            tracker, position, cand_a, accept_zero_gain=accept_zero_gain
        )

    kept_u = np.concatenate((edge_u[matched], sel_a))
    kept_v = np.concatenate((edge_v[matched], sel_b))
    stats.update(
        {
            "matched_edges": int(np.count_nonzero(scan_kept)),
            "repair_edges": int(sel_a.shape[0]),
            "group_a_size": int(np.count_nonzero(group_a)),
            "group_b_size": int(np.count_nonzero(group_b)),
            "candidate_edges": total_candidates,
            "tracker_delta": tracker.delta,
            "sparsify": sparsify,
            "sparsify_beta": beta,
            "phase2_candidate_edges_pruned": pruned,
        }
    )
    return kept_u, kept_v
