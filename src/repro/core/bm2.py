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

from repro.core.base import EdgeShedder, timed_phase
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
    "weighted_bipartite_repair_ids",
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


def bipartite_repair_ids(
    tracker: ArrayDegreeTracker,
    cand_a: np.ndarray,
    cand_b: np.ndarray,
    accept_zero_gain: bool = False,
) -> Tuple[np.ndarray, np.ndarray]:
    """Algorithm 3: greedy weighted semi-matching between groups A and B.

    ``cand_a``/``cand_b`` are int64 CSR-id arrays oriented A-side first
    under ``tracker``'s current state.  Returns the selected ``(a_ids,
    b_ids)`` in selection order; the tracker is mutated — every selected
    edge is added to it.

    The paper's algorithm is a max-priority queue: pop the highest-gain
    A–B edge, admit it, retire ``b`` (it left group B), and re-weight or
    retire ``a``'s remaining edges as its deficit shrinks.  Lazy deletion
    is safe because gains only ever decrease.  This is that queue replayed
    in gain buckets, and why it is *exactly* the queue, not an
    approximation of it:

    * The queue pops entries in ``(gain desc, counter asc)`` order, where
      counters number pool insertions.  Initial insertions happen in
      candidate order and every re-weight push gets a fresh, larger
      counter — so one ``lexsort`` over (−gain, candidate index) replays
      the initial pool, and a small ``heapq`` of demoted entries replays
      the pushes.  Within one gain value ("bucket") all initial entries
      precede all demoted ones.
    * A re-weight strictly *lowers* an edge's gain (the demoting A node's
      deficit offset ``φ = dis(a)+1`` is > ε after snapping, so the new
      weight ``old − 2φ`` cannot snap back up), hence a bucket never
      grows while being processed and descending-run iteration is safe.
    * Gains, re-weights and ``Δ`` accumulation use Lemma 1's expression
      ``|dis(a)| + 2|dis(b)| − |dis(a)+1| − 1`` in one fixed association
      order and one :func:`_snap` pipeline, evaluated over the in-place
      ``dis`` array, so every comparison is deterministic.

    Initial gains are one vectorized pass, never-selected candidates (the
    dominant case) cost no queue operations, stale entries are skipped by
    an int8 state array, and each A-node re-weight is one vectorized
    batch.  ``tests/oracles`` keeps the lazy-heap form; the two select the
    same edges in the same order.
    """
    cand_a = np.asarray(cand_a, dtype=np.int64)
    cand_b = np.asarray(cand_b, dtype=np.int64)
    empty = np.empty(0, dtype=np.int64)
    k = int(cand_a.shape[0])
    if k == 0:
        return empty, empty.copy()
    dis = tracker.dis_array()
    n = tracker.num_nodes

    # Initial gains: same expression and association order as the heap's
    # per-edge `_snap(abs(dis(a)) + 2*abs(dis(b)) - abs(dis(a) + 1) - 1)`.
    gains = _gain_array(dis[cand_a], dis[cand_b], 1.0)

    # The heap admits every gain >= 0 edge to the pool (zero-gain edges are
    # only dropped at pop time), so its duplicate check covers them all.
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

    # Zero-gain edges, when rejected, are dropped by the heap at pop time
    # with no side effect (a re-weight could only delete them: the new
    # weight is strictly below zero) — so they can be excluded up front.
    if accept_zero_gain:
        alive = eligible
    else:
        alive = np.nonzero(gains > 0.0)[0]
    if alive.size == 0:
        return empty, empty.copy()

    #: 0 = pool (initial weight), 1 = pool (demoted weight), 2 = gone.
    state = np.full(k, 2, dtype=np.int8)
    state[alive] = 0
    b_dead = np.zeros(n, dtype=bool)
    a_retired = np.zeros(n, dtype=bool)

    # Main replay order: descending gain, candidate order within a gain.
    order = np.lexsort((alive, -gains[alive]))
    ms_idx = alive[order]
    ms_gain = gains[alive][order]
    run_starts = np.nonzero(np.concatenate(([True], ms_gain[1:] != ms_gain[:-1])))[0]
    run_ends = np.append(run_starts[1:], ms_gain.shape[0])
    run_gains = ms_gain[run_starts]

    # Pool edges grouped by A node (ascending candidate index within a
    # group — the heap's `edges_by_a` scan order) for re-weight batches.
    by_a = alive[np.argsort(cand_a[alive], kind="stable")]
    uniq_a, group_starts = np.unique(cand_a[by_a], return_index=True)
    group_bounds = np.append(group_starts, by_a.shape[0])
    a_slices = {
        int(node): (int(group_starts[j]), int(group_bounds[j + 1]))
        for j, node in enumerate(uniq_a.tolist())
    }

    ca = cand_a.tolist()
    cb = cand_b.tolist()
    add_edge_ids = tracker.add_edge_ids
    sel_a: List[int] = []
    sel_b: List[int] = []
    demoted: List[Tuple[float, int, int]] = []  # (-gain, counter, cand idx)
    counter = k
    run = 0
    num_runs = int(run_gains.shape[0])

    while run < num_runs or demoted:
        gain_main = float(run_gains[run]) if run < num_runs else None
        gain_dem = -demoted[0][0] if demoted else None
        bucket_gain = (
            gain_main
            if gain_dem is None or (gain_main is not None and gain_main >= gain_dem)
            else gain_dem
        )
        bucket: List[int] = []
        dem_from = 0
        if gain_main is not None and gain_main == bucket_gain:
            seg = ms_idx[run_starts[run] : run_ends[run]]
            seg = seg[
                (state[seg] == 0)
                & ~b_dead[cand_b[seg]]
                & ~a_retired[cand_a[seg]]
            ]
            bucket.extend(seg.tolist())
            dem_from = len(bucket)
            run += 1
        while demoted and -demoted[0][0] == bucket_gain:
            bucket.append(heapq.heappop(demoted)[2])

        for pos, idx in enumerate(bucket):
            # Initial-weight entries require state 0, demoted ones state 1
            # (an entry demoted mid-bucket must not also admit at its old
            # weight); counters guarantee initial entries come first.
            if state[idx] != (0 if pos < dem_from else 1):
                continue
            a = ca[idx]
            b = cb[idx]
            if b_dead[b] or a_retired[a]:
                continue

            state[idx] = 2
            add_edge_ids(a, b)
            sel_a.append(a)
            sel_b.append(b)
            b_dead[b] = True

            dis_a = _snap(float(dis[a]))
            if dis_a <= -1:
                continue  # Lemma 2 zone: a's other gains are unchanged.
            if dis_a > -0.5:
                a_retired[a] = True
                continue
            # -1 < dis(a) <= -0.5: re-weight a's surviving pool edges.
            lo, hi = a_slices[a]
            group = by_a[lo:hi]
            surviving = group[(state[group] == 0) & ~b_dead[cand_b[group]]]
            if surviving.size == 0:
                continue
            new_w = _gain_array(dis_a, dis[cand_b[surviving]], 1.0)
            keep = new_w >= 0.0 if accept_zero_gain else new_w > 0.0
            state[surviving] = np.where(keep, np.int8(1), np.int8(2))
            for weight, edge_idx in zip(new_w[keep].tolist(), surviving[keep].tolist()):
                heapq.heappush(demoted, (-weight, counter, edge_idx))
                counter += 1

    return (
        np.asarray(sel_a, dtype=np.int64),
        np.asarray(sel_b, dtype=np.int64),
    )


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


def weighted_bipartite_repair_ids(
    tracker: ArrayDegreeTracker,
    cand_a: np.ndarray,
    cand_b: np.ndarray,
    accept_zero_gain: bool = False,
) -> Tuple[np.ndarray, np.ndarray]:
    """Algorithm 3 over *expected-degree mass*: the uncertain-graph repair.

    Algorithm 3's lazy max-heap (see :func:`bipartite_repair_ids`), with
    every unit move replaced by the edge's weight (:func:`_weighted_gain`).  Two behaviours
    appear that the unit-weight algorithm cannot exhibit, both dormant at
    all-ones weights:

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
    :func:`bipartite_repair_ids`.  Requires ``tracker.weighted`` (weights
    in ``[0, 1]``; :mod:`repro.graph.io` clamps on read).  The tracker is
    mutated: every selected edge is added.  Returns selected ``(a_ids,
    b_ids)`` in selection order.
    """
    if not tracker.weighted:
        raise ValueError("weighted_bipartite_repair_ids requires a weighted tracker")
    cand_a = np.asarray(cand_a, dtype=np.int64)
    cand_b = np.asarray(cand_b, dtype=np.int64)
    empty = np.empty(0, dtype=np.int64)
    k = int(cand_a.shape[0])
    if k == 0:
        return empty, empty.copy()
    dis = tracker.dis_array()
    n = tracker.num_nodes

    masses = tracker.edge_weights_ids(cand_a, cand_b)
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

    # Scalar mirrors of the tracker state: each selection runs
    # `add_edge_ids`'s float expressions over plain lists (bit-identical,
    # several times faster than numpy scalar indexing), committed back in
    # one `absorb_scalar_state` call at the end.
    dis_l, current_l, expected_l, delta_acc = tracker.export_scalar_state()

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
        w_sel = w_l[idx]
        du, dv = dis_l[a], dis_l[b]
        delta_acc += abs(du + w_sel) + abs(dv + w_sel) - (abs(du) + abs(dv))
        current_l[a] += w_sel
        current_l[b] += w_sel
        dis_l[a] = current_l[a] - expected_l[a]
        dis_l[b] = current_l[b] - expected_l[b]

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

    tracker.absorb_scalar_state(dis_l, current_l, delta_acc, sel_a, sel_b)
    return (
        np.asarray(sel_a, dtype=np.int64),
        np.asarray(sel_b, dtype=np.int64),
    )


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
        if sparsify not in ("off", "edcs"):
            raise ValueError(f"sparsify must be 'off' or 'edcs', got {sparsify!r}")
        if sparsify_beta is not None and sparsify_beta < 1:
            raise ValueError(f"sparsify_beta must be positive, got {sparsify_beta}")
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
    with the weights), groups come from a weighted tracker's discrepancies,
    and Phase 2 runs the weighted repair heap
    (:func:`weighted_bipartite_repair_ids`).  With
    all weights exactly 1.0 every stage degenerates bit-identically, so
    the kept edge arrays equal the unweighted call's.  Weights outside
    ``[0, 1]`` raise :class:`~repro.errors.GraphError` before any work.
    """
    if sparsify not in ("off", "edcs"):
        raise ValueError(f"sparsify must be 'off' or 'edcs', got {sparsify!r}")
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
        matched_u, matched_v = scan_u[scan_kept], scan_v[scan_kept]
        # Kept-mask over the *unshuffled* scan, for the candidate pass.
        if perm is None:
            kept_mask = scan_kept
        else:
            kept_mask = np.zeros(m, dtype=bool)
            kept_mask[perm[scan_kept]] = True

    with timed_phase(stats, "phase2_seconds"):
        tracker = ArrayDegreeTracker(csr, p, weighted=weighted)
        tracker.add_edges_ids(matched_u, matched_v)

        snapped = _snap_array(tracker.dis_array())
        group_a = snapped <= -0.5
        group_b = (snapped > -0.5) & (snapped < 0)

        a_to_b = ~kept_mask & group_a[edge_u] & group_b[edge_v]
        b_to_a = ~kept_mask & group_b[edge_u] & group_a[edge_v]
        position = np.nonzero(a_to_b | b_to_a)[0]
        forward = a_to_b[position]
        cand_a = np.where(forward, edge_u[position], edge_v[position])
        cand_b = np.where(forward, edge_v[position], edge_u[position])
        total_candidates = int(position.shape[0])

        beta = 0
        pruned = 0
        if sparsify == "edcs":
            beta = int(sparsify_beta) if sparsify_beta is not None else edcs_beta()
            if total_candidates:
                dis = tracker.dis_array()
                w = tracker.edge_weights_ids(cand_a, cand_b) if weighted else 1.0
                cand_gains = _gain_array(dis[cand_a], dis[cand_b], w)
                keep = prune_candidates_ids(cand_a, cand_b, cand_gains, beta)
                pruned = total_candidates - int(keep.shape[0])
                cand_a = cand_a[keep]
                cand_b = cand_b[keep]

        if weighted:
            sel_a, sel_b = weighted_bipartite_repair_ids(
                tracker, cand_a, cand_b, accept_zero_gain=accept_zero_gain
            )
        else:
            sel_a, sel_b = bipartite_repair_ids(
                tracker, cand_a, cand_b, accept_zero_gain=accept_zero_gain
            )

    kept_u = np.concatenate((matched_u, sel_a))
    kept_v = np.concatenate((matched_v, sel_b))
    stats.update(
        {
            "matched_edges": int(np.count_nonzero(scan_kept)),
            "repair_edges": int(sel_a.shape[0]),
            "group_a_size": int(np.count_nonzero(group_a)),
            "group_b_size": int(np.count_nonzero(group_b)),
            "candidate_edges": total_candidates,
            "tracker_delta": tracker.delta,
            "repair_engine": "weighted-heap" if weighted else "bucket",
            "sparsify": sparsify,
            "sparsify_beta": beta,
            "phase2_candidate_edges_pruned": pruned,
        }
    )
    return kept_u, kept_v
