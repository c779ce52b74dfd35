"""CRR — Centrality Ranking with Rewiring (Algorithm 1).

Phase 1 keeps the ``[P] = [p·|E|]`` edges of highest *edge betweenness
centrality* (ties broken randomly, as the paper specifies), preserving the
bridges that hold the topology together.  Phase 2 runs ``steps`` random
swap attempts: pick ``e₁`` from the kept set and ``e₂`` from the shed set,
and exchange them iff doing so lowers the total degree discrepancy ``Δ``.
The edge count stays exactly ``[P]`` throughout, so the expected average
degree target (Equation 2) holds at every step.

Faithfulness notes:

* The paper accepts a swap when ``d₁ + d₂ < 0`` with ``d₁``/``d₂`` computed
  independently (lines 10-11).  When ``e₁`` and ``e₂`` share an endpoint the
  independent sum double-counts that node; we evaluate the *exact* joint
  change (:meth:`ArrayDegreeTracker.swap_change_ids`), which is identical whenever
  the edges are disjoint — the overwhelmingly common case — and guarantees
  the invariant that an accepted swap never increases ``Δ``.
* ``steps`` defaults to ``[10·P]``, the setting the paper selects from its
  Figure 4 sweep; the ``steps_factor`` knob reproduces that sweep.
* For large graphs, exact Brandes betweenness is the bottleneck; pass
  ``num_betweenness_sources`` to switch Phase 1 to the sampled estimator
  (the resource-constrained operating mode).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.base import EdgeShedder, timed_phase
from repro.core.discrepancy import (
    ArrayDegreeTracker,
    check_probability_weights,
    round_half_up,
    swap_change_from_dis,
)
from repro.graph.centrality import top_edge_ids_by_betweenness
from repro.graph.graph import Edge, Graph
from repro.rng import RandomState, ensure_rng

__all__ = ["CRRShedder", "IndexedEdgePool"]

#: A swap must improve Δ by more than this to be accepted; filters float
#: noise that would otherwise let mathematically-zero-change swaps through.
_MIN_IMPROVEMENT = 1e-9

#: Swap-candidate index pairs are pre-drawn from the RNG this many steps at
#: a time (bounds memory for huge ``steps`` without changing the stream).
_DRAW_BLOCK = 65536

#: Adaptive evaluation chunk bounds for the array rewiring loop: chunks
#: double after an all-reject chunk and halve after an acceptance, so the
#: loop spends large vectorized batches where acceptances are rare and
#: small ones where every acceptance invalidates the tail of the batch.
_MIN_CHUNK = 64
_MAX_CHUNK = 4096


class IndexedEdgePool:
    """An edge set supporting O(1) random sampling, insertion and removal.

    CRR's rewiring loop samples uniformly from both the kept and the shed
    edge pools on every iteration; a list with swap-pop removal plus a
    position index gives all three operations in constant time.
    """

    def __init__(self, edges: Iterable[Edge] = ()) -> None:
        self._items: List[Edge] = []
        self._position: Dict[Edge, int] = {}
        for edge in edges:
            self.add(edge)

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, edge: Edge) -> bool:
        return edge in self._position

    def add(self, edge: Edge) -> None:
        if edge in self._position:
            raise ValueError(f"edge {edge!r} already in pool")
        self._position[edge] = len(self._items)
        self._items.append(edge)

    def remove(self, edge: Edge) -> None:
        index = self._position.pop(edge)  # KeyError for unknown edges
        last = self._items.pop()
        if index < len(self._items):
            self._items[index] = last
            self._position[last] = index

    def sample(self, rng: np.random.Generator) -> Edge:
        if not self._items:
            raise IndexError("cannot sample from an empty pool")
        return self._items[int(rng.integers(len(self._items)))]

    def items(self) -> List[Edge]:
        return list(self._items)


class CRRShedder(EdgeShedder):
    """Algorithm 1: betweenness-ranked selection + Δ-reducing rewiring.

    Both phases run over the graph's CSR snapshot (:meth:`reduce_ids`):
    Phase 1 ranks edge ids (:func:`crr_initial_ids`), and Phase 2 rewires
    flat id arrays with block-drawn swap candidates and batched Δ-change
    evaluation (:func:`crr_rewire_ids`).

    Args:
        steps: explicit number of rewiring iterations.  ``None`` (default)
            uses the paper's recommendation ``[steps_factor · P]``.
        steps_factor: the ``x`` in ``steps = [x·P]`` (paper: 10).
        num_betweenness_sources: if set, estimate edge betweenness from this
            many sampled sources instead of exactly (for large graphs).
        importance: Phase 1's edge-importance signal — ``"betweenness"``
            (the paper's choice, default) or ``"random"`` (the ablation that
            isolates what the ranking buys).
        seed: randomness for tie-breaking, swap sampling, and the sampled
            betweenness estimator.
    """

    name = "CRR"
    #: Rewire against expected-degree mass (set by the weighted subclass).
    weighted = False

    def __init__(
        self,
        steps: Optional[int] = None,
        steps_factor: float = 10.0,
        num_betweenness_sources: Optional[int] = None,
        importance: str = "betweenness",
        seed: RandomState = None,
    ) -> None:
        if steps is not None and steps < 0:
            raise ValueError(f"steps must be non-negative, got {steps}")
        if steps_factor < 0:
            raise ValueError(f"steps_factor must be non-negative, got {steps_factor}")
        if importance not in ("betweenness", "random"):
            raise ValueError(
                f"importance must be 'betweenness' or 'random', got {importance!r}"
            )
        self.steps = steps
        self.steps_factor = steps_factor
        self.num_betweenness_sources = num_betweenness_sources
        self.importance = importance
        self._seed = seed

    def reduce_ids(
        self, csr: "CSRAdjacency", p: float, stats: Dict[str, Any]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Both phases over a CSR snapshot, returning kept edge ids.

        ``csr`` is a whole-graph snapshot or a per-shard
        :class:`~repro.graph.csr.CSRView` (the sharded runner's case); each
        call draws a fresh generator from the seed.  The weighted subclass
        rewires against expected-degree mass (see :func:`crr_rewire_ids`);
        Phase 1's betweenness ranking stays purely topological either way.
        Weights outside ``[0, 1]`` raise :class:`~repro.errors.GraphError`
        before any work.
        """
        stats["initial_ranking"] = self.importance
        if self.weighted:
            stats["weighted"] = True
            check_probability_weights(csr)
        target = round_half_up(p * csr.num_edges)
        steps = self.steps
        if steps is None:
            steps = round_half_up(self.steps_factor * p * csr.num_edges)
        stats["target_edges"] = target
        stats["steps"] = steps
        rng = ensure_rng(self._seed)
        with timed_phase(stats, "ranking_seconds"):
            kept_u, kept_v = crr_initial_ids(
                csr, target, self.importance, self.num_betweenness_sources, rng
            )
        with timed_phase(stats, "rewiring_seconds"):
            kept_u, kept_v = crr_rewire_ids(
                csr, p, kept_u, kept_v, steps, rng, stats, weighted=self.weighted
            )
        return kept_u, kept_v

    def _reduce(self, graph: Graph, p: float) -> Tuple[Graph, Dict[str, Any]]:
        csr = graph.csr()
        stats: Dict[str, Any] = {}
        kept_u, kept_v = self.reduce_ids(csr, p, stats)
        return csr.subgraph_from_edge_ids(kept_u, kept_v), stats


def _run_swaps(
    tracker: ArrayDegreeTracker,
    rng: np.random.Generator,
    kept_u: np.ndarray,
    kept_v: np.ndarray,
    shed_u: np.ndarray,
    shed_v: np.ndarray,
    steps: int,
) -> int:
    """Run ``steps`` swap attempts over the array pools; return accepts."""
    pool_sizes = np.tile(
        np.array([kept_u.shape[0], shed_u.shape[0]], dtype=np.int64), _DRAW_BLOCK
    )
    last = kept_u.shape[0] - 1
    accepted = 0
    done = 0
    chunk = _MIN_CHUNK
    weighted = tracker.weighted
    if weighted:
        # Pool weights are static per edge: resolve them once and mirror
        # the swap-pop bookkeeping below, instead of a searchsorted
        # lookup per candidate chunk.  The stored doubles are the same
        # ones ``swap_change_ids`` would fetch, so scores are identical.
        kept_w = tracker.edge_weights_ids(kept_u, kept_v)
        shed_w = tracker.edge_weights_ids(shed_u, shed_v)
    dis = tracker.dis_array()  # live view; apply_swap_ids updates it
    while done < steps:
        block = min(_DRAW_BLOCK, steps - done)
        # One broadcast call = 2·block alternating scalar
        # integers(P)/integers(S) draws (one pair per swap), bit for bit.
        draws = rng.integers(0, pool_sizes[: 2 * block])
        kept_idx = draws[0::2]
        shed_idx = draws[1::2]
        pos = 0
        while pos < block:
            end = min(pos + chunk, block)
            out_u = kept_u[kept_idx[pos:end]]
            out_v = kept_v[kept_idx[pos:end]]
            in_u = shed_u[shed_idx[pos:end]]
            in_v = shed_v[shed_idx[pos:end]]
            change = swap_change_from_dis(
                dis, out_u, out_v, in_u, in_v,
                kept_w[kept_idx[pos:end]] if weighted else 1.0,
                shed_w[shed_idx[pos:end]] if weighted else 1.0,
            )
            accept = change < -_MIN_IMPROVEMENT
            if not accept.any():
                # Every decision in the chunk was made from live state.
                pos = end
                chunk = min(chunk * 2, _MAX_CHUNK)
                continue
            # Decisions are only valid up to the first acceptance: apply
            # it, then re-evaluate the tail from the mutated state.
            hit = int(np.argmax(accept))
            ou, ov = int(out_u[hit]), int(out_v[hit])
            iu, iv = int(in_u[hit]), int(in_v[hit])
            tracker.apply_swap_ids(ou, ov, iu, iv)
            i = int(kept_idx[pos + hit])
            j = int(shed_idx[pos + hit])
            # Mirror IndexedEdgePool's swap-pop bookkeeping: the kept
            # pool's last edge backfills slot i, the incoming edge takes
            # the last slot, and the outgoing edge lands in shed slot j.
            kept_u[i] = kept_u[last]
            kept_v[i] = kept_v[last]
            kept_u[last] = iu
            kept_v[last] = iv
            shed_u[j] = ou
            shed_v[j] = ov
            if weighted:
                w_out_edge = float(kept_w[i])
                kept_w[i] = kept_w[last]
                kept_w[last] = shed_w[j]
                shed_w[j] = w_out_edge
            accepted += 1
            pos += hit + 1
            chunk = max(_MIN_CHUNK, chunk // 2)
        done += block
    return accepted


# ----------------------------------------------------------------------
# Id-native CRR phases — run by CRRShedder.reduce_ids over a whole-graph
# snapshot or a per-shard CSR *view* (repro.shard).
# ----------------------------------------------------------------------


def crr_initial_ids(
    csr: "CSRAdjacency",
    target: int,
    importance: str,
    num_sources: Optional[int],
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray]:
    """Phase 1 over a CSR snapshot: the [P]-edge initial selection in id space.

    ``"random"`` draws ``rng.choice`` over the edge-scan order;
    ``"betweenness"`` ranks by (optionally sampled) edge betweenness with a
    seeded shuffle-then-stable-sort for the paper's random tie-breaking.
    """
    target = min(target, csr.num_edges)
    if importance == "random":
        edge_u, edge_v = csr.edge_list_ids()
        picks = rng.choice(edge_u.shape[0], size=target, replace=False)
        return edge_u[picks], edge_v[picks]
    return top_edge_ids_by_betweenness(
        csr, target, num_sources=num_sources, seed=rng, tie_seed=rng
    )


def crr_rewire_ids(
    csr: "CSRAdjacency",
    p: float,
    kept_u: np.ndarray,
    kept_v: np.ndarray,
    steps: int,
    rng: np.random.Generator,
    stats: Dict[str, Any],
    weighted: bool = False,
) -> Tuple[np.ndarray, np.ndarray]:
    """Phase 2 over a CSR snapshot: the array rewiring loop in id space.

    ``kept_u``/``kept_v`` are mutated in place (swap-pop pool layout) and
    returned.  The tracker scores discrepancy against the snapshot's own
    degrees, so feeding a :class:`repro.graph.csr.CSRView` rewires a shard
    against its interior-degree expectations.

    ``weighted=True`` swaps against *expected-degree mass* instead of edge
    counts (the uncertain-graph objective, :mod:`repro.uncertain`).  The
    loop structure, RNG consumption and pool bookkeeping are untouched —
    only the tracker's Δ-change arithmetic changes — so with all weights
    exactly 1.0 the accepted swap sequence is bit-identical to the
    unweighted run.
    """
    n = csr.num_nodes
    tracker = ArrayDegreeTracker(csr, p, weighted=weighted)
    tracker.add_edges_ids(kept_u, kept_v)

    # Shed pool = edge-scan order minus the kept set (the positions an
    # IndexedEdgePool fed in scan order assigns).  Canonical orientation
    # puts the smaller id first on both sides, so the keys line up.
    edge_u, edge_v = csr.edge_list_ids()
    shed_mask = ~np.isin(edge_u * n + edge_v, kept_u * n + kept_v)
    shed_u = edge_u[shed_mask]
    shed_v = edge_v[shed_mask]

    accepted = 0
    attempted = 0
    if kept_u.shape[0] and shed_u.shape[0]:
        attempted = steps
        accepted = _run_swaps(tracker, rng, kept_u, kept_v, shed_u, shed_v, steps)

    stats["attempted_swaps"] = attempted
    stats["accepted_swaps"] = accepted
    stats["tracker_delta"] = tracker.delta
    return kept_u, kept_v
