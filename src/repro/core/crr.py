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
  change (:func:`~repro.core.discrepancy.swap_change_scalar_from_dis`),
  which is identical whenever the edges are disjoint — the overwhelmingly
  common case — and guarantees the invariant that an accepted swap never
  increases ``Δ``.
* Phase 2 walks the swap attempts one at a time over the pools as Python
  lists, scoring on the tracker's ``dis`` list and accepting with its
  per-edge moves (:func:`_run_swaps`).  Acceptances cluster in the first
  steps, and each one changes what the next attempt reads, so scoring
  candidates in vectorised batches pays off only in long runs of
  rejections (``steps_factor`` well above the paper's 10; measurements in
  ``docs/algorithms.md``).
* ``steps`` defaults to ``[10·P]``, the setting the paper selects from its
  Figure 4 sweep; the ``steps_factor`` knob reproduces that sweep.
* For large graphs, exact Brandes betweenness is the bottleneck; pass
  ``num_betweenness_sources`` to switch Phase 1 to the sampled estimator
  (the resource-constrained operating mode).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.base import EdgeShedder, is_finite_number, is_int, timed_phase
from repro.core.discrepancy import (
    ArrayDegreeTracker,
    check_probability_weights,
    round_half_up,
    swap_change_scalar_from_dis,
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
    Phase 1 ranks edge ids (:func:`crr_initial_ids`), and Phase 2 walks
    block-drawn swap candidates one at a time, scoring each with the exact
    joint Δ change (:func:`crr_rewire_ids`).

    Args:
        steps: explicit number of rewiring iterations, an int ``>= 0``.
            ``None`` (default) uses the paper's recommendation
            ``[steps_factor · P]``.
        steps_factor: the ``x`` in ``steps = [x·P]`` (paper: 10), a finite
            number ``>= 0``.
        num_betweenness_sources: if set, an int ``>= 1``: estimate edge
            betweenness from this many sampled sources instead of exactly
            (for large graphs).
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
        if steps is not None and not (is_int(steps) and steps >= 0):
            raise ValueError(f"steps must be None or an int >= 0, got {steps!r}")
        if not (is_finite_number(steps_factor) and steps_factor >= 0):
            raise ValueError(
                f"steps_factor must be a finite number >= 0, got {steps_factor!r}"
            )
        if num_betweenness_sources is not None and not (
            is_int(num_betweenness_sources) and num_betweenness_sources >= 1
        ):
            raise ValueError(
                "num_betweenness_sources must be None or an int >= 1,"
                f" got {num_betweenness_sources!r}"
            )
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
    kept_ids: np.ndarray,
    kept_u: np.ndarray,
    kept_v: np.ndarray,
    shed_ids: np.ndarray,
    steps: int,
) -> int:
    """Run ``steps`` swap attempts one at a time; return the accepted count.

    Walks the pools' edge ids, endpoints and weights as Python lists,
    scores each attempt on the tracker's :meth:`~ArrayDegreeTracker.dis_list`
    with the disjoint-edge ``d_1 + d_2`` expression in the association order of
    :func:`~repro.core.discrepancy.remove_change_from_dis` then
    :func:`~repro.core.discrepancy.add_change_from_dis`
    (:func:`swap_change_scalar_from_dis` when the edges share an
    endpoint), and accepts with the tracker's ``remove_edge`` then
    ``add_edge``.  ``kept_u``/``kept_v`` receive the final kept pool in
    place, each pair in the caller's orientation.
    """
    edge_u, edge_v = tracker.csr.edge_list_ids()
    ke, ku, kv = kept_ids.tolist(), kept_u.tolist(), kept_v.tolist()
    se, su, sv = shed_ids.tolist(), edge_u[shed_ids].tolist(), edge_v[shed_ids].tolist()
    kw = tracker.edge_weights(kept_ids).tolist()
    sw = tracker.edge_weights(shed_ids).tolist()
    dis = tracker.dis_list()
    remove_edge, add_edge = tracker.remove_edge, tracker.add_edge
    pool_sizes = np.tile(np.array([len(ku), len(su)], dtype=np.int64), _DRAW_BLOCK)
    last = len(ku) - 1
    accepted = 0
    abs_ = abs  # a local name: each attempt calls it 8 times
    threshold = -_MIN_IMPROVEMENT
    done = 0
    while done < steps:
        block = min(_DRAW_BLOCK, steps - done)
        # One broadcast call = 2·block alternating scalar
        # integers(P)/integers(S) draws (one pair per swap), bit for bit.
        draws = iter(rng.integers(0, pool_sizes[: 2 * block]).tolist())
        for i, j in zip(draws, draws):
            ou, ov, w_out = ku[i], kv[i], kw[i]
            iu, iv, w_in = su[j], sv[j], sw[j]
            if ou == iu or ou == iv or ov == iu or ov == iv:
                change = swap_change_scalar_from_dis(dis, ou, ov, iu, iv, w_out, w_in)
            else:
                d_ou, d_ov = dis[ou], dis[ov]
                d_iu, d_iv = dis[iu], dis[iv]
                change = (
                    abs_(d_ou - w_out)
                    + abs_(d_ov - w_out)
                    - (abs_(d_ou) + abs_(d_ov))
                    + abs_(d_iu + w_in)
                    + abs_(d_iv + w_in)
                    - (abs_(d_iu) + abs_(d_iv))
                )
            if not change < threshold:
                continue
            e_out, e_in = ke[i], se[j]
            remove_edge(e_out)
            add_edge(e_in)
            # IndexedEdgePool's swap-pop bookkeeping: the kept pool's last
            # edge backfills slot i, the incoming edge takes the last slot,
            # and the outgoing edge lands in shed slot j.
            ke[i], ku[i], kv[i], kw[i] = ke[last], ku[last], kv[last], kw[last]
            ke[last], ku[last], kv[last], kw[last] = e_in, iu, iv, w_in
            se[j], su[j], sv[j], sw[j] = e_out, ou, ov, w_out
            accepted += 1
        done += block
    kept_u[:] = ku
    kept_v[:] = kv
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
    """Phase 2 over a CSR snapshot: the rewiring walk in id space.

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
    kept_ids = csr.existing_edge_ids(kept_u, kept_v)
    tracker = ArrayDegreeTracker(csr, p, weighted=weighted)
    tracker.add_edges(kept_ids)

    # Shed pool = edge-scan order minus the kept set (the positions an
    # IndexedEdgePool fed in scan order assigns).
    shed_mask = np.ones(csr.num_edges, dtype=bool)
    shed_mask[kept_ids] = False
    shed_ids = np.nonzero(shed_mask)[0]

    accepted = 0
    attempted = 0
    if kept_ids.shape[0] and shed_ids.shape[0]:
        attempted = steps
        accepted = _run_swaps(tracker, rng, kept_ids, kept_u, kept_v, shed_ids, steps)

    stats["attempted_swaps"] = attempted
    stats["accepted_swaps"] = accepted
    stats["tracker_delta"] = tracker.delta
    return kept_u, kept_v
