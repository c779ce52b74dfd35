"""UDS — Utility-Driven Graph Summarization (the paper's competitor).

Reimplemented from Kumar & Efstathopoulos, "Utility-driven graph
summarization" (VLDB 2019), as configured in the edge-shedding paper's
experiments: node/edge importance is betweenness centrality and the utility
threshold is ``τ_U = p``.

Model.  Every original edge ``e`` carries a utility ``u(e)`` (normalised
edge betweenness; ``Σ u(e) = 1``).  A summary groups nodes into supernodes
and keeps a set of superedges.  Its utility starts at 1 and pays two costs:

* dropping a real edge not covered by any kept superedge costs ``u(e)``;
* every *spurious* pair covered by a kept superedge (a non-adjacent node
  pair inside the superedge's block) costs the mean edge utility
  ``π = 1/|E|``.

For each supernode pair with at least one real edge the summarizer keeps
the superedge iff that is the cheaper side (``spurious·π ≤ Σu``), so the
loss of a pair is ``min(spurious·π, Σu)``.

Algorithm.  Greedy bottom-up merging: sweep the supernodes in seeded random
order; for each, evaluate merging with its best 2-hop candidate (the exact
loss change over all affected pairs) and apply the cheapest merge while the
summary utility stays at or above ``τ_U``.  Sweeps repeat until no merge
fits the budget.  Lower ``τ_U`` (= lower ``p``) admits more merges, which
is exactly why UDS gets *slower* as ``p`` shrinks — the trend the paper's
Table III shows.

The produced :class:`~repro.core.base.ReductionResult` carries the lossy
reconstruction as ``reduced`` and the :class:`GraphSummary` itself under
``stats["summary"]`` (the top-k task uses the summary-native PageRank the
paper mentions).

Representation.  Edge utilities come from the CSR Brandes kernel, and the
merge loop runs over integer node ids: pair state is keyed by packed int
pairs, supernode sizes live in a numpy array (O(1) lookups instead of
copying member sets on every candidate evaluation), and candidates are
scanned in sorted id order.  A label-keyed frozenset implementation
visits candidates in a different order and accumulates float losses in a
different order, so the two agree statistically (both respect the utility
budget, with comparable merge counts and utilities) rather than bit for
bit; the tests pin that agreement.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.baselines.summary import GraphSummary
from repro.core.base import EdgeShedder
from repro.graph.csr import CSRAdjacency
from repro.graph.graph import Graph
from repro.graph.kernels import brandes_accumulate
from repro.graph.sampling import select_source_ids
from repro.rng import RandomState, ensure_rng

__all__ = ["UDSSummarizer"]


class _PairState:
    """Loss bookkeeping over supernode pairs that contain real edges.

    Supernodes are CSR node ids, a pair of representatives ``a <= b`` is
    the packed int ``a * n + b`` (the singleton/internal pair of ``a`` is
    ``a * n + a``, which cannot collide with any two-rep key), and
    supernode sizes live in ``self.sizes`` so candidate evaluation never
    copies a member set.

    ``rule`` selects how a supernode pair decides whether its superedge is
    kept:

    * ``"majority"`` (default): keep iff at least half the block's node
      pairs are real edges — the density criterion grouping summarizers
      use (cf. Navlakha et al.); loss is the spurious penalty when kept and
      the dropped edge utility otherwise.
    * ``"cheaper"``: keep whichever side costs less,
      ``loss = min(spurious·π, Σu)`` — an optimistic variant that retains
      more structure per unit of utility.
    """

    def __init__(
        self,
        num_nodes: int,
        edge_u: np.ndarray,
        edge_v: np.ndarray,
        utilities: np.ndarray,
        spurious_penalty: float,
        rule: str = "majority",
    ) -> None:
        if rule not in ("majority", "cheaper"):
            raise ValueError(f"rule must be 'majority' or 'cheaper', got {rule!r}")
        self._n = num_nodes
        self._penalty = spurious_penalty
        self._rule = rule
        #: supernode sizes, indexed by representative id (0 once absorbed)
        self.sizes = np.ones(num_nodes, dtype=np.int64)
        #: packed pair key -> (total edge utility, edge count)
        self._weight: Dict[int, float] = {}
        self._count: Dict[int, int] = {}
        #: representative id -> adjacent representative ids (>=1 real edge)
        self._adjacent: Dict[int, Set[int]] = {}
        lo = np.minimum(edge_u, edge_v)
        hi = np.maximum(edge_u, edge_v)
        keys = lo * np.int64(num_nodes) + hi
        for key, utility in zip(keys.tolist(), utilities.tolist()):
            self._weight[key] = self._weight.get(key, 0.0) + utility
            self._count[key] = self._count.get(key, 0) + 1
        for u, v in zip(edge_u.tolist(), edge_v.tolist()):
            self._adjacent.setdefault(u, set()).add(v)
            self._adjacent.setdefault(v, set()).add(u)
        self.total_loss = 0.0  # all pairs are exact at the start
        self._loss_cache: Dict[int, float] = {}

    def key_of(self, rep_a: int, rep_b: int) -> int:
        if rep_a <= rep_b:
            return rep_a * self._n + rep_b
        return rep_b * self._n + rep_a

    def adjacent(self, rep: int) -> Set[int]:
        return self._adjacent.get(rep, set())

    def _block_pairs(self, key: int) -> int:
        rep_a, rep_b = divmod(key, self._n)
        size_a = int(self.sizes[rep_a])
        if rep_a == rep_b:
            return size_a * (size_a - 1) // 2
        return size_a * int(self.sizes[rep_b])

    def _loss_for(self, weight: float, count: int, pairs: int) -> float:
        """Loss of a pair with ``count`` real edges of total ``weight``."""
        if weight == 0.0:
            return 0.0
        spurious_cost = (pairs - count) * self._penalty
        if self._rule == "cheaper":
            return min(spurious_cost, weight)
        # majority rule: keep the superedge only if the block is dense.
        if 2 * count >= pairs:
            return spurious_cost
        return weight

    def pair_loss(self, key: int) -> float:
        """Loss the pair currently contributes (0 if it has no real edges)."""
        weight = self._weight.get(key, 0.0)
        if weight == 0.0:
            return 0.0
        return self._loss_for(weight, self._count[key], self._block_pairs(key))

    def keeps_superedge(self, key: int) -> bool:
        """Whether this pair's superedge survives into the final summary."""
        weight = self._weight.get(key, 0.0)
        if weight == 0.0:
            return False
        count = self._count[key]
        pairs = self._block_pairs(key)
        if self._rule == "cheaper":
            return (pairs - count) * self._penalty <= weight
        return 2 * count >= pairs

    def merge_cost(self, rep_a: int, rep_b: int) -> float:
        """Exact change in total loss if ``rep_a``/``rep_b`` merge."""
        neighbors = (self.adjacent(rep_a) | self.adjacent(rep_b)) - {rep_a, rep_b}
        merged_size = int(self.sizes[rep_a]) + int(self.sizes[rep_b])

        cost = 0.0
        for other in neighbors:
            key_a = self.key_of(rep_a, other)
            key_b = self.key_of(rep_b, other)
            old = self.pair_loss(key_a) + self.pair_loss(key_b)
            weight = self._weight.get(key_a, 0.0) + self._weight.get(key_b, 0.0)
            count = self._count.get(key_a, 0) + self._count.get(key_b, 0)
            pairs = merged_size * int(self.sizes[other])
            cost += self._loss_for(weight, count, pairs) - old
        internal_keys = (
            self.key_of(rep_a, rep_a),
            self.key_of(rep_b, rep_b),
            self.key_of(rep_a, rep_b),
        )
        old = sum(self.pair_loss(key) for key in internal_keys)
        weight = sum(self._weight.get(key, 0.0) for key in internal_keys)
        count = sum(self._count.get(key, 0) for key in internal_keys)
        pairs = merged_size * (merged_size - 1) // 2
        cost += self._loss_for(weight, count, pairs) - old
        return cost

    def apply_merge(self, rep_a: int, rep_b: int, survivor: int) -> None:
        """Fold pair state after ``rep_a``/``rep_b`` merged into ``survivor``."""
        absorbed = rep_b if survivor == rep_a else rep_a
        neighbors = (self.adjacent(rep_a) | self.adjacent(rep_b)) - {rep_a, rep_b}
        internal_keys = (
            self.key_of(rep_a, rep_a),
            self.key_of(rep_b, rep_b),
            self.key_of(rep_a, rep_b),
        )

        # Remove old losses from the running total.
        for other in neighbors:
            for rep in (rep_a, rep_b):
                key = self.key_of(rep, other)
                if key in self._weight:
                    self.total_loss -= self._loss_cache.pop(key, 0.0)
        for key in internal_keys:
            if key in self._weight:
                self.total_loss -= self._loss_cache.pop(key, 0.0)

        # The merged supernode exists from here on; size lookups below
        # (pair_loss re-adds) must see the combined size.
        self.sizes[survivor] = self.sizes[rep_a] + self.sizes[rep_b]
        self.sizes[absorbed] = 0

        # Fold weights/counts into survivor-keyed entries.
        internal_weight = 0.0
        internal_count = 0
        for key in internal_keys:
            internal_weight += self._weight.pop(key, 0.0)
            internal_count += self._count.pop(key, 0)
        if internal_count:
            internal_key = self.key_of(survivor, survivor)
            self._weight[internal_key] = internal_weight
            self._count[internal_key] = internal_count

        for other in neighbors:
            weight = 0.0
            count = 0
            for rep in (rep_a, rep_b):
                key = self.key_of(rep, other)
                weight += self._weight.pop(key, 0.0)
                count += self._count.pop(key, 0)
            if count:
                key = self.key_of(survivor, other)
                self._weight[key] = weight
                self._count[key] = count

        # Rewire adjacency.
        for other in neighbors:
            self._adjacent.setdefault(other, set()).discard(rep_a)
            self._adjacent[other].discard(rep_b)
            self._adjacent[other].add(survivor)
        self._adjacent.pop(rep_a, None)
        self._adjacent.pop(rep_b, None)
        self._adjacent[survivor] = set(neighbors)

        # Re-add losses for the survivor's pairs.
        for other in neighbors:
            key = self.key_of(survivor, other)
            if key in self._weight:
                loss = self.pair_loss(key)
                self._loss_cache[key] = loss
                self.total_loss += loss
        internal_key = self.key_of(survivor, survivor)
        if internal_key in self._weight:
            loss = self.pair_loss(internal_key)
            self._loss_cache[internal_key] = loss
            self.total_loss += loss

    def live_pairs(self) -> List[int]:
        return list(self._weight)


class UDSSummarizer(EdgeShedder):
    """Utility-driven summarization with threshold ``τ_U = p``.

    Args:
        max_sweeps: upper bound on full merge sweeps (safety valve; the
            utility budget normally terminates earlier).
        superedge_rule: ``"majority"`` (density criterion, default) or
            ``"cheaper"`` — see :class:`_PairState`.
        num_betweenness_sources: sample size for the edge-utility
            computation (``None`` = exact betweenness, as in the paper).
        seed: randomness for the sweep order.
    """

    name = "UDS"

    def __init__(
        self,
        max_sweeps: int = 50,
        superedge_rule: str = "majority",
        num_betweenness_sources: Optional[int] = None,
        seed: RandomState = None,
    ) -> None:
        if max_sweeps < 1:
            raise ValueError(f"max_sweeps must be >= 1, got {max_sweeps}")
        self.max_sweeps = max_sweeps
        self.superedge_rule = superedge_rule
        self.num_betweenness_sources = num_betweenness_sources
        self._seed = seed

    def _edge_utilities_ids(self, csr: CSRAdjacency, rng) -> np.ndarray:
        """Normalised edge utilities in lexicographic edge-id order.

        Same numbers :func:`repro.graph.centrality.edge_betweenness` produces (unnormalised
        scores halved, then scaled by the sampling factor) without the
        label-keyed dict round-trip.
        """
        source_ids, scale = select_source_ids(csr.num_nodes, self.num_betweenness_sources, rng)
        half = np.zeros(csr.indices.shape[0], dtype=np.float64)
        brandes_accumulate(csr, source_ids, edge_scores=half)
        forward, backward = csr.undirected_entries()
        totals = (half[forward] + half[backward]) * (scale / 2.0)
        total = float(totals.sum())
        if total <= 0.0:
            # Degenerate graphs (e.g. disjoint edges all with centrality 0
            # under sampling): fall back to uniform utilities.
            return np.full(totals.shape[0], 1.0 / totals.shape[0], dtype=np.float64)
        return totals / total

    @staticmethod
    def _best_candidate(state: _PairState, rep: int) -> Optional[Tuple[int, float]]:
        """Cheapest 2-hop merge partner for ``rep`` (None if isolated).

        Candidates are scanned in ascending id order, so ties resolve
        deterministically without consulting the RNG.
        """
        one_hop = state.adjacent(rep) - {rep}
        two_hop: Set[int] = set()
        for neighbor in one_hop:
            two_hop |= state.adjacent(neighbor)
        candidates = (one_hop | two_hop) - {rep}
        best: Optional[Tuple[int, float]] = None
        for other in sorted(candidates):
            cost = state.merge_cost(rep, other)
            if best is None or cost < best[1]:
                best = (other, cost)
        return best

    def _reduce(self, graph: Graph, p: float) -> Tuple[Graph, Dict[str, Any]]:
        rng = ensure_rng(self._seed)
        threshold = p  # τ_U = p per the paper's parameter settings

        csr = graph.csr()
        n = csr.num_nodes
        edge_u, edge_v = csr.canonical_edge_ids()
        utilities = self._edge_utilities_ids(csr, rng)
        spurious_penalty = 1.0 / graph.num_edges

        state = _PairState(
            n, edge_u, edge_v, utilities, spurious_penalty, rule=self.superedge_rule
        )
        budget = 1.0 - threshold
        alive = np.ones(n, dtype=bool)
        merge_log: List[Tuple[int, int]] = []

        merges = 0
        for _ in range(self.max_sweeps):
            merged_this_sweep = False
            reps = np.nonzero(alive)[0].tolist()
            rng.shuffle(reps)
            for rep in reps:
                if not alive[rep]:
                    continue  # absorbed earlier in this sweep
                candidate = self._best_candidate(state, rep)
                if candidate is None:
                    continue
                other, cost = candidate
                if state.total_loss + cost > budget:
                    continue
                # Weighted union, first argument wins ties — the same
                # survivor rule as GraphSummary.merge, so the replay
                # below reproduces these representatives exactly.
                survivor = rep if state.sizes[rep] >= state.sizes[other] else other
                absorbed = other if survivor == rep else rep
                state.apply_merge(rep, other, survivor)
                alive[absorbed] = False
                merge_log.append((rep, other))
                merges += 1
                merged_this_sweep = True
            if not merged_this_sweep:
                break

        # Replay the merge log into a GraphSummary for the result's stats;
        # identical merge order + survivor rule means the loop's
        # representative ids map 1:1 onto the summary's representatives.
        labels = csr.labels
        summary = GraphSummary(graph)
        for rep_a, rep_b in merge_log:
            summary.merge(labels[rep_a], labels[rep_b])
        pairs = []
        for key in sorted(state.live_pairs()):
            if not state.keeps_superedge(key):
                continue
            rep_a, rep_b = divmod(key, n)
            pairs.append((labels[rep_a], labels[rep_b]))
        summary.set_superedges(pairs)

        reconstructed = summary.reconstruct()
        stats = {
            "summary": summary,
            "merges": merges,
            "num_supernodes": summary.num_supernodes,
            "num_superedges": len(pairs),
            "final_utility": 1.0 - state.total_loss,
            "threshold": threshold,
        }
        return reconstructed, stats
