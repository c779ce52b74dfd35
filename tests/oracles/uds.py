"""Scalar oracle for the UDS summarizer: frozenset pair state over labels.

The original dict/frozenset merge loop that
:class:`repro.baselines.uds.UDSSummarizer` replaced with packed int pair
keys.  The two visit candidates in different orders and accumulate float
losses in different orders, so they agree statistically (same
invariants, comparable merge counts and utilities), not bit for bit.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.baselines.summary import GraphSummary
from repro.baselines.uds import UDSSummarizer
from repro.graph.centrality import edge_betweenness
from repro.graph.graph import Graph, Node
from repro.rng import ensure_rng

__all__ = ["LegacyUDSSummarizer"]

PairKey = FrozenSet[Node]


class _PairState:
    """Loss bookkeeping over supernode pairs that contain real edges.

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
        summary: GraphSummary,
        utilities: Dict[PairKey, float],
        spurious_penalty: float,
        rule: str = "majority",
    ) -> None:
        if rule not in ("majority", "cheaper"):
            raise ValueError(f"rule must be 'majority' or 'cheaper', got {rule!r}")
        self._summary = summary
        self._penalty = spurious_penalty
        self._rule = rule
        #: pair of representatives (frozenset, singleton for internal) ->
        #: (total edge utility, edge count)
        self._weight: Dict[PairKey, float] = {}
        self._count: Dict[PairKey, int] = {}
        #: representative -> adjacent representatives (via >=1 real edge)
        self._adjacent: Dict[Node, Set[Node]] = {}
        for (u, v), utility in utilities.items():
            key = frozenset((u, v))
            self._weight[key] = self._weight.get(key, 0.0) + utility
            self._count[key] = self._count.get(key, 0) + 1
            self._adjacent.setdefault(u, set()).add(v)
            self._adjacent.setdefault(v, set()).add(u)
        self.total_loss = 0.0  # all pairs are exact at the start
        #: pair key -> the loss currently counted inside ``total_loss``
        self._loss_cache: Dict[PairKey, float] = {}

    def adjacent(self, rep: Node) -> Set[Node]:
        return self._adjacent.get(rep, set())

    def _block_pairs(self, key: PairKey) -> int:
        reps = tuple(key)
        if len(reps) == 1:
            return self._summary.block_pairs(reps[0], reps[0])
        return self._summary.block_pairs(reps[0], reps[1])

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

    def pair_loss(self, key: PairKey) -> float:
        """Loss the pair currently contributes (0 if it has no real edges)."""
        weight = self._weight.get(key, 0.0)
        if weight == 0.0:
            return 0.0
        return self._loss_for(weight, self._count[key], self._block_pairs(key))

    def keeps_superedge(self, key: PairKey) -> bool:
        """Whether this pair's superedge survives into the final summary."""
        weight = self._weight.get(key, 0.0)
        if weight == 0.0:
            return False
        count = self._count[key]
        pairs = self._block_pairs(key)
        if self._rule == "cheaper":
            return (pairs - count) * self._penalty <= weight
        return 2 * count >= pairs

    def merge_cost(self, rep_a: Node, rep_b: Node) -> float:
        """Exact change in total loss if supernodes ``rep_a``/``rep_b`` merge."""
        neighbors = (self.adjacent(rep_a) | self.adjacent(rep_b)) - {rep_a, rep_b}
        size_a = len(self._summary.members(rep_a))
        size_b = len(self._summary.members(rep_b))
        merged_size = size_a + size_b

        cost = 0.0
        for other in neighbors:
            key_a = frozenset((rep_a, other))
            key_b = frozenset((rep_b, other))
            old = self.pair_loss(key_a) + self.pair_loss(key_b)
            weight = self._weight.get(key_a, 0.0) + self._weight.get(key_b, 0.0)
            count = self._count.get(key_a, 0) + self._count.get(key_b, 0)
            pairs = merged_size * len(self._summary.members(other))
            cost += self._loss_for(weight, count, pairs) - old
        # Internal pair of the merged supernode.
        internal_keys = (
            frozenset((rep_a,)),
            frozenset((rep_b,)),
            frozenset((rep_a, rep_b)),
        )
        old = sum(self.pair_loss(key) for key in internal_keys)
        weight = sum(self._weight.get(key, 0.0) for key in internal_keys)
        count = sum(self._count.get(key, 0) for key in internal_keys)
        pairs = merged_size * (merged_size - 1) // 2
        cost += self._loss_for(weight, count, pairs) - old
        return cost

    def apply_merge(self, rep_a: Node, rep_b: Node, survivor: Node) -> None:
        """Fold pair state after ``rep_a``/``rep_b`` merged into ``survivor``."""
        absorbed = rep_b if survivor == rep_a else rep_a
        neighbors = (self.adjacent(rep_a) | self.adjacent(rep_b)) - {rep_a, rep_b}

        # Remove old losses and pair entries touching either representative.
        for other in neighbors:
            for rep in (rep_a, rep_b):
                key = frozenset((rep, other))
                if key in self._weight:
                    self.total_loss -= self._loss_cache.pop(key, 0.0)
        for key in (frozenset((rep_a,)), frozenset((rep_b,)), frozenset((rep_a, rep_b))):
            if key in self._weight:
                self.total_loss -= self._loss_cache.pop(key, 0.0)

        # Fold weights/counts into survivor-keyed entries.
        internal_weight = 0.0
        internal_count = 0
        for key in (frozenset((rep_a,)), frozenset((rep_b,)), frozenset((rep_a, rep_b))):
            internal_weight += self._weight.pop(key, 0.0)
            internal_count += self._count.pop(key, 0)
        if internal_count:
            internal_key = frozenset((survivor,))
            self._weight[internal_key] = internal_weight
            self._count[internal_key] = internal_count

        for other in neighbors:
            weight = 0.0
            count = 0
            for rep in (rep_a, rep_b):
                key = frozenset((rep, other))
                weight += self._weight.pop(key, 0.0)
                count += self._count.pop(key, 0)
            if count:
                key = frozenset((survivor, other))
                self._weight[key] = weight
                self._count[key] = count

        # Rewire adjacency.
        for other in neighbors:
            self._adjacent.setdefault(other, set()).discard(rep_a)
            self._adjacent[other].discard(rep_b)
            self._adjacent[other].add(survivor)
        self._adjacent.pop(rep_a, None)
        self._adjacent.pop(rep_b, None)
        # Internal edges live under the singleton key, not in adjacency.
        self._adjacent[survivor] = set(neighbors)

        # Re-add losses for the survivor's pairs.
        for other in neighbors:
            key = frozenset((survivor, other))
            if key in self._weight:
                loss = self.pair_loss(key)
                self._loss_cache[key] = loss
                self.total_loss += loss
        internal_key = frozenset((survivor,))
        if internal_key in self._weight:
            loss = self.pair_loss(internal_key)
            self._loss_cache[internal_key] = loss
            self.total_loss += loss

    def live_pairs(self) -> List[PairKey]:
        return list(self._weight)


class LegacyUDSSummarizer(UDSSummarizer):
    """:class:`UDSSummarizer` running the frozenset merge loop."""

    def _reduce(self, graph: Graph, p: float) -> Tuple[Graph, Dict[str, Any]]:
        rng = ensure_rng(self._seed)
        threshold = p  # τ_U = p per the paper's parameter settings

        centrality = edge_betweenness(
            graph,
            normalized=False,
            num_sources=self.num_betweenness_sources,
            seed=rng,
        )
        total = sum(centrality.values())
        if total <= 0:
            # Degenerate graphs (e.g. disjoint edges all with centrality 0
            # under sampling): fall back to uniform utilities.
            utilities = {edge: 1.0 / graph.num_edges for edge in centrality}
        else:
            utilities = {edge: value / total for edge, value in centrality.items()}
        spurious_penalty = 1.0 / graph.num_edges

        summary = GraphSummary(graph)
        state = _PairState(summary, utilities, spurious_penalty, rule=self.superedge_rule)
        budget = 1.0 - threshold  # how much loss we may accumulate

        merges = 0
        for _ in range(self.max_sweeps):
            merged_this_sweep = False
            reps = summary.supernodes()
            rng.shuffle(reps)
            for rep in reps:
                if summary.representative(rep) != rep:
                    continue  # absorbed earlier in this sweep
                candidate = self._best_candidate(state, summary, rep)
                if candidate is None:
                    continue
                other, cost = candidate
                if state.total_loss + cost > budget:
                    continue
                survivor = summary.merge(rep, other)
                state.apply_merge(rep, other, survivor)
                merges += 1
                merged_this_sweep = True
            if not merged_this_sweep:
                break

        kept = [key for key in state.live_pairs() if state.keeps_superedge(key)]
        pairs = []
        for key in kept:
            reps = tuple(key)
            pairs.append((reps[0], reps[0]) if len(reps) == 1 else (reps[0], reps[1]))
        summary.set_superedges(pairs)

        reconstructed = summary.reconstruct()
        stats = {
            "summary": summary,
            "merges": merges,
            "num_supernodes": summary.num_supernodes,
            "num_superedges": len(pairs),
            "final_utility": 1.0 - state.total_loss,
            "threshold": threshold,
            "engine": "legacy",
        }
        return reconstructed, stats

    @staticmethod
    def _best_candidate(
        state: _PairState, summary: GraphSummary, rep: Node
    ) -> Optional[Tuple[Node, float]]:
        """Cheapest 2-hop merge partner for ``rep`` (None if isolated)."""
        one_hop = state.adjacent(rep) - {rep}
        two_hop: Set[Node] = set()
        for neighbor in one_hop:
            two_hop |= state.adjacent(neighbor)
        candidates = (one_hop | two_hop) - {rep}
        best: Optional[Tuple[Node, float]] = None
        for other in candidates:
            cost = state.merge_cost(rep, other)
            if best is None or cost < best[1]:
                best = (other, cost)
        return best
