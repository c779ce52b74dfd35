"""Task 7 — link prediction within community.

Pipeline per the paper: node2vec embeddings (``p = q = 1``), k-means with
``n_clusters = 5``, then predict a link for every *2-hop vertex pair*
(nodes at distance exactly 2) whose endpoints share a cluster.  The
artifact is the predicted pair set; the utility compares the reduced
graph's predictions ``L_s`` against the original's ``L`` as
``|L_s ∩ L| / |L|``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set

from repro.embedding.kmeans import kmeans
from repro.embedding.node2vec import node2vec_embed
from repro.graph.graph import Graph, Node
from repro.rng import RandomState, ensure_rng
from repro.tasks.base import GraphTask, TaskArtifact
from repro.tasks.metrics import overlap_utility

__all__ = ["LinkPredictionTask", "two_hop_pairs"]


def two_hop_pairs(graph: Graph) -> Set[FrozenSet[Node]]:
    """All unordered node pairs at shortest-path distance exactly 2."""
    pairs: Set[FrozenSet[Node]] = set()
    for node in graph.nodes():
        neighbors = list(graph.neighbors(node))
        for i, u in enumerate(neighbors):
            for v in neighbors[i + 1 :]:
                if not graph.has_edge(u, v):
                    pairs.add(frozenset((u, v)))
    return pairs


class LinkPredictionTask(GraphTask):
    """node2vec + k-means community link prediction on 2-hop pairs.

    Embedding hyperparameters default to laptop-scale settings; the
    clustering count follows the paper (``n_clusters = 5``).  ``workers``
    fans walk epochs out across processes (bit-identical output).

    The paper's wording — predictions are made "on all 2-hop vertex pairs
    in G and G' respectively" — is ambiguous about which *pair universe*
    the reduced graph's predictions ``L_s`` range over:

    * ``pair_universe="own"`` (default, the literal reading): ``L_s``
      contains 2-hop pairs *of the reduced graph*.  At small ``p`` the
      two graphs' 2-hop pair sets barely overlap, so utilities collapse
      for every method.
    * ``pair_universe="original"``: the reduced graph supplies only the
      communities; predictions range over the *original* graph's 2-hop
      pairs.  This isolates community quality from pair-set drift and
      yields the higher small-``p`` utilities the paper reports.
    """

    name = "Link prediction"

    def __init__(
        self,
        n_clusters: int = 5,
        dimensions: int = 32,
        num_walks: int = 5,
        walk_length: int = 20,
        epochs: int = 1,
        pair_universe: str = "own",
        seed: RandomState = None,
        workers: Optional[int] = None,
    ) -> None:
        if pair_universe not in ("own", "original"):
            raise ValueError(
                f"pair_universe must be 'own' or 'original', got {pair_universe!r}"
            )
        self.n_clusters = n_clusters
        self.dimensions = dimensions
        self.num_walks = num_walks
        self.walk_length = walk_length
        self.epochs = epochs
        self.pair_universe = pair_universe
        self.workers = workers
        self._seed = seed
        #: one entry per embedding run, in call order (original first when
        #: driven by :meth:`GraphTask.evaluate`): walk/SGNS wall-clock.
        self.embedding_timings: List[Dict[str, float]] = []

    def _cluster_labels(self, graph: Graph) -> dict:
        """node -> community label from a node2vec + k-means pipeline."""
        rng = ensure_rng(self._seed)
        model = node2vec_embed(
            graph,
            dimensions=self.dimensions,
            num_walks=self.num_walks,
            walk_length=self.walk_length,
            epochs=self.epochs,
            seed=rng,
            workers=self.workers,
        )
        self.embedding_timings.append(
            {
                "nodes": float(graph.num_nodes),
                "edges": float(graph.num_edges),
                "walk_seconds": model.walk_seconds,
                "sgns_seconds": model.sgns_seconds,
            }
        )
        clusters = min(self.n_clusters, graph.num_nodes)
        result = kmeans(model.embeddings, n_clusters=clusters, seed=rng)
        return {
            node: int(result.labels[model.index_of[node]]) for node in graph.nodes()
        }

    def _predict(self, label_of: dict, candidates: Set[FrozenSet[Node]]) -> Set[FrozenSet[Node]]:
        return {
            pair
            for pair in candidates
            if all(node in label_of for node in pair)
            and len({label_of[node] for node in pair}) == 1
        }

    def _compute(self, graph: Graph, scale: float) -> Set[FrozenSet[Node]]:
        candidates = two_hop_pairs(graph)
        if not candidates or graph.num_edges == 0:
            return set()
        return self._predict(self._cluster_labels(graph), candidates)

    def compute_for_result(self, result):
        if self.pair_universe == "own":
            return super().compute_for_result(result)
        # "original" universe: communities from the reduction, pairs from
        # the original graph.
        import time

        from repro.tasks.base import TaskArtifact

        start = time.perf_counter()
        candidates = two_hop_pairs(result.original)
        if not candidates or result.reduced.num_edges == 0:
            value: Set[FrozenSet[Node]] = set()
        else:
            value = self._predict(self._cluster_labels(result.reduced), candidates)
        elapsed = time.perf_counter() - start
        return TaskArtifact(
            task=self.name, value=value, elapsed_seconds=elapsed, scale=result.p
        )

    def utility(self, original: TaskArtifact, reduced: TaskArtifact) -> float:
        return overlap_utility(original.value, reduced.value)
