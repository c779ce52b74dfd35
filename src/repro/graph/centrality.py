"""Betweenness centrality (Brandes' algorithm) for nodes and edges.

CRR's first phase ranks every edge by betweenness centrality, and evaluation
task 3 compares node betweenness between original and reduced graphs.  We
implement Brandes' single-pass accumulation [Brandes 2001] for unweighted
graphs: one BFS per source with shortest-path counting, then a reverse-order
dependency sweep.  Complexity O(|V||E|) time, O(|V|+|E|) space — matching the
figures the paper quotes.

The public functions here are thin wrappers over the CSR-native array
kernels in :mod:`repro.graph.kernels`: they grab the graph's cached
:meth:`Graph.csr` snapshot, run the flat-array accumulation, and map raw
scores back to node labels / canonical edge keys at the boundary.

For graphs where exact betweenness is too slow (the resource-constraints
story), the ``num_sources`` argument switches to source sampling: run the
accumulation from ``k`` uniformly sampled sources and scale by ``n/k``, an
unbiased estimator of the exact value.  Sampling is shared with the other
sweeps via :mod:`repro.graph.sampling`, so identical ``(num_sources, seed)``
arguments pick identical sources everywhere.

Normalisation follows networkx conventions so our tests can cross-validate:
unnormalised undirected scores are halved (each unordered pair contributes
once); normalised node scores divide by ``(n-1)(n-2)/2``, edge scores by
``n(n-1)/2``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.graph.graph import Edge, Graph, Node
from repro.graph.kernels import brandes_accumulate
from repro.graph.sampling import select_source_ids
from repro.rng import RandomState, ensure_rng

__all__ = [
    "node_betweenness",
    "edge_betweenness",
    "top_edges_by_betweenness",
    "top_edge_ids_by_betweenness",
]


def _node_normalization(n: int, normalized: bool) -> float:
    if normalized:
        return float((n - 1) * (n - 2)) if n > 2 else 1.0
    return 2.0  # each unordered pair was visited from both ends


def _edge_normalization(n: int, normalized: bool) -> float:
    if normalized:
        return float(n * (n - 1)) if n > 1 else 1.0
    return 2.0


def node_betweenness(
    graph: Graph,
    normalized: bool = True,
    num_sources: Optional[int] = None,
    seed: RandomState = None,
) -> Dict[Node, float]:
    """Betweenness centrality of every node.

    ``num_sources`` enables the sampled estimator; ``None`` is exact.
    """
    csr = graph.csr()
    source_ids, scale = select_source_ids(csr.num_nodes, num_sources, seed)
    scores = np.zeros(csr.num_nodes, dtype=np.float64)
    brandes_accumulate(csr, source_ids, node_scores=scores)
    factor = scale / _node_normalization(graph.num_nodes, normalized)
    scores *= factor
    return {label: float(scores[i]) for i, label in enumerate(csr.labels)}


def edge_betweenness(
    graph: Graph,
    normalized: bool = True,
    num_sources: Optional[int] = None,
    seed: RandomState = None,
) -> Dict[Edge, float]:
    """Betweenness centrality of every edge (canonical orientation keys).

    This is the ranking signal for CRR phase 1.  ``num_sources`` enables the
    sampled estimator for resource-constrained runs; ``None`` is exact.
    """
    csr = graph.csr()
    source_ids, scale = select_source_ids(csr.num_nodes, num_sources, seed)
    half = np.zeros(csr.indices.shape[0], dtype=np.float64)
    brandes_accumulate(csr, source_ids, edge_scores=half)
    forward, backward = csr.undirected_entries()
    totals = half[forward] + half[backward]
    totals *= scale / _edge_normalization(graph.num_nodes, normalized)
    u_ids, v_ids = csr.canonical_edge_ids()
    labels = csr.labels
    score_of: Dict[Edge, float] = {
        (labels[u], labels[v]): value
        for u, v, value in zip(u_ids.tolist(), v_ids.tolist(), totals.tolist())
    }
    # Key the result in graph.edges() iteration order — the order the dict
    # implementation produced, which downstream tie-breaking relies on.
    return {edge: score_of[edge] for edge in graph.edges()}


def top_edge_ids_by_betweenness(
    csr: "CSRAdjacency",
    count: int,
    num_sources: Optional[int] = None,
    seed: RandomState = None,
    tie_seed: RandomState = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Id-space top-``count`` edges by betweenness over any CSR snapshot.

    The snapshot may be a whole-graph export or a per-shard
    :class:`repro.graph.csr.CSRView` — the kernel only sees flat arrays.
    Returns ``(u_ids, v_ids)`` in descending-score order with ties broken
    by a seeded shuffle, reproducing :func:`top_edges_by_betweenness`'s
    selection and ordering exactly (same RNG consumption: the tie shuffle
    permutes a Python list of ``m`` scan positions just as the label
    version permutes its list of ``m`` edge keys, and the stable sort
    compares bitwise-identical float scores).
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    n = csr.num_nodes
    source_ids, scale = select_source_ids(n, num_sources, seed)
    half = np.zeros(csr.indices.shape[0], dtype=np.float64)
    brandes_accumulate(csr, source_ids, edge_scores=half)
    forward, backward = csr.undirected_entries()
    totals = half[forward] + half[backward]
    totals *= scale / _edge_normalization(n, False)
    # ``totals`` enumerates edges in lexicographic id order; re-key to the
    # graph's scan order, which is the order the label implementation's
    # score dict iterates in (and hence the pre-shuffle tie order).
    edge_u, edge_v = csr.edge_list_ids()
    lex_u, lex_v = csr.canonical_edge_ids()
    positions = np.searchsorted(lex_u * n + lex_v, edge_u * n + edge_v)
    score_list = totals[positions].tolist()
    order = list(range(edge_u.shape[0]))
    rng = ensure_rng(tie_seed)
    rng.shuffle(order)
    order.sort(key=score_list.__getitem__, reverse=True)
    top = np.asarray(order[:count], dtype=np.int64)
    return edge_u[top], edge_v[top]


def top_edges_by_betweenness(
    graph: Graph,
    count: int,
    num_sources: Optional[int] = None,
    seed: RandomState = None,
    tie_seed: RandomState = None,
) -> List[Edge]:
    """The ``count`` edges of highest betweenness, ties broken randomly.

    The paper specifies that "edges of the same importance are selected
    randomly"; a seeded shuffle before the stable sort realises exactly that.
    """
    u_ids, v_ids = top_edge_ids_by_betweenness(
        graph.csr(), count, num_sources=num_sources, seed=seed, tie_seed=tie_seed
    )
    labels = graph.csr().labels
    return [(labels[u], labels[v]) for u, v in zip(u_ids.tolist(), v_ids.tolist())]
