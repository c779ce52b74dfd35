"""Shortest-path distance computations and distributions.

Evaluation task 2 ("shortest-path distance") needs the *distribution* of
pairwise hop distances: for each distance value, the fraction of reachable
vertex pairs at that distance.  On the paper's graphs (unweighted), one BFS
per source suffices; for large graphs we sample sources, which preserves the
distribution shape the figures compare.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Optional

from repro.errors import GraphError
from repro.graph.graph import Graph
from repro.graph.kernels import distance_histogram
from repro.graph.sampling import select_source_ids
from repro.rng import RandomState

__all__ = [
    "pairwise_distance_counts",
    "distance_distribution",
    "average_shortest_path_length",
    "effective_diameter",
]


def pairwise_distance_counts(
    graph: Graph,
    num_sources: Optional[int] = None,
    seed: RandomState = None,
) -> Counter:
    """Count reachable ordered pairs by hop distance (distance >= 1).

    With ``num_sources=None`` this is exact: one BFS per node, counting each
    ordered pair once (so every unordered pair is counted twice, which cancels
    out when normalising).  With sampling, counts are from the sampled sources
    only — an unbiased estimate of the distribution.

    The per-source sweep runs on the CSR kernel
    (:func:`repro.graph.kernels.distance_histogram`): each BFS only tallies
    level sizes, never a per-node dictionary.  Source sampling is shared
    with betweenness via :mod:`repro.graph.sampling`.
    """
    csr = graph.csr()
    source_ids, _ = select_source_ids(csr.num_nodes, num_sources, seed)
    histogram = distance_histogram(csr, source_ids)
    return Counter(
        {distance: int(count) for distance, count in enumerate(histogram) if count > 0}
    )


def distance_distribution(
    graph: Graph,
    num_sources: Optional[int] = None,
    seed: RandomState = None,
) -> Dict[int, float]:
    """Fraction of reachable pairs at each hop distance (sums to 1.0).

    This is exactly the quantity plotted in the paper's Figure 7.
    Returns an empty dict when the graph has no connected pairs.
    """
    counts = pairwise_distance_counts(graph, num_sources=num_sources, seed=seed)
    total = sum(counts.values())
    if total == 0:
        return {}
    return {distance: count / total for distance, count in sorted(counts.items())}


def average_shortest_path_length(
    graph: Graph,
    num_sources: Optional[int] = None,
    seed: RandomState = None,
) -> float:
    """Mean hop distance over reachable pairs; raises if no pairs exist."""
    counts = pairwise_distance_counts(graph, num_sources=num_sources, seed=seed)
    total = sum(counts.values())
    if total == 0:
        raise GraphError("graph has no connected vertex pairs")
    return sum(distance * count for distance, count in counts.items()) / total


def effective_diameter(
    graph: Graph,
    fraction: float = 0.9,
    num_sources: Optional[int] = None,
    seed: RandomState = None,
) -> float:
    """Smallest hop count covering ``fraction`` of reachable pairs.

    Interpolates linearly between integer hop counts, the standard
    "effective diameter" used alongside hop-plots.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    counts = pairwise_distance_counts(graph, num_sources=num_sources, seed=seed)
    total = sum(counts.values())
    if total == 0:
        raise GraphError("graph has no connected vertex pairs")
    target = fraction * total
    cumulative = 0
    previous_cumulative = 0
    for distance in sorted(counts):
        previous_cumulative = cumulative
        cumulative += counts[distance]
        if cumulative >= target:
            if counts[distance] == 0:
                return float(distance)
            # Linear interpolation within this hop ring.
            overshoot = (target - previous_cumulative) / counts[distance]
            return (distance - 1) + overshoot
    return float(max(counts))
