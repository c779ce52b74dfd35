"""Greedy b-matching — the substrate for BM2's first phase.

A *b-matching* of G under capacities ``b(u)`` is a subgraph in which every
node ``u`` has degree at most ``b(u)``; it is *maximal* when no further edge
can be added without violating a capacity.  BM2 phase 1 (Algorithm 2, lines
3-7) runs the linear-time greedy pass: scan edges once, keep each edge whose
endpoints both still have spare capacity.  The result is a maximal
b-matching and a 1/2-approximation of the maximum one [Hougardy 2009].

:func:`greedy_b_matching_ids` is the one scan.  Unit edges are its default;
an optional weight array turns capacities into probability-mass budgets
for uncertain graphs (weighted BM2, :mod:`repro.uncertain`).
"""

from __future__ import annotations

from itertools import count, repeat
from typing import Dict, Iterable, Mapping, Optional

import numpy as np

from repro.errors import GraphError
from repro.graph.graph import Edge, Graph, Node

__all__ = [
    "greedy_b_matching_ids",
    "is_b_matching",
    "is_maximal_b_matching",
]


def greedy_b_matching_ids(
    edge_u: np.ndarray,
    edge_v: np.ndarray,
    capacities: np.ndarray,
    weights: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Array-native greedy maximal b-matching over integer-id edge arrays.

    The paper's sequential scan ("for each (u,v) in E"): edge ``k`` (in
    input order) is kept iff both endpoints can still absorb it, i.e.
    ``load[u] + w_k <= capacities[u]`` and likewise for ``v``, where a
    node's load sums the weights of the kept edges among positions
    ``0..k-1``.  Returns a boolean kept-mask aligned with the input arrays.

    ``weights=None`` is the paper's unit case over integer capacities:
    every ``w_k`` is the int 1, so the rule is the count rule ``load <
    cap`` and loads stay Python ints.  A float ``weights`` array (uncertain
    graphs, :mod:`repro.uncertain`) makes the capacities budgets of
    probability mass, with float loads.  With all weights exactly 1.0 and
    integer-valued capacities the float loads stay exact, so the kept-mask
    equals the unit scan's bit for bit — but the unit case keeps its int
    loads, which run about twice as fast (measured at 5·10⁵ edges).

    The scan is a Python loop over plain ints with list-indexed loads — no
    label hashing, no per-edge allocations.  Its outcome forms sequential
    decision chains whose depth grows with the graph, and both vectorized
    formulations measured against it (speculative fixpoint rounds, and
    whole-block admission) were slower; ``docs/architecture.md`` records
    the numbers.

    Raises :class:`GraphError` on negative capacities or weights.
    """
    if np.any(capacities < 0):
        worst = int(np.argmin(capacities))
        raise GraphError(
            f"capacity for node id {worst} is negative: {capacities[worst].item()}"
        )
    if weights is None:
        edge_weights: Iterable = repeat(1)
        loads = [0] * capacities.shape[0]
    else:
        if np.any(weights < 0):
            raise GraphError("edge weights must be non-negative")
        edge_weights = weights.tolist()
        loads = [0.0] * capacities.shape[0]
    kept = np.zeros(edge_u.shape[0], dtype=bool)
    caps = capacities.tolist()
    kept_positions = []
    append = kept_positions.append
    for k, u, v, w in zip(count(), edge_u.tolist(), edge_v.tolist(), edge_weights):
        if loads[u] + w <= caps[u] and loads[v] + w <= caps[v]:
            append(k)
            loads[u] += w
            loads[v] += w
    kept[kept_positions] = True
    return kept


def _matched_loads(graph: Graph, edges: Iterable[Edge]) -> Dict[Node, int]:
    load: Dict[Node, int] = dict.fromkeys(graph.nodes(), 0)
    seen = set()
    for u, v in edges:
        if not graph.has_edge(u, v):
            raise GraphError(f"matching contains non-edge ({u!r}, {v!r})")
        key = frozenset((u, v))
        if key in seen:
            raise GraphError(f"matching repeats edge ({u!r}, {v!r})")
        seen.add(key)
        load[u] += 1
        load[v] += 1
    return load


def is_b_matching(graph: Graph, edges: Iterable[Edge], capacities: Mapping[Node, int]) -> bool:
    """True when ``edges`` respects every capacity constraint."""
    load = _matched_loads(graph, edges)
    return all(load[node] <= capacities.get(node, 0) for node in graph.nodes())


def is_maximal_b_matching(
    graph: Graph, edges: Iterable[Edge], capacities: Mapping[Node, int]
) -> bool:
    """True when ``edges`` is a b-matching and no graph edge can be added."""
    edge_list = list(edges)
    load = _matched_loads(graph, edge_list)
    if any(load[node] > capacities.get(node, 0) for node in graph.nodes()):
        return False
    in_matching = {frozenset(e) for e in edge_list}
    for u, v in graph.edges():
        if frozenset((u, v)) in in_matching:
            continue
        if load[u] < capacities.get(u, 0) and load[v] < capacities.get(v, 0):
            return False
    return True
