"""Scalar oracles for the graph kernels and the bulk graph construction.

The dict-of-sets Brandes sweep and the per-node label-propagation scan
that the CSR kernels in :mod:`repro.graph.centrality`,
:mod:`repro.graph.kernels` and :mod:`repro.graph.communities` replay.
Tests pin the kernels against them; micro-benchmarks time them as the
baseline.

Beside them, the per-edge graph constructions that
:meth:`repro.graph.Graph.from_edge_ids` replaced: the per-line edge-list
reader, the ``add_edge`` replay of process-mode payloads, and the
grouped-sort ``subgraph_from_edge_ids``.  The ingest equivalence suites
pin the new construction's node order, neighbour order, weights and
summaries against them.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import GraphError
from repro.graph.centrality import _edge_normalization, _node_normalization
from repro.graph.csr import CSRAdjacency
from repro.graph.graph import Edge, Graph, Node
from repro.graph.io import EdgeListSummary
from repro.graph.sampling import select_sources
from repro.rng import RandomState, ensure_rng

__all__ = [
    "_label_propagation_legacy",
    "_legacy_edge_betweenness",
    "_legacy_node_betweenness",
    "_legacy_top_edges_by_betweenness",
    "graph_from_ids_replay",
    "label_propagation_settled",
    "read_edge_list_per_line",
    "subgraph_from_edge_ids_grouped",
]


def _adjacency_lists(graph: Graph) -> Dict[Node, List[Node]]:
    """Materialise neighbour lists once; list iteration is ~2x faster than
    set iteration in the accumulation loop, which runs |V| times."""
    return {node: list(graph.neighbors(node)) for node in graph.nodes()}


def _brandes_sssp(
    adjacency: Dict[Node, List[Node]], source: Node
) -> Tuple[List[Node], Dict[Node, List[Node]], Dict[Node, float]]:
    """Brandes BFS stage: returns (stack, predecessors, path counts)."""
    stack: List[Node] = []
    predecessors: Dict[Node, List[Node]] = {node: [] for node in adjacency}
    sigma: Dict[Node, float] = dict.fromkeys(adjacency, 0.0)
    sigma[source] = 1.0
    distance: Dict[Node, int] = {source: 0}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        stack.append(node)
        node_distance = distance[node]
        sigma_node = sigma[node]
        for neighbor in adjacency[node]:
            neighbor_distance = distance.get(neighbor)
            if neighbor_distance is None:
                distance[neighbor] = node_distance + 1
                queue.append(neighbor)
                sigma[neighbor] += sigma_node
                predecessors[neighbor].append(node)
            elif neighbor_distance == node_distance + 1:
                sigma[neighbor] += sigma_node
                predecessors[neighbor].append(node)
    return stack, predecessors, sigma


def _legacy_node_betweenness(
    graph: Graph,
    normalized: bool = True,
    num_sources: Optional[int] = None,
    seed: RandomState = None,
) -> Dict[Node, float]:
    """Pre-kernel node betweenness over Python dicts (reference/benchmark)."""
    centrality: Dict[Node, float] = dict.fromkeys(graph.nodes(), 0.0)
    sources, scale = select_sources(graph, num_sources, seed)
    adjacency = _adjacency_lists(graph)
    for source in sources:
        stack, predecessors, sigma = _brandes_sssp(adjacency, source)
        delta: Dict[Node, float] = dict.fromkeys(stack, 0.0)
        while stack:
            node = stack.pop()
            coefficient = (1.0 + delta[node]) / sigma[node]
            for predecessor in predecessors[node]:
                delta[predecessor] += sigma[predecessor] * coefficient
            if node != source:
                centrality[node] += delta[node]
        # ``delta`` only covers reachable nodes; unreachable ones add 0.
    factor = scale / _node_normalization(graph.num_nodes, normalized)
    return {node: value * factor for node, value in centrality.items()}


def _legacy_edge_betweenness(
    graph: Graph,
    normalized: bool = True,
    num_sources: Optional[int] = None,
    seed: RandomState = None,
) -> Dict[Edge, float]:
    """Pre-kernel edge betweenness over Python dicts (reference/benchmark)."""
    centrality: Dict[Edge, float] = {edge: 0.0 for edge in graph.edges()}
    sources, scale = select_sources(graph, num_sources, seed)
    adjacency = _adjacency_lists(graph)
    for source in sources:
        stack, predecessors, sigma = _brandes_sssp(adjacency, source)
        delta: Dict[Node, float] = dict.fromkeys(stack, 0.0)
        while stack:
            node = stack.pop()
            coefficient = (1.0 + delta[node]) / sigma[node]
            for predecessor in predecessors[node]:
                contribution = sigma[predecessor] * coefficient
                centrality[graph.canonical_edge(predecessor, node)] += contribution
                delta[predecessor] += contribution
    factor = scale / _edge_normalization(graph.num_nodes, normalized)
    return {edge: value * factor for edge, value in centrality.items()}


def _legacy_top_edges_by_betweenness(
    graph: Graph,
    count: int,
    num_sources: Optional[int] = None,
    seed: RandomState = None,
    tie_seed: RandomState = None,
) -> List[Edge]:
    """Pre-kernel top-k selection (reference for bit-for-bit comparisons)."""
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    scores = _legacy_edge_betweenness(
        graph, normalized=False, num_sources=num_sources, seed=seed
    )
    edges = list(scores)
    rng = ensure_rng(tie_seed)
    rng.shuffle(edges)
    edges.sort(key=lambda edge: scores[edge], reverse=True)
    return edges[:count]


def _label_propagation_legacy(
    graph: Graph, max_iterations: int = 100, seed: RandomState = None
) -> Dict[Node, int]:
    """The original per-node Python sweep (the CSR engine's oracle).

    Stops after the first sweep that leaves the labelling settled
    (:func:`label_propagation_settled`), or after ``max_iterations``.
    """
    rng = ensure_rng(seed)
    labels: Dict[Node, int] = {node: i for i, node in enumerate(graph.nodes())}
    nodes = list(graph.nodes())
    for _ in range(max_iterations):
        rng.shuffle(nodes)
        for node in nodes:
            neighbor_labels = Counter(labels[neighbor] for neighbor in graph.neighbors(node))
            if not neighbor_labels:
                continue
            best_count = max(neighbor_labels.values())
            best = [label for label, count in neighbor_labels.items() if count == best_count]
            choice = best[int(rng.integers(len(best)))] if len(best) > 1 else best[0]
            labels[node] = choice
        if label_propagation_settled(graph, labels):
            break
    # Dense re-numbering in node insertion order.
    remap: Dict[int, int] = {}
    renumbered: Dict[Node, int] = {}
    for node in graph.nodes():
        label = labels[node]
        if label not in remap:
            remap[label] = len(remap)
        renumbered[node] = remap[label]
    return renumbered


def label_propagation_settled(graph: Graph, labels: Dict[Node, int]) -> bool:
    """Whether every node's label is among its neighbours' most frequent
    labels (the Raghavan-Albert-Kumara stopping rule); nodes without
    neighbours always pass."""
    for node in graph.nodes():
        counts = Counter(labels[neighbor] for neighbor in graph.neighbors(node))
        if counts and counts[labels[node]] < max(counts.values()):
            return False
    return True


def read_edge_list_per_line(
    path, weight_col: Optional[int] = None
) -> Tuple[Graph, EdgeListSummary]:
    """The per-line ``add_edge`` edge-list reader (``read_edge_list_with_summary``).

    Unlike the runtime reader it accepts a ``nan`` weight token: NaN
    fails both range checks, so it is neither clamped nor counted.
    """
    if weight_col is not None and weight_col < 2:
        raise GraphError(
            f"weight_col must be >= 2 (columns 0-1 are the endpoints), got {weight_col}"
        )
    graph = Graph()
    lines_total = comment_lines = self_loops = duplicates = clamped = 0
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, raw_line in enumerate(handle, start=1):
            lines_total += 1
            line = raw_line.strip()
            if not line or line.startswith(("#", "%")):
                comment_lines += 1
                continue
            parts = line.split()
            if len(parts) < 2:
                raise GraphError(f"{path}:{line_number}: expected two node tokens, got {line!r}")
            u, v = _parse_node(parts[0]), _parse_node(parts[1])
            weight = None
            if weight_col is not None:
                if len(parts) <= weight_col:
                    raise GraphError(
                        f"{path}:{line_number}: no weight column {weight_col} in {line!r}"
                    )
                try:
                    weight = float(parts[weight_col])
                except ValueError:
                    raise GraphError(
                        f"{path}:{line_number}: bad weight token {parts[weight_col]!r}"
                    ) from None
                if weight < 0.0 or weight > 1.0:
                    clamped += 1
                    weight = min(1.0, max(0.0, weight))
            if u == v:
                self_loops += 1
                continue
            if not graph.add_edge(u, v, weight=weight):
                duplicates += 1
    summary = EdgeListSummary(
        lines_total=lines_total,
        comment_lines=comment_lines,
        edges_added=graph.num_edges,
        self_loops_skipped=self_loops,
        duplicates_skipped=duplicates,
        weights_clamped=clamped,
    )
    return graph, summary


def _parse_node(token: str):
    try:
        return int(token)
    except ValueError:
        return token


def graph_from_ids_replay(
    labels: List[Any],
    u_ids: np.ndarray,
    v_ids: np.ndarray,
    edge_w: Optional[np.ndarray],
) -> Graph:
    """The per-edge ``add_edge`` replay of a process-mode payload.

    Nodes are added in label order and edges replayed in array order.
    """
    graph = Graph(nodes=labels)
    if edge_w is None:
        for i, j in zip(u_ids.tolist(), v_ids.tolist()):
            graph.add_edge(labels[i], labels[j])
    else:
        for i, j, w in zip(u_ids.tolist(), v_ids.tolist(), edge_w.tolist()):
            graph.add_edge(labels[i], labels[j], weight=w)
    return graph


def subgraph_from_edge_ids_grouped(
    csr: CSRAdjacency, edge_u: np.ndarray, edge_v: np.ndarray
) -> Graph:
    """The grouped-sort ``CSRAdjacency.subgraph_from_edge_ids``.

    One stable sort of the concatenated endpoint arrays lists each
    node's ``edge_u``-side neighbours before its ``edge_v``-side ones.
    """
    n = csr.num_nodes
    labels = csr.labels
    heads = np.concatenate((edge_u, edge_v))
    tails = np.concatenate((edge_v, edge_u))
    head_order = np.argsort(heads, kind="stable")
    tails_sorted = tails[head_order]
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(heads, minlength=n), out=offsets[1:])
    tail_labels = csr.labels_array()[tails_sorted].tolist()
    bounds = offsets.tolist()
    graph = Graph()
    graph._adj = {
        node: dict.fromkeys(tail_labels[start:end])
        for node, start, end in zip(labels, bounds, bounds[1:])
    }
    if csr.weights is not None:
        edge_w = csr.edge_weights_for(edge_u, edge_v)
        half_w = np.concatenate((edge_w, edge_w))[head_order].tolist()
        graph._weights = {
            node: dict(zip(tail_labels[start:end], half_w[start:end]))
            for node, start, end in zip(labels, bounds, bounds[1:])
        }
    graph._order = dict(zip(labels, range(n)))
    graph._next_order = n
    graph._num_edges = int(edge_u.shape[0])
    return graph
