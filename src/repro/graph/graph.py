"""The core undirected simple-graph data structure.

The paper's algorithms operate on undirected simple graphs (no self-loops,
no parallel edges).  :class:`Graph` stores an adjacency *dict* per node
(neighbour -> ``None``), which gives O(1) expected-time edge insertion,
deletion, and membership tests — exactly the operations CRR's rewiring loop
and BM2's matching passes hammer — while iterating neighbours in insertion
order.  Adjacency **sets** would offer the same O(1) operations but iterate
in hash order, which is ``PYTHONHASHSEED``-dependent for labels whose hash
is randomized (tuples, strings): seeded experiments over such graphs would
differ between processes.  Integer labels masked this (int hashes are
fixed), but the dynamic churn workloads label fresh nodes with tuples.

Nodes may be arbitrary hashable labels (SNAP-style integer ids, strings, ...).
Insertion order is preserved for nodes *and* neighbours, which makes every
iteration order — and hence every seeded experiment — deterministic.

Edges may optionally carry a weight (an existence probability in the
uncertain-graph workload).  Weights live in a separate mirrored mapping
that is only allocated once the first weighted edge arrives, so an
unweighted graph pays nothing — not one extra dict — and every existing
code path is bit-identical.  In a weighted graph, edges added without an
explicit weight default to ``1.0`` (a certain edge).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Hashable, Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.errors import EdgeNotFoundError, NodeNotFoundError, SelfLoopError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.graph.csr import CSRAdjacency

__all__ = ["Graph", "Node", "Edge"]

Node = Hashable
Edge = Tuple[Node, Node]


class Graph:
    """An undirected simple graph backed by insertion-ordered adjacency dicts.

    >>> g = Graph()
    >>> g.add_edge(1, 2)
    True
    >>> g.add_edge(2, 3)
    True
    >>> g.degree(2)
    2
    >>> sorted(g.neighbors(2))
    [1, 3]
    """

    __slots__ = (
        "_adj",
        "_order",
        "_num_edges",
        "_next_order",
        "_csr_cache",
        "_csr_version",
        "_version",
        "_weights",
    )

    def __init__(self, edges: Iterable[Edge] = (), nodes: Iterable[Node] = ()) -> None:
        #: node -> {neighbour: None}, insertion-ordered (see module docstring)
        self._adj: Dict[Node, Dict[Node, None]] = {}
        #: node -> {neighbour: weight}, mirroring ``_adj`` — ``None`` until
        #: the first weighted edge arrives (the unweighted fast path).
        self._weights: Optional[Dict[Node, Dict[Node, float]]] = None
        #: node -> insertion index, used for canonical edge orientation.
        #: Indices come from a monotonic counter (never reused), so nodes
        #: added after removals cannot collide with surviving nodes.
        self._order: Dict[Node, int] = {}
        self._next_order = 0
        self._num_edges = 0
        #: memoised CSR snapshot; dropped on any mutation.
        self._csr_cache: Optional["CSRAdjacency"] = None
        #: mutation counter at which the cached snapshot was built.  The
        #: cache is only served when this matches ``_version``, so even a
        #: mutating path that forgot to null the cache cannot leak a stale
        #: snapshot into array consumers (shard reconciliation would be
        #: silently corrupted by one).
        self._csr_version = -1
        #: monotonic mutation counter (the dynamic-maintenance hook).
        self._version = 0
        for node in nodes:
            self.add_node(node)
        for u, v in edges:
            self.add_edge(u, v)

    @classmethod
    def from_edge_ids(
        cls,
        labels: Sequence[Node],
        edge_u: np.ndarray,
        edge_v: np.ndarray,
        weights: Optional[np.ndarray] = None,
        *,
        by_side: bool = False,
        snapshot: bool = True,
    ) -> "Graph":
        """Build a graph on ``labels`` from edge-id arrays in one bulk pass.

        Node ``i`` is ``labels[i]`` (labels distinct), and nodes keep that
        order.  The edges must be distinct and free of self-loops;
        ``weights``, aligned with them, makes the graph weighted.  Each neighbour list follows edge
        order, exactly as replaying :meth:`add_edge` over the arrays
        would; ``by_side=True`` lists a node's ``edge_u``-side neighbours
        before its ``edge_v``-side ones instead.  With ``snapshot`` the
        CSR snapshot is built from the same sorted arrays and memoised,
        so :meth:`csr` serves it until the first mutation.
        """
        labels = list(labels)
        n = len(labels)
        edge_u = np.asarray(edge_u, dtype=np.int64)
        edge_v = np.asarray(edge_v, dtype=np.int64)
        if by_side:
            heads = np.concatenate((edge_u, edge_v))
            tails = np.concatenate((edge_v, edge_u))
        else:
            heads = np.column_stack((edge_u, edge_v)).ravel()
            tails = np.column_stack((edge_v, edge_u)).ravel()
        # Sort by head, each node's entries in input order: the keys are
        # distinct, so the default sort is stable on the head alone.
        order = np.argsort(heads * heads.shape[0] + np.arange(heads.shape[0]))
        heads, tails = heads[order], tails[order]
        bounds = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(heads, minlength=n), out=bounds[1:])
        bounds = bounds.tolist()
        label_array = np.empty(n, dtype=object)
        label_array[:] = labels
        tail_labels = label_array[tails].tolist()
        graph = cls()
        graph._adj = {
            node: dict.fromkeys(tail_labels[start:end])
            for node, start, end in zip(labels, bounds, bounds[1:])
        }
        half_w = None
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)
            half_w = (np.concatenate((weights, weights)) if by_side else np.repeat(weights, 2))[order]
            half_list = half_w.tolist()
            graph._weights = {
                node: dict(zip(tail_labels[start:end], half_list[start:end]))
                for node, start, end in zip(labels, bounds, bounds[1:])
            }
        graph._order = dict(zip(labels, range(n)))
        graph._next_order = n
        graph._num_edges = int(edge_u.shape[0])
        if snapshot:
            from repro.graph.csr import CSRAdjacency

            # The edges() scan: nodes in id order, each neighbour list in
            # adjacency order, every edge from its lower-id endpoint.
            forward = tails > heads
            graph._csr_cache = CSRAdjacency.from_edge_ids(
                labels,
                heads[forward],
                tails[forward],
                None if half_w is None else half_w[forward],
            )
            graph._csr_version = graph._version
        return graph

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add_node(self, node: Node) -> bool:
        """Add ``node``; return ``True`` if it was not already present."""
        if node in self._adj:
            return False
        self._adj[node] = {}
        if self._weights is not None:
            self._weights[node] = {}
        self._order[node] = self._next_order
        self._next_order += 1
        self._csr_cache = None
        self._version += 1
        return True

    def add_edge(self, u: Node, v: Node, weight: Optional[float] = None) -> bool:
        """Add the undirected edge ``(u, v)``, creating endpoints as needed.

        Returns ``True`` if the edge is new, ``False`` if it already existed.
        Raises :class:`SelfLoopError` for ``u == v``.  An explicit ``weight``
        makes the graph weighted (see :attr:`is_weighted`); re-adding an
        existing edge with a weight updates that weight.
        """
        if u == v:
            raise SelfLoopError(u)
        self.add_node(u)
        self.add_node(v)
        if v in self._adj[u]:
            if weight is not None:
                self.set_edge_weight(u, v, weight)
            return False
        self._adj[u][v] = None
        self._adj[v][u] = None
        self._num_edges += 1
        if weight is not None:
            weights = self._ensure_weights()
            weights[u][v] = float(weight)
            weights[v][u] = float(weight)
        elif self._weights is not None:
            self._weights[u][v] = 1.0
            self._weights[v][u] = 1.0
        self._csr_cache = None
        self._version += 1
        return True

    def remove_edge(self, u: Node, v: Node) -> None:
        """Remove edge ``(u, v)``; raise :class:`EdgeNotFoundError` if absent."""
        if not self.has_edge(u, v):
            raise EdgeNotFoundError(u, v)
        del self._adj[u][v]
        del self._adj[v][u]
        if self._weights is not None:
            del self._weights[u][v]
            del self._weights[v][u]
        self._num_edges -= 1
        self._csr_cache = None
        self._version += 1

    def discard_edge(self, u: Node, v: Node) -> bool:
        """Remove edge ``(u, v)`` if present; return whether it was removed."""
        if not self.has_edge(u, v):
            return False
        del self._adj[u][v]
        del self._adj[v][u]
        if self._weights is not None:
            del self._weights[u][v]
            del self._weights[v][u]
        self._num_edges -= 1
        self._csr_cache = None
        self._version += 1
        return True

    def remove_node(self, node: Node) -> None:
        """Remove ``node`` and all incident edges."""
        if node not in self._adj:
            raise NodeNotFoundError(node)
        for neighbor in self._adj[node]:
            del self._adj[neighbor][node]
            if self._weights is not None:
                del self._weights[neighbor][node]
        self._num_edges -= len(self._adj[node])
        del self._adj[node]
        if self._weights is not None:
            del self._weights[node]
        del self._order[node]
        self._csr_cache = None
        self._version += 1

    def _ensure_weights(self) -> Dict[Node, Dict[Node, float]]:
        """Allocate the weight mirror (existing edges default to 1.0)."""
        if self._weights is None:
            self._weights = {
                node: dict.fromkeys(neighbors, 1.0)
                for node, neighbors in self._adj.items()
            }
        return self._weights

    def set_edge_weight(self, u: Node, v: Node, weight: float) -> None:
        """Set the weight of the existing edge ``(u, v)``.

        Makes the graph weighted if it was not already (every other edge
        defaults to 1.0).  Raises :class:`EdgeNotFoundError` if absent.
        """
        if not self.has_edge(u, v):
            raise EdgeNotFoundError(u, v)
        weights = self._ensure_weights()
        weights[u][v] = float(weight)
        weights[v][u] = float(weight)
        self._csr_cache = None
        self._version += 1

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Number of nodes, ``|V|``."""
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges, ``|E|``."""
        return self._num_edges

    @property
    def version(self) -> int:
        """Monotonic mutation counter: bumps on every node/edge add or remove.

        Incremental consumers (e.g. :class:`repro.dynamic.IncrementalShedder`)
        record the version of the graph state they mirror and compare it on
        the next operation, turning silent out-of-band mutations into loud
        errors instead of corrupted Δ bookkeeping.
        """
        return self._version

    @property
    def is_weighted(self) -> bool:
        """Whether this graph carries edge weights/probabilities."""
        return self._weights is not None

    def edge_weight(self, u: Node, v: Node) -> float:
        """Weight of edge ``(u, v)`` (1.0 on an unweighted graph).

        Raises :class:`EdgeNotFoundError` if the edge is absent.
        """
        if not self.has_edge(u, v):
            raise EdgeNotFoundError(u, v)
        if self._weights is None:
            return 1.0
        return self._weights[u][v]

    def weighted_degree(self, node: Node) -> float:
        """Expected degree of ``node``: the sum of incident edge weights.

        Equals ``float(degree(node))`` on an unweighted graph.
        """
        if self._weights is None:
            return float(self.degree(node))
        try:
            incident = self._weights[node]
        except KeyError:
            raise NodeNotFoundError(node) from None
        return float(sum(incident.values()))

    def edge_weights(self) -> Iterator[Tuple[Node, Node, float]]:
        """Iterate ``(u, v, weight)`` triples in :meth:`edges` order."""
        weights = self._weights
        for u, v in self.edges():
            yield (u, v, 1.0 if weights is None else weights[u][v])

    def has_node(self, node: Node) -> bool:
        return node in self._adj

    def has_edge(self, u: Node, v: Node) -> bool:
        neighbors = self._adj.get(u)
        return neighbors is not None and v in neighbors

    def degree(self, node: Node) -> int:
        """Degree of ``node``; raise :class:`NodeNotFoundError` if absent."""
        try:
            return len(self._adj[node])
        except KeyError:
            raise NodeNotFoundError(node) from None

    def neighbors(self, node: Node) -> Iterator[Node]:
        """Iterate over the neighbours of ``node``."""
        try:
            neighbors = self._adj[node]
        except KeyError:
            raise NodeNotFoundError(node) from None
        return iter(neighbors)

    def nodes(self) -> Iterator[Node]:
        """Iterate over nodes in insertion order."""
        return iter(self._adj)

    def edges(self) -> Iterator[Edge]:
        """Iterate over edges, each reported once in canonical orientation.

        The canonical orientation puts the earlier-inserted endpoint first,
        so the same graph always yields the same edge tuples regardless of
        how the edges were originally spelled.
        """
        order = self._order
        for u, neighbors in self._adj.items():
            for v in neighbors:
                if order[u] < order[v]:
                    yield (u, v)

    def canonical_edge(self, u: Node, v: Node) -> Edge:
        """Return ``(u, v)`` oriented with the earlier-inserted node first."""
        if u not in self._order:
            raise NodeNotFoundError(u)
        if v not in self._order:
            raise NodeNotFoundError(v)
        if self._order[u] <= self._order[v]:
            return (u, v)
        return (v, u)

    def degrees(self) -> Dict[Node, int]:
        """Return a node -> degree mapping (insertion order)."""
        return {node: len(neighbors) for node, neighbors in self._adj.items()}

    def average_degree(self) -> float:
        """Mean degree ``2|E| / |V|`` (0.0 for the empty graph)."""
        if not self._adj:
            return 0.0
        return 2.0 * self._num_edges / len(self._adj)

    def density(self) -> float:
        """Edge density ``2|E| / (|V| (|V|-1))`` (0.0 for < 2 nodes)."""
        n = len(self._adj)
        if n < 2:
            return 0.0
        return 2.0 * self._num_edges / (n * (n - 1))

    # ------------------------------------------------------------------
    # Array views
    # ------------------------------------------------------------------

    def csr(self) -> "CSRAdjacency":
        """The CSR snapshot of this graph, memoised until the next mutation.

        Array-based code (betweenness/BFS kernels, PageRank, embeddings)
        calls this instead of :meth:`CSRAdjacency.from_graph` so that
        back-to-back computations on an unchanged graph share one build.
        Any mutation (node/edge add or remove) drops the cache; the
        returned snapshot itself is immutable and stays valid.
        """
        if self._csr_cache is None or self._csr_version != self._version:
            from repro.graph.csr import CSRAdjacency

            self._csr_cache = CSRAdjacency.from_graph(self)
            self._csr_version = self._version
        return self._csr_cache

    def cached_csr(self) -> Optional["CSRAdjacency"]:
        """The memoised CSR snapshot if it is current, else ``None``.

        Fast-path consumers (e.g. :func:`repro.core.discrepancy.compute_delta`)
        use this to reuse an existing snapshot without forcing a build on
        graphs that are only touched once.
        """
        if self._csr_cache is not None and self._csr_version == self._version:
            return self._csr_cache
        return None

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------

    def copy(self) -> "Graph":
        """Return a deep structural copy (labels shared, adjacencies new)."""
        clone = Graph()
        clone._adj = {node: dict(neighbors) for node, neighbors in self._adj.items()}
        if self._weights is not None:
            clone._weights = {
                node: dict(incident) for node, incident in self._weights.items()
            }
        clone._order = dict(self._order)
        clone._next_order = self._next_order
        clone._num_edges = self._num_edges
        clone._version = self._version
        # The snapshot is immutable and describes the same structure, so
        # the clone can share it until either side mutates.
        clone._csr_cache = self._csr_cache
        clone._csr_version = self._csr_version
        return clone

    def edge_subgraph(self, edges: Iterable[Edge], keep_all_nodes: bool = True) -> "Graph":
        """Build the subgraph containing exactly ``edges``.

        The reduced graphs the paper studies keep the full node set ``V' = V``
        (isolated nodes are part of the degree distribution), which is the
        default.  Pass ``keep_all_nodes=False`` to keep only edge endpoints.

        Raises :class:`EdgeNotFoundError` if an edge is not in this graph,
        so a "reduced graph" can never silently invent edges.
        """
        sub = Graph()
        self_weights = self._weights
        if not keep_all_nodes:
            for u, v in edges:
                if not self.has_edge(u, v):
                    raise EdgeNotFoundError(u, v)
                sub.add_edge(
                    u, v,
                    weight=None if self_weights is None else self_weights[u][v],
                )
            return sub
        # Full-node-set path (the paper's V' = V convention): build the
        # adjacency directly instead of going through add_edge, which would
        # re-run node creation and self-loop checks per edge.  Every
        # reduction result funnels through here, so this is a hot tail.
        self_adj = self._adj
        adj: Dict[Node, Dict[Node, None]] = {node: {} for node in self_adj}
        weights: Optional[Dict[Node, Dict[Node, float]]] = (
            None if self_weights is None else {node: {} for node in self_adj}
        )
        count = 0
        for u, v in edges:
            neighbors = self_adj.get(u)
            if neighbors is None or v not in neighbors:
                raise EdgeNotFoundError(u, v)
            targets = adj[u]
            if v not in targets:
                targets[v] = None
                adj[v][u] = None
                if weights is not None:
                    w = self_weights[u][v]
                    weights[u][v] = w
                    weights[v][u] = w
                count += 1
        sub._adj = adj
        sub._weights = weights
        sub._order = dict(self._order)
        sub._next_order = self._next_order
        sub._num_edges = count
        return sub

    def node_subgraph(self, nodes: Iterable[Node]) -> "Graph":
        """Return the subgraph induced by ``nodes``."""
        keep = set(nodes)
        missing = keep - self._adj.keys()
        if missing:
            raise NodeNotFoundError(next(iter(missing)))
        sub = Graph()
        for node in self._adj:
            if node in keep:
                sub.add_node(node)
        weights = self._weights
        for u, v in self.edges():
            if u in keep and v in keep:
                sub.add_edge(
                    u, v, weight=None if weights is None else weights[u][v]
                )
        return sub

    # ------------------------------------------------------------------
    # Dunder protocol
    # ------------------------------------------------------------------

    def __contains__(self, node: Node) -> bool:
        return node in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._adj)

    def __eq__(self, other: object) -> bool:
        """Structural equality: same node set, edge set and (if any) weights."""
        if not isinstance(other, Graph):
            return NotImplemented
        if self._adj.keys() != other._adj.keys():
            return False
        if not all(self._adj[node] == other._adj[node] for node in self._adj):
            return False
        if self._weights is None and other._weights is None:
            return True
        # One (or both) weighted: compare effective weights, treating a
        # missing mirror as all-ones so `g == g.copy()` survives a
        # set_edge_weight(…, 1.0) round-trip.
        for u, v in self.edges():
            if self.edge_weight(u, v) != other.edge_weight(u, v):
                return False
        return True

    def __repr__(self) -> str:
        return f"Graph(num_nodes={self.num_nodes}, num_edges={self.num_edges})"
