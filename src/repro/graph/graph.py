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

A graph built from edge-id arrays (:meth:`Graph.from_edge_ids`: edge-list
files, reduction results, process-mode payloads) keeps its head-sorted
half-edge arrays and builds the dicts on first need: the first mutation or
dict read (:meth:`Graph.neighbors`, :meth:`Graph.degree`,
:meth:`Graph.has_edge`, ``==``, :meth:`Graph.copy`, ...).  Node labels,
counts, the :meth:`Graph.edges` scan and the CSR snapshot answer from the
arrays, so a read-only pipeline (read, reduce, score, write) never builds
them.  Until then each dict slot holds a stand-in whose first use builds
all three dicts into the slots.  ``Graph`` itself defines no attribute
hook, so a graph built through :meth:`Graph.add_edge` reads its slots
exactly as it would without deferred graphs.

Edges may optionally carry a weight (an existence probability in the
uncertain-graph workload).  Weights live in a separate mirrored mapping
that is only allocated once the first weighted edge arrives, so an
unweighted graph pays nothing — not one extra dict — and every existing
code path is bit-identical.  In a weighted graph, edges added without an
explicit weight default to ``1.0`` (a certain edge).
"""

from __future__ import annotations

import threading
import weakref
from itertools import repeat
from typing import TYPE_CHECKING, Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import EdgeNotFoundError, NodeNotFoundError, SelfLoopError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.graph.csr import CSRAdjacency

__all__ = ["Graph", "Node", "Edge"]

Node = Hashable
Edge = Tuple[Node, Node]


class Graph:
    """An undirected simple graph backed by insertion-ordered adjacency dicts.

    A graph from :meth:`from_edge_ids` builds those dicts on first need
    (see the module docstring); until then it reads from its edge arrays.

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
        "_digest",
        "_version",
        "_weights",
        "_ids",
        "__weakref__",  # held by the stand-ins of unbuilt dict slots
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
        #: ``(version, digest)`` memo owned by
        #: :func:`repro.service.store.graph_digest`, served only while
        #: ``version == _version``, as the snapshot is.  One tuple, so no
        #: reader pairs one thread's version with another's digest.
        self._digest: Optional[Tuple[int, str]] = None
        #: monotonic mutation counter (the dynamic-maintenance hook).
        self._version = 0
        #: ``(labels, heads, tails, half-edge weights)`` of a graph from
        #: :meth:`from_edge_ids` whose dicts are not built yet (its dict
        #: slots hold :class:`_Unbuilt` stand-ins), else ``None``.
        self._ids: Optional[_EdgeIds] = None
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
        ``weights``, aligned with them, makes the graph weighted.  Each
        neighbour list follows edge order, exactly as replaying
        :meth:`add_edge` over the arrays would; ``by_side=True`` lists a
        node's ``edge_u``-side neighbours before its ``edge_v``-side ones
        instead.  The graph keeps the head-sorted half-edge arrays and
        builds its dicts on first need (see the module docstring).  With
        ``snapshot`` the CSR snapshot is built from the same arrays and
        memoised, so :meth:`csr` serves it until the first mutation.
        """
        labels = list(labels)
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
        half_w = None
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)
            half_w = (np.concatenate((weights, weights)) if by_side else np.repeat(weights, 2))[order]
        graph = cls()
        graph._adj = _Unbuilt(graph, "_adj")
        graph._order = _Unbuilt(graph, "_order")
        if half_w is not None:
            graph._weights = _Unbuilt(graph, "_weights")
        graph._ids = (labels, heads[order], tails[order], half_w)
        graph._next_order = len(labels)
        graph._num_edges = int(edge_u.shape[0])
        if snapshot:
            graph.csr()
        return graph

    def _build_dicts(self) -> None:
        """Build ``_adj``/``_weights``/``_order`` from the arrays, if not built.

        Each node's neighbours follow its run of entries, which is the
        order :meth:`from_edge_ids` documents.  Filling the dicts changes
        no structure, so ``_version`` (and every memo keyed on it) stays.
        Builds run under one lock and re-check ``_ids`` there, so a thread
        that reached the build second never publishes its dicts over ones
        another thread has built and mutated since.
        """
        with _BUILD_LOCK:
            ids = self._ids
            if ids is None:
                return
            labels, heads, tails, half_w = ids
            n = len(labels)
            bounds = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(np.bincount(heads, minlength=n), out=bounds[1:])
            bounds = bounds.tolist()
            tail_labels = _label_array(labels)[tails].tolist()
            adj = {
                node: dict.fromkeys(tail_labels[start:end])
                for node, start, end in zip(labels, bounds, bounds[1:])
            }
            weights = None
            if half_w is not None:
                half_list = half_w.tolist()
                weights = {
                    node: dict(zip(tail_labels[start:end], half_list[start:end]))
                    for node, start, end in zip(labels, bounds, bounds[1:])
                }
            self._adj, self._weights, self._order = adj, weights, dict(zip(labels, range(n)))
            self._ids = None

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
        ids = self._ids
        return len(self._adj if ids is None else ids[0])

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
        ids = self._ids
        if ids is not None:
            labels, edge_u, edge_v, weights = _scan(ids)
            edge_w = repeat(1.0) if weights is None else weights.tolist()
            return zip(*_endpoint_labels(labels, edge_u, edge_v), edge_w)
        weights = self._weights
        return (
            (u, v, 1.0 if weights is None else weights[u][v]) for u, v in self._edge_scan()
        )

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
        ids = self._ids
        return iter(self._adj if ids is None else ids[0])

    def edges(self) -> Iterator[Edge]:
        """Iterate over edges, each reported once in canonical orientation.

        The canonical orientation puts the earlier-inserted endpoint first,
        so the same graph always yields the same edge tuples regardless of
        how the edges were originally spelled.
        """
        ids = self._ids
        if ids is not None:
            labels, edge_u, edge_v, _ = _scan(ids)
            return zip(*_endpoint_labels(labels, edge_u, edge_v))
        return self._edge_scan()

    def _edge_scan(self) -> Iterator[Edge]:
        """The :meth:`edges` scan over the dicts."""
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

    def _id_degrees(self, labels: List[Node]) -> Optional[np.ndarray]:
        """``int64`` degrees in ``labels`` order, if answerable from arrays.

        ``None`` unless this is a :meth:`from_edge_ids` graph whose dicts
        are not built and whose node order is exactly ``labels``.
        """
        ids = self._ids
        if ids is None or ids[0] != labels:
            return None
        return np.bincount(ids[1], minlength=len(labels))

    def _neighbor_ids(self) -> Tuple[np.ndarray, np.ndarray]:
        """``int64`` degrees in :meth:`nodes` order and the neighbour ids, flat.

        Each node's run follows :meth:`neighbors`.  An unbuilt
        :meth:`from_edge_ids` graph answers from its arrays (read-only).
        """
        ids = self._ids
        if ids is not None:
            return np.bincount(ids[1], minlength=len(ids[0])), ids[2]
        index_of = {node: i for i, node in enumerate(self._adj)}
        degrees = np.fromiter(map(len, self._adj.values()), dtype=np.int64, count=len(index_of))
        flat = (index_of[x] for neighbors in self._adj.values() for x in neighbors)
        return degrees, np.fromiter(flat, dtype=np.int64, count=2 * self._num_edges)

    def average_degree(self) -> float:
        """Mean degree ``2|E| / |V|`` (0.0 for the empty graph)."""
        n = self.num_nodes
        if not n:
            return 0.0
        return 2.0 * self._num_edges / n

    def density(self) -> float:
        """Edge density ``2|E| / (|V| (|V|-1))`` (0.0 for < 2 nodes)."""
        n = self.num_nodes
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

            ids = self._ids
            self._csr_cache = (
                CSRAdjacency.from_graph(self)
                if ids is None
                else CSRAdjacency.from_edge_ids(*_scan(ids))
            )
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

    def edge_arrays(
        self,
    ) -> Tuple[List[Node], np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """The :meth:`edges` scan in id space, without memoising a snapshot.

        Returns ``(labels, edge_u, edge_v, weights)``: node ``i`` is
        ``labels[i]`` in :meth:`nodes` order, the ``int64`` endpoint ids
        run in :meth:`edges` order and orientation (so ``edge_u < edge_v``),
        and ``weights`` aligns with them (``None`` when unweighted).  A
        current snapshot or a :meth:`from_edge_ids` graph answers from its
        arrays; otherwise this is one Python pass over the dicts.  Treat
        the results as read-only: they may be shared with the graph.
        """
        csr = self.cached_csr()
        if csr is not None:
            return (csr.labels, *csr.edge_list_ids(), csr.weights)
        ids = self._ids
        if ids is not None:
            return _scan(ids)
        labels = list(self._adj)
        index_of = {node: i for i, node in enumerate(labels)}
        m = self._num_edges
        endpoint_ids = np.fromiter(
            (index_of[endpoint] for edge in self._edge_scan() for endpoint in edge),
            dtype=np.int64,
            count=2 * m,
        )
        weights = None
        if self._weights is not None:
            weights = np.fromiter(
                (w for _, _, w in self.edge_weights()), dtype=np.float64, count=m
            )
        return (
            labels,
            np.ascontiguousarray(endpoint_ids[0::2]),
            np.ascontiguousarray(endpoint_ids[1::2]),
            weights,
        )

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
        # The snapshot and the digest memo describe the same structure, so
        # the clone can share them until either side mutates.
        clone._csr_cache = self._csr_cache
        clone._csr_version = self._csr_version
        clone._digest = self._digest
        return clone

    def edge_subgraph(self, edges: Iterable[Edge], keep_all_nodes: bool = True) -> "Graph":
        """Build the subgraph containing exactly ``edges``.

        The reduced graphs the paper studies keep the full node set ``V' = V``
        (isolated nodes are part of the degree distribution), which is the
        default.  Pass ``keep_all_nodes=False`` to keep only edge endpoints.

        Raises :class:`EdgeNotFoundError` if an edge is not in this graph,
        so a "reduced graph" can never silently invent edges.
        """
        self._build_dicts()  # the loops below hold the dicts, not stand-ins
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
        return self.num_nodes

    def __iter__(self) -> Iterator[Node]:
        return self.nodes()

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


#: ``(labels, heads, tails, half-edge weights or None)``: the half-edge
#: arrays of a :meth:`Graph.from_edge_ids` graph, sorted by head.
_EdgeIds = Tuple[List[Node], np.ndarray, np.ndarray, Optional[np.ndarray]]

#: Serialises first dict builds (see :meth:`Graph._build_dicts`).
_BUILD_LOCK = threading.Lock()


class _Unbuilt:
    """Stands in a dict slot of a :meth:`Graph.from_edge_ids` graph.

    Its first use builds the graph's dicts, which replaces every stand-in
    in the slots, and is answered by the built dict, as is any later use
    of a stand-in that a caller still holds.
    """

    __slots__ = ("_graph", "_name")

    def __init__(self, graph: Graph, name: str) -> None:
        # Weak, so a graph whose dicts are never built is freed by refcount.
        self._graph = weakref.ref(graph)
        self._name = name

    def _built(self) -> dict:
        graph = self._graph()
        graph._build_dicts()
        return getattr(graph, self._name)

    def __getattr__(self, name: str):  # get, items, keys, values, setdefault, ...
        if name.startswith("__"):
            raise AttributeError(name)
        return getattr(self._built(), name)

    def __getitem__(self, key):
        return self._built()[key]

    def __setitem__(self, key, value) -> None:
        self._built()[key] = value

    def __delitem__(self, key) -> None:
        del self._built()[key]

    def __contains__(self, key) -> bool:
        return key in self._built()

    def __iter__(self):
        return iter(self._built())

    def __len__(self) -> int:
        return len(self._built())

    def __reduce__(self):
        return _Unbuilt, (self._graph(), self._name)


def _scan(ids: _EdgeIds) -> Tuple[List[Node], np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """The :meth:`Graph.edges` scan of head-sorted half-edge arrays.

    Nodes in id order, each neighbour run in adjacency order, every edge
    from its lower-id endpoint: exactly the forward (tail > head) entries.
    """
    labels, heads, tails, half_w = ids
    forward = tails > heads
    return labels, heads[forward], tails[forward], None if half_w is None else half_w[forward]


def _label_array(labels: List[Node]) -> np.ndarray:
    """``object[n]`` of labels (filled in place, so tuples stay scalars)."""
    array = np.empty(len(labels), dtype=object)
    array[:] = labels
    return array


def _endpoint_labels(
    labels: List[Node], edge_u: np.ndarray, edge_v: np.ndarray
) -> Tuple[List[Node], List[Node]]:
    """The labels of each edge's endpoints, as two lists."""
    label_array = _label_array(labels)
    return label_array[edge_u].tolist(), label_array[edge_v].tolist()
