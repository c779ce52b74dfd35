"""Compressed-sparse-row adjacency export.

The numpy-heavy kernels (Brandes betweenness, BFS sweeps, PageRank power
iteration, embedding training) want a flat integer adjacency instead of
Python sets.  :class:`CSRAdjacency` is an immutable snapshot of a
:class:`Graph`: node labels are frozen into positions ``0..n-1``
(insertion order) and neighbour lists are concatenated into one array
with an offsets index.

Because ids follow insertion order and :meth:`Graph.canonical_edge`
orients edges earlier-inserted-endpoint-first, the canonical orientation
of any edge is simply ``(labels[min(u, v)], labels[max(u, v)])`` in id
space — which is what lets the array kernels map half-edge scores back
to canonical :data:`Edge` keys without consulting the originating graph.

Snapshots are usually obtained via :meth:`Graph.csr`, which caches one
per graph and invalidates it on mutation, so back-to-back array
computations (PageRank, betweenness, BFS sweeps, embeddings) share a
single build.  Graphs built from arrays by :meth:`Graph.from_edge_ids`
(edge-list files, process-mode payloads) arrive with that cache filled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import GraphError
from repro.graph.graph import Graph, Node

__all__ = ["CSRAdjacency", "CSRView"]


@dataclass(frozen=True)
class CSRAdjacency:
    """Immutable CSR view of an undirected graph.

    Attributes:
        indptr: ``int64[n+1]`` — neighbour slice boundaries per node.
        indices: ``int64[2m]`` — concatenated neighbour ids, sorted within
            each slice (the canonical CSR form).
        labels: original node label for each integer id (insertion order).
        index_of: original node label -> integer id.
        weights: optional ``float64[m]`` edge weights/probabilities aligned
            with :meth:`edge_list_ids` order; ``None`` for an unweighted
            snapshot (every existing path is untouched).
    """

    indptr: np.ndarray
    indices: np.ndarray
    labels: List[Node]
    index_of: Dict[Node, int]
    #: Lazily-built derived arrays (entry heads, undirected entry pairing).
    _derived: dict = field(default_factory=dict, repr=False, compare=False)
    weights: Optional[np.ndarray] = None

    @classmethod
    def from_graph(cls, graph: Graph) -> "CSRAdjacency":
        labels = list(graph.nodes())
        index_of = {node: i for i, node in enumerate(labels)}
        m = graph.num_edges
        # The one Python-speed pass: endpoint ids in Graph.edges() order.
        endpoint_ids = np.fromiter(
            (index_of[endpoint] for edge in graph.edges() for endpoint in edge),
            dtype=np.int64,
            count=2 * m,
        )
        weights = None
        if graph.is_weighted:
            weights = np.fromiter(
                (w for _, _, w in graph.edge_weights()),
                dtype=np.float64,
                count=m,
            )
        return cls.from_edge_ids(
            labels,
            np.ascontiguousarray(endpoint_ids[0::2]),
            np.ascontiguousarray(endpoint_ids[1::2]),
            weights,
        )

    @classmethod
    def from_edge_ids(
        cls,
        labels: List[Node],
        edge_u: np.ndarray,
        edge_v: np.ndarray,
        weights: Optional[np.ndarray] = None,
        **fields,
    ) -> "CSRAdjacency":
        """The snapshot of the edges ``(edge_u, edge_v)`` in scan order.

        The arrays become :meth:`edge_list_ids` as given, so they must be
        distinct edges oriented lower id first, in the order the
        originating graph's :meth:`Graph.edges` scan yields them;
        ``weights`` aligns with them.  Sorting the 2m half-edge keys
        ``head * n + tail`` yields the per-slice sorted neighbour order
        in one pass.  ``fields`` passes subclass fields (a view's
        ``global_ids``).
        """
        n = len(labels)
        heads = np.concatenate((edge_u, edge_v))
        keys = heads * n + np.concatenate((edge_v, edge_u))
        keys.sort()
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(heads, minlength=n), out=indptr[1:])
        return cls(
            indptr=indptr,
            indices=keys % n,
            labels=labels,
            index_of={node: i for i, node in enumerate(labels)},
            _derived={"edge_list_ids": (edge_u, edge_v)},
            weights=weights,
            **fields,
        )

    @property
    def num_nodes(self) -> int:
        return len(self.labels)

    @property
    def num_edges(self) -> int:
        return int(self.indices.shape[0]) // 2

    @property
    def is_weighted(self) -> bool:
        """Whether this snapshot carries edge weights/probabilities."""
        return self.weights is not None

    def neighbors(self, node_id: int) -> np.ndarray:
        """Neighbour ids of integer node ``node_id`` (a read-only view)."""
        return self.indices[self.indptr[node_id] : self.indptr[node_id + 1]]

    def degree_array(self) -> np.ndarray:
        """``int64[n]`` of node degrees in id order."""
        return np.diff(self.indptr)

    def edge_weights_array(self) -> np.ndarray:
        """``float64[m]`` of edge weights in :meth:`edge_list_ids` order.

        All-ones for an unweighted snapshot, so weighted consumers can be
        written once against this accessor.
        """
        if self.weights is not None:
            return self.weights
        if "unit_weights" not in self._derived:
            self._derived["unit_weights"] = np.ones(self.num_edges, dtype=np.float64)
        return self._derived["unit_weights"]

    def weighted_degree_array(self) -> np.ndarray:
        """``float64[n]`` of expected degrees (incident weight mass) in id order.

        Equals ``degree_array()`` cast to float for an unweighted snapshot.
        """
        if "weighted_degrees" not in self._derived:
            if self.weights is None:
                degrees = np.diff(self.indptr).astype(np.float64)
            else:
                edge_u, edge_v = self.edge_list_ids()
                degrees = np.bincount(
                    np.concatenate((edge_u, edge_v)),
                    weights=np.concatenate((self.weights, self.weights)),
                    minlength=self.num_nodes,
                )
            self._derived["weighted_degrees"] = degrees
        return self._derived["weighted_degrees"]

    def edge_weight_map(self) -> dict:
        """``min_id * n + max_id`` edge key -> weight (memoised on the snapshot).

        Built once and shared across every tracker bound to this snapshot;
        callers must treat it as read-only.
        """
        if "weight_map" not in self._derived:
            edge_u, edge_v = self.edge_list_ids()
            keys = np.minimum(edge_u, edge_v) * self.num_nodes + np.maximum(edge_u, edge_v)
            self._derived["weight_map"] = dict(
                zip(keys.tolist(), self.edge_weights_array().tolist())
            )
        return self._derived["weight_map"]

    def edge_weights_for(self, edge_u: np.ndarray, edge_v: np.ndarray) -> np.ndarray:
        """``float64`` weights of the given edges (each must exist here).

        Looks edges up by their ``min_id * n + max_id`` key against the
        snapshot's own edge set; all-ones when unweighted.  Order of the
        inputs is preserved in the output.
        """
        count = int(np.asarray(edge_u).shape[0])
        if self.weights is None:
            return np.ones(count, dtype=np.float64)
        if "sorted_keys" not in self._derived:
            own_u, own_v = self.edge_list_ids()
            keys = np.minimum(own_u, own_v) * self.num_nodes + np.maximum(own_u, own_v)
            order = np.argsort(keys, kind="stable")
            self._derived["sorted_keys"] = (keys[order], self.weights[order])
        sorted_keys, sorted_weights = self._derived["sorted_keys"]
        query = np.minimum(edge_u, edge_v) * self.num_nodes + np.maximum(edge_u, edge_v)
        positions = np.searchsorted(sorted_keys, query)
        if positions.shape[0] and (
            bool(np.any(positions >= sorted_keys.shape[0]))
            or bool(np.any(sorted_keys[np.minimum(positions, sorted_keys.shape[0] - 1)] != query))
        ):
            raise GraphError("edge_weights_for: edge not in snapshot")
        return sorted_weights[positions]

    def entry_heads(self) -> np.ndarray:
        """``int64[2m]`` — the head (owning row) of each CSR entry."""
        if "heads" not in self._derived:
            self._derived["heads"] = np.repeat(
                np.arange(self.num_nodes, dtype=np.int64), np.diff(self.indptr)
            )
        return self._derived["heads"]

    def undirected_entries(self) -> Tuple[np.ndarray, np.ndarray]:
        """Pair up the two oriented CSR entries of each undirected edge.

        Returns ``(forward, backward)`` position arrays of length ``m``:
        ``forward[k]`` is the entry ``(u, v)`` with ``u < v`` (in id
        space, i.e. canonical orientation) and ``backward[k]`` is its
        reverse entry ``(v, u)``.  Edge ``k`` enumerates the edge set in
        lexicographic ``(u, v)`` id order.  Used to fold half-edge score
        arrays into per-edge totals.
        """
        if "pairs" not in self._derived:
            heads = self.entry_heads()
            tails = self.indices
            forward = np.nonzero(heads < tails)[0]
            backward = np.nonzero(heads > tails)[0]
            # Forward entries already run in (u, v) order (CSR position
            # order); sort backward entries by (tail, head) to align.
            backward = backward[np.lexsort((heads[backward], tails[backward]))]
            self._derived["pairs"] = (forward, backward)
        return self._derived["pairs"]

    def edge_list_ids(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(u_ids, v_ids)`` of every edge in :meth:`Graph.edges` scan order.

        This is the orientation and *iteration order* of the originating
        graph's edge scan (earlier-inserted endpoint first, so always
        ``u_id < v_id``), which is what order-sensitive edge scans — greedy
        b-matching, CRR's shed-pool construction — must replicate.  Distinct
        from :meth:`canonical_edge_ids`, which enumerates edges in
        lexicographic id order.
        """
        if "edge_list_ids" not in self._derived:
            # Only reachable for snapshots built without from_graph's
            # precomputation (e.g. constructed directly in tests): fall back
            # to the lexicographic enumeration, which is a valid scan order
            # for a graph nobody iterates.
            self._derived["edge_list_ids"] = self.canonical_edge_ids()
        return self._derived["edge_list_ids"]

    def canonical_edge_ids(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(u_ids, v_ids)`` of every edge, canonical orientation, length ``m``.

        Aligned with :meth:`undirected_entries`' edge enumeration.
        """
        forward, _ = self.undirected_entries()
        return self.entry_heads()[forward], self.indices[forward]

    def entry_keys(self) -> np.ndarray:
        """``int64[2m]`` of ``head * n + tail`` per CSR entry (memoised).

        Heads are non-decreasing across entries and tails are sorted within
        each slice, so the array is globally sorted ascending — one
        ``np.searchsorted`` answers a batch of (head, tail) adjacency
        membership queries without touching per-row slices.  Used by the
        batched node2vec walk engine (second-order membership tests against
        the previous node's adjacency) and the clustering-coefficient
        intersection kernel.
        """
        if "entry_keys" not in self._derived:
            self._derived["entry_keys"] = self.entry_heads() * self.num_nodes + self.indices
        return self._derived["entry_keys"]

    def edge_key_set(self) -> frozenset:
        """Every edge as an integer key ``min_id * n + max_id`` (memoised).

        The id-space analogue of a ``frozenset``-of-edges membership
        structure; shared by every :class:`ArrayDegreeTracker` built on the
        same snapshot.
        """
        if "edge_keys" not in self._derived:
            edge_u, edge_v = self.edge_list_ids()
            keys = np.minimum(edge_u, edge_v) * self.num_nodes + np.maximum(edge_u, edge_v)
            self._derived["edge_keys"] = frozenset(keys.tolist())
        return self._derived["edge_keys"]

    def labels_array(self) -> np.ndarray:
        """``object[n]`` of node labels, for bulk id → label gathers (memoised)."""
        if "labels_array" not in self._derived:
            # dtype=object up front so tuple/str labels are never coerced
            # into numpy scalars or a 2-D array.
            arr = np.empty(len(self.labels), dtype=object)
            arr[:] = self.labels
            self._derived["labels_array"] = arr
        return self._derived["labels_array"]

    def view_of(self, node_ids: np.ndarray) -> "CSRView":
        """Interior-edge CSR view over a subset of this snapshot's node ids.

        ``node_ids`` must be strictly increasing global ids.  The view is a
        self-contained :class:`CSRAdjacency` over local ids ``0..k-1`` (the
        rank of each global id) containing exactly the *interior* edges —
        both endpoints inside ``node_ids``.  Because the global ids are
        taken in ascending order, local ids preserve the parent's relative
        id order, so canonical orientation (``u_id < v_id``) carries over
        and the view's :meth:`edge_list_ids` runs in the parent's scan
        order restricted to interior edges.  Passing every id yields arrays
        bit-identical to the parent snapshot's — the invariant that makes a
        1-shard sharded run reproduce the whole-graph array engine exactly.
        """
        global_ids = np.ascontiguousarray(np.asarray(node_ids, dtype=np.int64))
        n = self.num_nodes
        if global_ids.shape[0]:
            if global_ids[0] < 0 or global_ids[-1] >= n:
                raise GraphError("view node ids out of range")
            if global_ids.shape[0] > 1 and not bool(np.all(np.diff(global_ids) > 0)):
                raise GraphError("view node ids must be strictly increasing")
        k = int(global_ids.shape[0])
        local_of = np.full(n, -1, dtype=np.int64)
        local_of[global_ids] = np.arange(k, dtype=np.int64)
        edge_u, edge_v = self.edge_list_ids()
        interior = (local_of[edge_u] >= 0) & (local_of[edge_v] >= 0)
        u = np.ascontiguousarray(local_of[edge_u[interior]])
        v = np.ascontiguousarray(local_of[edge_v[interior]])
        weights = None if self.weights is None else self.weights[interior]
        parent_labels = self.labels
        labels = [parent_labels[i] for i in global_ids.tolist()]
        return CSRView.from_edge_ids(labels, u, v, weights, global_ids=global_ids)

    def subgraph_from_edge_ids(self, edge_u: np.ndarray, edge_v: np.ndarray) -> Graph:
        """Build the full-node-set subgraph keeping exactly the given edges.

        The array-engine counterpart of :meth:`Graph.edge_subgraph` (with
        ``keep_all_nodes=True``), built by :meth:`Graph.from_edge_ids`
        with each node's ``edge_u``-side neighbours first.  Node order is
        the snapshot's id order, which preserves the originating graph's
        relative insertion order (so canonical edge orientations are
        unchanged).  The caller must pass distinct edges of the
        snapshotted graph — the shedding engines sample their pools from
        :meth:`edge_list_ids`, which guarantees both.
        """
        weights = None if self.weights is None else self.edge_weights_for(edge_u, edge_v)
        return Graph.from_edge_ids(
            self.labels, edge_u, edge_v, weights, by_side=True, snapshot=False
        )


@dataclass(frozen=True)
class CSRView(CSRAdjacency):
    """A :class:`CSRAdjacency` over a node subset of a parent snapshot.

    Behaves exactly like a whole-graph snapshot in local id space — every
    array kernel (Brandes, greedy b-matching, the shedding engines, the
    degree trackers) runs on it unchanged.  ``global_ids`` maps local ids
    back to the parent's: ``global_ids[local_id]`` is the parent id, so
    per-shard kept-edge arrays lift to global ids with one gather.
    """

    #: ``int64[k]`` — strictly increasing parent ids; position = local id.
    global_ids: Optional[np.ndarray] = None

    def to_global(self, local_ids: np.ndarray) -> np.ndarray:
        """Map an array of local ids back to parent (global) ids."""
        return self.global_ids[local_ids]
