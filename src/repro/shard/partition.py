"""Node partitioning for sharded shedding.

The sharded runner splits a graph into ``num_shards`` node groups, sheds
each group's *interior* edges (both endpoints inside the group) with the
usual array kernels over a :class:`repro.graph.csr.CSRView`, and
reconciles the *boundary* edges (endpoints in different groups) in a
final merge pass.  Everything here is pure planning: no edges are shed.

Two partitioning methods:

* ``"community"`` (default) — label propagation
  (:func:`repro.graph.communities.label_propagation`) finds communities,
  which are then packed into ``num_shards`` bins balanced by total degree
  (largest community first into the lightest bin).  Community-aligned
  shards keep the boundary small on modular graphs — the clique-partition
  idea of shrinking the working set per unit of work.  Label propagation
  stops at the first sweep after which every node's label is a most
  frequent label of its neighbours, or at ``max_iterations``; the plan
  reports how many sweeps ran and whether the rule fired.  Degenerate
  outcomes (fewer communities than shards) fall back to ``"contiguous"``.
* ``"contiguous"`` — deterministic seeded fallback: nodes in id order,
  split at cumulative-degree quantiles.  No randomness beyond the id
  order itself; always available.

Shard node ids are strictly increasing (the :meth:`CSRAdjacency.view_of`
contract), and ``num_shards=1`` always produces the identity plan whose
single view is bit-identical to the whole-graph snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import GraphError
from repro.graph.communities import _label_propagation_ids
from repro.graph.csr import CSRAdjacency, CSRView
from repro.graph.graph import Graph
from repro.rng import RandomState

__all__ = ["PARTITION_METHODS", "Shard", "ShardPlan", "partition_graph"]

#: Supported partitioning methods.
PARTITION_METHODS = ("community", "contiguous")


@dataclass(frozen=True)
class Shard:
    """One node group of a :class:`ShardPlan`."""

    #: Position of this shard in the plan.
    index: int
    #: ``int64[k]`` — strictly increasing global (parent CSR) node ids.
    node_ids: np.ndarray
    #: Interior-edge CSR view over ``node_ids``.
    view: CSRView

    @property
    def num_nodes(self) -> int:
        return int(self.node_ids.shape[0])

    @property
    def interior_edges(self) -> int:
        return self.view.num_edges


@dataclass(frozen=True)
class ShardPlan:
    """An edge-disjoint decomposition: per-shard interior views + boundary.

    Every edge of the snapshot appears exactly once — either in exactly
    one shard's view (interior) or in the boundary arrays (endpoints in
    different shards), so ``Σ interior + |boundary| = m``.
    """

    #: The partitioned snapshot.
    csr: CSRAdjacency
    #: ``int64[n]`` — shard index of every global node id.
    shard_of: np.ndarray
    shards: List[Shard]
    #: Boundary edges (global ids, graph scan order, canonical ``u < v``).
    boundary_u: np.ndarray
    boundary_v: np.ndarray
    #: Method that actually produced the plan (community requests that
    #: degenerate fall back to, and report, ``"contiguous"``).
    method: str
    #: Label-propagation sweeps run (0 when none ran) and whether its
    #: stopping rule fired before the cap (``None`` when none ran).
    sweeps: int
    converged: Optional[bool]

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def num_boundary(self) -> int:
        return int(self.boundary_u.shape[0])

    def describe(self) -> Dict[str, Any]:
        """JSON-friendly summary (used by CLI/service stats)."""
        return {
            "method": self.method,
            "num_shards": self.num_shards,
            "sweeps": self.sweeps,
            "converged": self.converged,
            "boundary_edges": self.num_boundary,
            "shard_nodes": [shard.num_nodes for shard in self.shards],
            "shard_interior_edges": [shard.interior_edges for shard in self.shards],
        }


def _contiguous_assignment(degrees: np.ndarray, num_shards: int) -> np.ndarray:
    """Split id order into ``num_shards`` runs of ~equal cumulative degree.

    Weights are ``degree + 1`` so isolated-node stretches still advance
    the quantiles and every shard gets at least one node whenever
    ``n >= num_shards``.
    """
    n = degrees.shape[0]
    weights = degrees + 1
    cumulative = np.cumsum(weights)
    total = int(cumulative[-1])
    targets = total * np.arange(1, num_shards, dtype=np.float64) / num_shards
    cuts = np.searchsorted(cumulative, targets, side="left") + 1
    # Degenerate weight distributions can collapse quantiles; force the
    # cut positions to be strictly increasing inside (0, n) so no shard
    # comes out empty.
    cuts = np.maximum(cuts, np.arange(1, num_shards))
    cuts = np.minimum(cuts, n - num_shards + np.arange(1, num_shards))
    shard_of = np.zeros(n, dtype=np.int64)
    shard_of[cuts] = 1
    return np.cumsum(shard_of)


def _community_assignment(
    csr: CSRAdjacency, community_of: np.ndarray, num_shards: int
) -> Optional[np.ndarray]:
    """Pack communities (dense ids by CSR id) into degree-balanced bins.

    Returns ``None`` when the outcome is degenerate (fewer communities
    than shards) and the caller should fall back to contiguous ranges.
    """
    num_communities = int(community_of.max()) + 1 if community_of.shape[0] else 0
    if num_communities < num_shards:
        return None
    degrees = csr.degree_array()
    community_degree = np.bincount(
        community_of, weights=degrees + 1, minlength=num_communities
    )
    # Largest community first into the currently-lightest bin; ties on
    # weight break toward the lower community id / bin index, so the
    # packing is deterministic given the membership.
    order = np.argsort(-community_degree, kind="stable")
    bin_of_community = np.empty(num_communities, dtype=np.int64)
    loads = [0.0] * num_shards
    for community in order.tolist():
        lightest = min(range(num_shards), key=loads.__getitem__)
        bin_of_community[community] = lightest
        loads[lightest] += float(community_degree[community])
    return bin_of_community[community_of]


def partition_graph(
    graph: Graph,
    num_shards: int,
    method: str = "community",
    seed: RandomState = None,
    max_iterations: int = 100,
) -> ShardPlan:
    """Plan an edge-disjoint ``num_shards``-way decomposition of ``graph``.

    ``num_shards`` is clamped to the node count.  See the module docstring
    for the two methods; ``method="community"`` falls back to the
    contiguous split when label propagation yields fewer communities than
    shards (the plan's ``method`` field reports what actually ran, and its
    ``sweeps``/``converged`` the label propagation behind it).
    """
    if method not in PARTITION_METHODS:
        raise GraphError(
            f"partition method must be one of {PARTITION_METHODS}, got {method!r}"
        )
    if num_shards < 1:
        raise GraphError(f"num_shards must be positive, got {num_shards}")
    csr = graph.csr()
    n = csr.num_nodes
    num_shards = min(num_shards, n) if n else 1

    used = method
    sweeps, converged = 0, None
    if num_shards == 1:
        shard_of = np.zeros(n, dtype=np.int64)
    elif method == "community":
        # Label propagation numbers nodes in graph.nodes() order, which
        # is the CSR id order.
        community_of, sweeps, converged = _label_propagation_ids(
            graph, max_iterations, seed
        )
        assignment = _community_assignment(csr, community_of, num_shards)
        if assignment is None:
            used = "contiguous"
            shard_of = _contiguous_assignment(csr.degree_array(), num_shards)
        else:
            shard_of = assignment
    else:
        shard_of = _contiguous_assignment(csr.degree_array(), num_shards)

    shards = []
    for index in range(num_shards):
        node_ids = np.nonzero(shard_of == index)[0]
        shards.append(Shard(index=index, node_ids=node_ids, view=csr.view_of(node_ids)))

    edge_u, edge_v = csr.edge_list_ids()
    boundary = shard_of[edge_u] != shard_of[edge_v]
    return ShardPlan(
        csr=csr,
        shard_of=shard_of,
        shards=shards,
        boundary_u=np.ascontiguousarray(edge_u[boundary]),
        boundary_v=np.ascontiguousarray(edge_v[boundary]),
        method=used,
        sweeps=sweeps,
        converged=converged,
    )
