"""Probability-aware shedders: CRR and BM2 over expected-degree mass.

Both algorithms carry over to uncertain graphs by replacing every unit of
degree with an edge's existence probability: a node's expectation becomes
``p·E[deg_G(u)]``, Phase-1 capacities round expected mass, and every
Δ-change in the rewiring/repair loops moves endpoints by the edge's
weight.  The weighted id cores (:func:`repro.core.crr.crr_reduce_ids`,
:func:`repro.core.bm2.bm2_reduce_ids` with ``weighted=True``) implement
exactly that, and with all weights 1.0 they degenerate bit-identically to
the unweighted engines — so these classes are strict generalisations of
:class:`~repro.core.crr.CRRShedder` / :class:`~repro.core.bm2.BM2Shedder`,
not forks.

The weight-blind counterparts remain the natural baseline: run
``BM2Shedder`` on the same weighted graph and compare
:func:`repro.uncertain.metrics.expected_degree_distance` — the weighted
shedders are strictly better at equal ``p`` on probabilistic inputs (the
property suite pins this on seeded ER graphs).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.core.base import EdgeShedder
from repro.core.bm2 import _ROUNDING_RULES, bm2_reduce_ids
from repro.core.crr import crr_reduce_ids
from repro.graph.graph import Graph
from repro.rng import RandomState, ensure_rng

__all__ = ["WeightedBM2Shedder", "WeightedCRRShedder"]


class WeightedCRRShedder(EdgeShedder):
    """CRR whose rewiring minimises *expected-degree* discrepancy.

    Phase 1 is unchanged (betweenness is a topological signal); Phase 2
    accepts a swap iff it lowers ``Σ|E[deg_G'(v)] − p·E[deg_G(v)]|``.
    Accepts unweighted graphs too, where it reproduces
    :class:`~repro.core.crr.CRRShedder` bit for bit.

    Args:
        steps: explicit rewiring iterations; ``None`` uses ``[steps_factor·P]``.
        steps_factor: the ``x`` in ``steps = [x·P]`` (paper: 10).
        num_betweenness_sources: sampled-estimator mode for Phase 1.
        importance: ``"betweenness"`` (default) or ``"random"``.
        seed: randomness for ranking ties and swap sampling.
    """

    name = "W-CRR"

    def __init__(
        self,
        steps: Optional[int] = None,
        steps_factor: float = 10.0,
        num_betweenness_sources: Optional[int] = None,
        importance: str = "betweenness",
        seed: RandomState = None,
    ) -> None:
        if steps is not None and steps < 0:
            raise ValueError(f"steps must be non-negative, got {steps}")
        if steps_factor < 0:
            raise ValueError(f"steps_factor must be non-negative, got {steps_factor}")
        if importance not in ("betweenness", "random"):
            raise ValueError(
                f"importance must be 'betweenness' or 'random', got {importance!r}"
            )
        self.steps = steps
        self.steps_factor = steps_factor
        self.num_betweenness_sources = num_betweenness_sources
        self.importance = importance
        self._seed = seed

    def _reduce(self, graph: Graph, p: float) -> Tuple[Graph, Dict[str, Any]]:
        csr = graph.csr()
        stats: Dict[str, Any] = {
            "initial_ranking": self.importance,
            "weighted": True,
        }
        kept_u, kept_v = crr_reduce_ids(
            csr,
            p,
            ensure_rng(self._seed),
            stats,
            steps=self.steps,
            steps_factor=self.steps_factor,
            importance=self.importance,
            num_sources=self.num_betweenness_sources,
            weighted=True,
        )
        return csr.subgraph_from_edge_ids(kept_u, kept_v), stats


class WeightedBM2Shedder(EdgeShedder):
    """BM2 in probability mass: weighted b-matching + weighted repair heap.

    Capacities are ``p·E[deg_G(u)]`` rounded; Phase 1 admits an edge when
    both endpoints can absorb its weight; Phase 2 repairs with the
    weighted Algorithm 3 (:func:`repro.core.bm2.weighted_bipartite_repair_ids`).
    Accepts unweighted graphs too, where it reproduces
    :class:`~repro.core.bm2.BM2Shedder` bit for bit.

    Args:
        rounding: capacity rounding rule (see :class:`~repro.core.bm2.BM2Shedder`).
        accept_zero_gain: whether the repair keeps zero-gain edges.
        shuffle_edges: randomise Phase 1's scan order (ablation).
        sparsify: ``"off"`` or ``"edcs"`` candidate pruning before repair.
        sparsify_beta: EDCS degree bound ``β`` (``None`` = derived default).
        seed: randomness for ``shuffle_edges``.
    """

    name = "W-BM2"

    def __init__(
        self,
        rounding: str = "half_up",
        accept_zero_gain: bool = False,
        shuffle_edges: bool = False,
        sparsify: str = "off",
        sparsify_beta: "int | None" = None,
        seed: RandomState = None,
    ) -> None:
        if rounding not in _ROUNDING_RULES:
            raise ValueError(
                f"rounding must be one of {sorted(_ROUNDING_RULES)}, got {rounding!r}"
            )
        if sparsify not in ("off", "edcs"):
            raise ValueError(f"sparsify must be 'off' or 'edcs', got {sparsify!r}")
        if sparsify_beta is not None and sparsify_beta < 1:
            raise ValueError(f"sparsify_beta must be positive, got {sparsify_beta}")
        self.rounding = rounding
        self.accept_zero_gain = accept_zero_gain
        self.shuffle_edges = shuffle_edges
        self.sparsify = sparsify
        self.sparsify_beta = sparsify_beta
        self._seed = seed

    def _reduce(self, graph: Graph, p: float) -> Tuple[Graph, Dict[str, Any]]:
        csr = graph.csr()
        stats: Dict[str, Any] = {
            "capacity_rounding": self.rounding,
            "weighted": True,
        }
        kept_u, kept_v = bm2_reduce_ids(
            csr,
            p,
            stats,
            rounding=self.rounding,
            accept_zero_gain=self.accept_zero_gain,
            shuffle_edges=self.shuffle_edges,
            seed=self._seed,
            sparsify=self.sparsify,
            sparsify_beta=self.sparsify_beta,
            weighted=True,
        )
        return csr.subgraph_from_edge_ids(kept_u, kept_v), stats
