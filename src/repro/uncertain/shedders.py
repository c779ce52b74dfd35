"""Probability-aware shedders: CRR and BM2 over expected-degree mass.

Both algorithms carry over to uncertain graphs by replacing every unit of
degree with an edge's existence probability: a node's expectation becomes
``p·E[deg_G(u)]``, Phase-1 capacities round expected mass, and every
Δ-change in the rewiring/repair loops moves endpoints by the edge's
weight.  The id cores (:func:`repro.core.crr.crr_reduce_ids`,
:func:`repro.core.bm2.bm2_reduce_ids`) take that as ``weighted=True``, and
with all weights 1.0 they degenerate bit-identically to the unweighted
runs.  So the two classes here are subclasses of
:class:`~repro.core.crr.CRRShedder` / :class:`~repro.core.bm2.BM2Shedder`
that only set ``name`` and the class-level ``weighted`` flag: same
keyword parameters (in the same positional order), same stats plus
``"weighted": True``.

The weight-blind counterparts remain the natural baseline: run
``BM2Shedder`` on the same weighted graph and compare
:func:`repro.uncertain.metrics.expected_degree_distance` — the weighted
shedders are strictly better at equal ``p`` on probabilistic inputs (the
property suite pins this on seeded ER graphs).
"""

from __future__ import annotations

from repro.core.bm2 import BM2Shedder
from repro.core.crr import CRRShedder

__all__ = ["WeightedBM2Shedder", "WeightedCRRShedder"]


class WeightedCRRShedder(CRRShedder):
    """CRR whose rewiring minimises *expected-degree* discrepancy.

    Phase 1 is unchanged (betweenness is a topological signal); Phase 2
    accepts a swap iff it lowers ``Σ|E[deg_G'(v)] − p·E[deg_G(v)]|``.
    Accepts unweighted graphs too, where it reproduces
    :class:`~repro.core.crr.CRRShedder` bit for bit.  Takes
    :class:`~repro.core.crr.CRRShedder`'s parameters, a callable
    ``importance`` included.  Edge weights must lie in ``[0, 1]``.
    """

    name = "W-CRR"
    weighted = True


class WeightedBM2Shedder(BM2Shedder):
    """BM2 in probability mass: weighted b-matching + weighted repair heap.

    Capacities are ``p·E[deg_G(u)]`` rounded; Phase 1 admits an edge when
    both endpoints can absorb its weight; Phase 2 repairs with the
    weighted Algorithm 3 (:func:`repro.core.bm2.weighted_bipartite_repair_ids`).
    Accepts unweighted graphs too, where it reproduces
    :class:`~repro.core.bm2.BM2Shedder` bit for bit.  Takes
    :class:`~repro.core.bm2.BM2Shedder`'s parameters in its positional
    order.  Edge weights must lie in ``[0, 1]``.
    """

    name = "W-BM2"
    weighted = True
