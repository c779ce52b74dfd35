"""The paper's primary contribution: degree-preserving edge shedding.

Exports the two proposed algorithms (:class:`CRRShedder`,
:class:`BM2Shedder`), the discrepancy bookkeeping they optimise, the
theoretical bounds from Theorems 1-2, and structure-blind ablation shedders.
"""

from repro.core.base import EdgeShedder, ReductionResult, timed_phase, validate_ratio
from repro.core.bm2 import BM2Shedder, bipartite_repair_ids
from repro.core.bounds import (
    bm2_average_delta_bound,
    bm2_bound_for_graph,
    bm2_delta_envelope,
    crr_average_delta_bound,
    crr_bound_for_graph,
)
from repro.core.core_shed import CoreShedder
from repro.core.crr import CRRShedder, IndexedEdgePool
from repro.core.discrepancy import (
    ArrayDegreeTracker,
    add_change_from_dis,
    compute_delta,
    remove_change_from_dis,
    round_half_up,
    swap_change_scalar_from_dis,
)
from repro.core.local_shed import JaccardShedder, LocalDegreeShedder
from repro.core.progressive import progressive_reduce, rescore_result
from repro.core.random_shed import DegreeProportionalShedder, RandomShedder
from repro.core.sparsify import edcs_beta, prune_boundary_ids, prune_candidates_ids
from repro.core.validation import ValidationReport, validate_reduction

__all__ = [
    "EdgeShedder",
    "ReductionResult",
    "timed_phase",
    "validate_ratio",
    "CRRShedder",
    "IndexedEdgePool",
    "BM2Shedder",
    "bipartite_repair_ids",
    "edcs_beta",
    "prune_candidates_ids",
    "prune_boundary_ids",
    "ArrayDegreeTracker",
    "compute_delta",
    "round_half_up",
    "add_change_from_dis",
    "remove_change_from_dis",
    "swap_change_scalar_from_dis",
    "crr_average_delta_bound",
    "bm2_average_delta_bound",
    "bm2_delta_envelope",
    "crr_bound_for_graph",
    "bm2_bound_for_graph",
    "RandomShedder",
    "DegreeProportionalShedder",
    "CoreShedder",
    "LocalDegreeShedder",
    "JaccardShedder",
    "progressive_reduce",
    "rescore_result",
    "validate_reduction",
    "ValidationReport",
]
