"""Post-hoc validation of reduction results.

A downstream user adopting a reduced graph wants mechanical assurance
before trusting it: the nodes are all there, no edge was invented, the
size is near the requested budget, and Δ is consistent with the method's
guarantee.  :func:`validate_reduction` runs those checks and returns a
structured report instead of asserting, so it can drive both tests and
user-facing tooling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.core.base import ReductionResult
from repro.core.bounds import (
    bm2_average_delta_bound,
    bm2_delta_envelope,
    crr_average_delta_bound,
)
from repro.core.discrepancy import compute_delta, round_half_up
from repro.graph.graph import Edge, Graph

__all__ = ["ValidationReport", "subgraph_mismatch", "validate_reduction"]

#: Methods whose result keeps exactly ``round_half_up(p·m)`` edges.
EXACT_COUNT_METHODS = ("CRR", "W-CRR", "ShardedCRR")


@dataclass
class ValidationReport:
    """Outcome of :func:`validate_reduction`."""

    ok: bool
    failures: List[str] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)

    def describe(self) -> str:
        lines = ["OK" if self.ok else "FAILED"]
        lines += [f"failure: {message}" for message in self.failures]
        lines += [f"warning: {message}" for message in self.warnings]
        return "\n".join(lines)


def validate_reduction(
    result: ReductionResult, budget_tolerance: float = 0.1
) -> ValidationReport:
    """Check the structural and quantitative contracts of a reduction.

    Hard failures (``ok = False``):

    * the reduced graph drops or invents nodes;
    * a *shedding* result contains an edge absent from the original
      (summary-based methods — detected by ``stats["summary"]`` — may
      legitimately reconstruct spurious edges; those downgrade to a
      warning);
    * the recorded ``delta`` disagrees with a recomputation;
    * a CRR result violates Theorem 1's bound, or a ``BM2`` result the
      envelope its greedy b-matching guarantees
      (:func:`~repro.core.bounds.bm2_delta_envelope`, for the rounding in
      ``stats["capacity_rounding"]``);
    * a CRR result (``CRR``, ``W-CRR`` or ``ShardedCRR``) does not keep
      exactly ``[p·m]`` edges, the count Algorithm 1 fixes;
    * a ``BM2`` result has a node with ``deg'(u) − p·deg(u) ≥ 1``
      (+1e-9), which BM2's capacities and repair rule out;
    * Δ exceeds ``stats["delta_bound"]`` (every sharded result's bound).

    Warnings (``ok`` unaffected):

    * achieved edge ratio deviates from ``p`` by more than
      ``budget_tolerance`` (legitimate for UDS and LocalDegree, whose
      size is not budget-controlled — hence not a failure);
    * spurious edges in a summary reconstruction;
    * a BM2 result inside its envelope but above Theorem 2's figure,
      which genuine runs exceed at high ``p``;
    * a ``BM2 (progressive)`` level above the envelope, which nested
      levels do not guarantee.
    """
    failures: List[str] = []
    warnings: List[str] = []
    original, reduced = result.original, result.reduced
    is_summary_method = "summary" in result.stats

    invented, first, missing, extra, orig_u, orig_v = subgraph_mismatch(original, reduced)
    if missing or extra:
        failures.append(
            f"node set mismatch: {missing} original nodes missing,"
            f" {extra} foreign nodes present"
        )
    if invented:
        message = (
            f"{invented} reduced edges are not in the original graph"
            f" (e.g. {first!r})"
        )
        if is_summary_method:
            warnings.append(f"{message} — spurious superedge expansion")
        else:
            failures.append(message)

    recomputed = compute_delta(original, reduced, result.p)
    if abs(recomputed - result.delta) > 1e-6:
        failures.append(
            f"recorded delta {result.delta:.6f} disagrees with recomputed"
            f" {recomputed:.6f}"
        )

    if abs(result.achieved_ratio - result.p) > budget_tolerance:
        warnings.append(
            f"achieved ratio {result.achieved_ratio:.3f} deviates from"
            f" p={result.p:g} by more than {budget_tolerance:g}"
        )

    if not failures:  # bounds only make sense for a structurally-valid result
        average = result.average_delta
        if result.method.startswith("CRR"):
            bound = crr_average_delta_bound(
                result.p, original.num_edges, original.num_nodes
            )
            # the fixed integer edge count forces up to 1/|V| rounding slack
            if average > bound + 1.0 / original.num_nodes:
                failures.append(
                    f"CRR average delta {average:.4f} violates Theorem 1 bound {bound:.4f}"
                )
        elif result.method.startswith("BM2"):
            envelope = bm2_delta_envelope(
                result.p,
                original.num_edges,
                original.num_nodes,
                result.stats.get("capacity_rounding"),
            )
            bound = bm2_average_delta_bound(
                result.p, original.num_edges, original.num_nodes
            )
            # Nested progressive levels are no one greedy b-matching of the
            # original, and a sweep found levels past the envelope.
            if average > envelope + 1e-9:
                (failures if result.method == "BM2" else warnings).append(
                    f"{result.method} average delta {average:.4f} is above its"
                    f" b-matching envelope {envelope:.4f}"
                )
            elif average > bound + 1e-9:
                warnings.append(
                    f"{result.method} average delta {average:.4f} is above Theorem 2's"
                    f" figure {bound:.4f}, inside its b-matching envelope {envelope:.4f}"
                )
        if result.method == "BM2":
            # Phase 1 keeps deg' ≤ b(u) < p·deg + 1 under every rounding
            # rule; Phase 2 adds edges at a group-A node only while its dis
            # is ≤ −½, and at most one at a group-B node.  So dis(u) < 1.
            csr = original.csr()
            degrees = np.bincount(np.concatenate((orig_u, orig_v)), minlength=csr.num_nodes)
            excess = degrees - result.p * csr.degree_array()
            over = np.nonzero(excess >= 1.0 + 1e-9)[0]
            if over.shape[0]:
                k = int(over[0])
                failures.append(
                    f"BM2 node {csr.labels[k]!r} has deg' − p·deg = {excess[k]:.6f},"
                    " not below its capacity/repair bound 1"
                )

    bound = result.stats.get("delta_bound")
    if bound is not None and result.delta > bound + 1e-9:
        failures.append(f"delta {result.delta:.6f} exceeds its recorded bound {bound:.6f}")

    if result.method in EXACT_COUNT_METHODS:
        target = round_half_up(result.p * original.num_edges)
        if reduced.num_edges != target:
            failures.append(
                f"{result.method} kept {reduced.num_edges} edges, not"
                f" [p·m] = {target}"
            )

    return ValidationReport(ok=not failures, failures=failures, warnings=warnings)


def subgraph_mismatch(
    original: Graph, reduced: Graph
) -> Tuple[int, Optional[Edge], int, int, np.ndarray, np.ndarray]:
    """``(invented, first, missing, extra, orig_u, orig_v)``: how many edges of
    ``reduced`` ``original`` lacks and the first (or ``None``), how many nodes
    only ``original`` / only ``reduced`` holds, and ``reduced``'s edges in
    ``original``'s snapshot ids (``-1``: a node ``original`` lacks)."""
    csr = original.csr()
    labels, reduced_u, reduced_v, _ = reduced.edge_arrays()
    index_of = csr.index_of
    to_orig = np.fromiter((index_of.get(x, -1) for x in labels), np.int64, len(labels))
    extra = int(np.count_nonzero(to_orig < 0))
    missing = csr.num_nodes - (len(labels) - extra)
    orig_u, orig_v = to_orig[reduced_u], to_orig[reduced_v]
    invented = np.nonzero(csr.edge_ids_of(orig_u, orig_v) < 0)[0]
    first = None
    if invented.shape[0]:
        k = int(invented[0])
        first = (labels[reduced_u[k]], labels[reduced_v[k]])
    return int(invented.shape[0]), first, missing, extra, orig_u, orig_v
