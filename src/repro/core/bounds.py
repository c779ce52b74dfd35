"""Theoretical error bounds (Theorems 1 and 2).

Both theorems bound the *average* absolute degree discrepancy
``Δ / |V|`` of the reduced graph:

* **Theorem 1 (CRR)**: the average is in ``(0, 4p(1−p)·|E|/|V|)``.
* **Theorem 2 (BM2)**: the average is in ``(0, 1/2 + (1−p)·|E|/|V|)``.

Figure 5(a)-(b) plots the measured average Δ against these curves; the
bench for that figure, and a hypothesis property test, assert that every
run of the algorithms respects its bound.

Genuine BM2 runs can exceed Theorem 2's figure at high ``p``: a default
run on ``erdos_renyi(25, 0.9, seed=1)`` at p = 0.85 reads 2.244 against
2.132.  :func:`bm2_delta_envelope` derives the bound BM2's construction
does guarantee, and the validator holds BM2 to that.
"""

from __future__ import annotations

from typing import Optional

from repro.core.base import validate_ratio
from repro.graph.graph import Graph

__all__ = [
    "crr_average_delta_bound",
    "bm2_average_delta_bound",
    "bm2_delta_envelope",
    "crr_bound_for_graph",
    "bm2_bound_for_graph",
]

#: Per capacity rounding rule, ``(ρ, r_lo)``: the largest ``|b − p·deg|``
#: and the largest ``p·deg − b`` the rule leaves (suprema, not attained).
ROUNDING_SLACK = {
    "half_up": (0.5, 0.5),
    "half_even": (0.5, 0.5),
    "floor": (1.0, 1.0),
    "ceil": (1.0, 0.0),
}


def crr_average_delta_bound(p: float, num_edges: int, num_nodes: int) -> float:
    """Theorem 1 upper bound: ``4·p·(1−p)·|E| / |V|``."""
    p = validate_ratio(p)
    if num_nodes <= 0:
        raise ValueError(f"num_nodes must be positive, got {num_nodes}")
    if num_edges < 0:
        raise ValueError(f"num_edges must be non-negative, got {num_edges}")
    return 4.0 * p * (1.0 - p) * num_edges / num_nodes


def bm2_average_delta_bound(p: float, num_edges: int, num_nodes: int) -> float:
    """Theorem 2 upper bound: ``1/2 + (1−p)·|E| / |V|``."""
    p = validate_ratio(p)
    if num_nodes <= 0:
        raise ValueError(f"num_nodes must be positive, got {num_nodes}")
    if num_edges < 0:
        raise ValueError(f"num_edges must be non-negative, got {num_edges}")
    return 0.5 + (1.0 - p) * num_edges / num_nodes


def bm2_delta_envelope(
    p: float, num_edges: int, num_nodes: int, rounding: Optional[str] = None
) -> float:
    """BM2's guaranteed average Δ: ``ρ + p·r_lo + 2p(1−p)·|E|/|V|``.

    ``(ρ, r_lo)`` is ``rounding``'s entry in :data:`ROUNDING_SLACK`; an
    unknown rule (``None``) takes the widest, ``(1, 1)``.

    Phase 1 keeps a greedy maximal b-matching ``M`` under capacities
    ``b(u)``: every edge outside ``M`` has a saturated endpoint
    (``deg'(s) = b(s)``).  A saturated node has ``|dis(s)| ≤ ρ`` and,
    since ``b(s) ≥ p·deg(s) − r_lo``, at most ``(1−p)·deg(s) + r_lo``
    unkept edges.  An unsaturated node ``u`` has ``deg'(u) < b(u)``, so
    ``dis(u) < 0`` under every rule and ``|dis(u)| = p·r(u) −
    (1−p)·deg'(u) ≤ p·r(u)`` for its ``r(u)`` unkept edges.  Each of those
    ends at a saturated node (maximality), so summing over the unsaturated
    nodes counts at most every saturated node's unkept edges::

        Δ ≤ ρ·|S| + p·Σ_S ((1−p)·deg(s) + r_lo)
          ≤ (ρ + p·r_lo)·|V| + 2p(1−p)·|E|.

    Phase 2 accepts only changes that do not raise Δ, so the bound holds
    for the final result.  It is above Theorem 2's figure for ``p > ½``,
    and below it for ``p < ½`` on graphs dense enough.
    """
    p = validate_ratio(p)
    if num_nodes <= 0:
        raise ValueError(f"num_nodes must be positive, got {num_nodes}")
    if num_edges < 0:
        raise ValueError(f"num_edges must be non-negative, got {num_edges}")
    rho, r_lo = ROUNDING_SLACK.get(rounding, (1.0, 1.0))
    return rho + p * r_lo + 2.0 * p * (1.0 - p) * num_edges / num_nodes


def crr_bound_for_graph(graph: Graph, p: float) -> float:
    """Theorem 1 bound evaluated on a concrete graph."""
    return crr_average_delta_bound(p, graph.num_edges, graph.num_nodes)


def bm2_bound_for_graph(graph: Graph, p: float) -> float:
    """Theorem 2 bound evaluated on a concrete graph."""
    return bm2_average_delta_bound(p, graph.num_edges, graph.num_nodes)
