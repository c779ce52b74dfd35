"""Common interface for every graph-reduction method in this package.

CRR, BM2, the random-shedding ablations and the UDS baseline all implement
:class:`EdgeShedder`: given an original graph and an edge preservation ratio
``p ∈ (0, 1)``, produce a :class:`ReductionResult` wrapping the reduced graph
plus the bookkeeping the benchmarks report (Δ, timings, method-specific
stats).  The benchmark harness is written against this interface only.
"""

from __future__ import annotations

import math
import numbers
import time
from abc import ABC, abstractmethod
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List

from repro.errors import InvalidRatioError, ReductionError
from repro.graph.graph import Edge, Graph

__all__ = ["EdgeShedder", "ReductionResult", "timed_phase", "validate_ratio"]


@contextmanager
def timed_phase(stats: Dict[str, Any], key: str) -> Iterator[None]:
    """Record the wall-clock duration of a ``with`` block into ``stats[key]``.

    Shedders use this to break ``elapsed_seconds`` down into per-phase
    timings (``ranking_seconds``/``rewiring_seconds`` for CRR,
    ``phase1_seconds``/``phase2_seconds`` for BM2) so the Table 3/4
    reduction-time benchmarks report both algorithms symmetrically.
    """
    start = time.perf_counter()
    try:
        yield
    finally:
        stats[key] = time.perf_counter() - start


def is_int(value: Any) -> bool:
    """An integer (numpy integers included), not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_finite_number(value: Any) -> bool:
    """A finite real number (numpy scalars included), not a bool."""
    return (
        isinstance(value, numbers.Real)
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def validate_ratio(p: float) -> float:
    """Validate ``p ∈ (0, 1)`` and return it as a float."""
    p = float(p)
    if not 0.0 < p < 1.0:
        raise InvalidRatioError(p)
    return p


@dataclass
class ReductionResult:
    """Outcome of one reduction run.

    Attributes:
        method: the shedder's name (``"CRR"``, ``"BM2"``, ``"UDS"``, ...).
        original: the input graph (not copied; treat as read-only).
        reduced: the reduced graph; keeps the full node set ``V' = V``.
        p: the edge preservation ratio that was requested.
        delta: total degree discrepancy ``Δ`` of ``reduced`` (Equation 4).
        elapsed_seconds: wall-clock reduction time.
        stats: method-specific diagnostics (accepted swaps, phase timings, ...).
    """

    method: str
    original: Graph
    reduced: Graph
    p: float
    delta: float
    elapsed_seconds: float
    stats: Dict[str, Any] = field(default_factory=dict)

    @property
    def edges(self) -> List[Edge]:
        return list(self.reduced.edges())

    @property
    def average_delta(self) -> float:
        """``Δ / |V|`` — the per-node discrepancy plotted in Figures 4-5."""
        n = self.original.num_nodes
        return self.delta / n if n else 0.0

    @property
    def achieved_ratio(self) -> float:
        """Actual ``|E'| / |E|`` of the reduction (0.0 for an empty input)."""
        m = self.original.num_edges
        return self.reduced.num_edges / m if m else 0.0

    def summary(self) -> str:
        return (
            f"{self.method}: |E|={self.original.num_edges} -> |E'|={self.reduced.num_edges} "
            f"(p={self.p:g}, achieved={self.achieved_ratio:.3f}), "
            f"delta={self.delta:.3f}, avg={self.average_delta:.4f}, "
            f"time={self.elapsed_seconds:.3f}s"
        )


class EdgeShedder(ABC):
    """A parameterised graph-reduction method.

    Subclasses implement :meth:`_reduce` returning the reduced graph and a
    stats dict; the public :meth:`reduce` wraps it with validation, timing
    and Δ scoring so every method is measured identically.
    """

    #: Human-readable method name used in benchmark tables.
    name: str = "shedder"

    def reduce(self, graph: Graph, p: float) -> ReductionResult:
        """Reduce ``graph`` to roughly ``p·|E|`` edges."""
        p = validate_ratio(p)
        if graph.num_edges == 0:
            raise ReductionError("cannot reduce a graph with no edges")
        start = time.perf_counter()
        reduced, stats = self._reduce(graph, p)
        elapsed = time.perf_counter() - start
        # Score Δ against the original; import here to avoid a module cycle.
        from repro.core.discrepancy import compute_delta

        if graph.is_weighted:
            # Weighted originals additionally get the expected-degree
            # distance Δ_E, so weight-aware and weight-blind methods can be
            # compared on the uncertain-graph objective from the same stats.
            from repro.uncertain.metrics import expected_degree_distance

            stats["expected_degree_distance"] = expected_degree_distance(
                graph, reduced, p
            )
        return ReductionResult(
            method=self.name,
            original=graph,
            reduced=reduced,
            p=p,
            delta=compute_delta(graph, reduced, p),
            elapsed_seconds=elapsed,
            stats=stats,
        )

    @abstractmethod
    def _reduce(self, graph: Graph, p: float) -> tuple[Graph, Dict[str, Any]]:
        """Method-specific reduction; returns (reduced graph, stats)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
