"""Progressive (nested) reduction — the controllability extension.

The paper highlights size controllability as a key feature and points at
users' "various needs in different scenarios".  A natural extension is a
*nested* family of reductions: one pass produces graphs at several ratios
``p₁ > p₂ > ... > pₖ`` where each smaller graph is a subgraph of the
previous one, so an analyst can drill down without re-shedding from
scratch and results at different budgets are mutually consistent.

:func:`progressive_reduce` builds the family by re-applying a shedder to
the previous level with the *relative* ratio ``pᵢ / pᵢ₋₁``; each level's
``Δ`` is still scored against the **original** graph at the absolute
ratio, so the results are directly comparable with one-shot reductions.

:func:`rescore_result` packages an already-computed reduced graph as a
:class:`ReductionResult` scored against an arbitrary original; the
serving layer (:mod:`repro.service`) uses it too, to re-label degraded
runs.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.core.base import EdgeShedder, ReductionResult
from repro.core.discrepancy import compute_delta
from repro.core.validation import subgraph_mismatch
from repro.errors import ReductionError
from repro.graph.graph import Graph

__all__ = ["progressive_reduce", "rescore_result"]


def rescore_result(
    method: str,
    original: Graph,
    reduced: Graph,
    p: float,
    elapsed_seconds: float,
    stats: Optional[Dict[str, Any]] = None,
    delta: Optional[float] = None,
) -> ReductionResult:
    """Package ``reduced`` as a :class:`ReductionResult` against ``original``.

    ``delta`` may be passed when the caller already holds the exact value
    (avoiding a recompute); otherwise it is scored fresh with
    :func:`compute_delta` at the absolute ratio ``p``.
    """
    return ReductionResult(
        method=method,
        original=original,
        reduced=reduced,
        p=p,
        delta=compute_delta(original, reduced, p) if delta is None else delta,
        elapsed_seconds=elapsed_seconds,
        stats=dict(stats) if stats else {},
    )


def progressive_reduce(
    shedder: EdgeShedder, graph: Graph, ratios: Sequence[float]
) -> List[ReductionResult]:
    """Produce nested reductions of ``graph`` at the given absolute ratios.

    ``ratios`` must be strictly decreasing and within ``(0, 1)``.  Returns
    one :class:`ReductionResult` per ratio; each level's ``reduced`` graph
    is a subgraph of the previous level's, and each result's ``delta`` /
    ``p`` refer to the original graph.  Once a level keeps no edge, every
    later level is a copy of that edgeless graph (``V' = V``), scored the
    same way with ``elapsed_seconds`` 0: there is nothing left to shed.
    A level with an edge outside its input (a shedder whose output is not
    a subgraph) raises :class:`ReductionError`.
    """
    ratios = [float(p) for p in ratios]
    if not ratios:
        raise ReductionError("ratios must be non-empty")
    if any(not 0.0 < p < 1.0 for p in ratios):
        raise ReductionError(f"every ratio must be in (0, 1), got {ratios}")
    if any(b >= a for a, b in zip(ratios, ratios[1:])):
        raise ReductionError(f"ratios must be strictly decreasing, got {ratios}")

    results: List[ReductionResult] = []
    current = graph
    previous_ratio = 1.0
    for p in ratios:
        relative = p / previous_ratio
        level = {"relative_p": relative, "level": len(results)}
        if results and current.num_edges == 0:
            reduced, elapsed, stats = current.copy(), 0.0, level
        else:
            step = shedder.reduce(current, relative)
            reduced, elapsed = step.reduced, step.elapsed_seconds
            stats = {**step.stats, **level}
            outside, first = subgraph_mismatch(current, reduced)[:2]
            if outside:
                raise ReductionError(
                    f"{shedder.name} level {len(results)} (p={p:g}) keeps {outside} edges "
                    f"outside its input (e.g. {first!r}); levels must nest"
                )
        # Re-score against the original at the absolute ratio.
        absolute = rescore_result(
            method=f"{shedder.name} (progressive)",
            original=graph,
            reduced=reduced,
            p=p,
            elapsed_seconds=elapsed,
            stats=stats,
        )
        results.append(absolute)
        current = reduced
        previous_ratio = p
    return results
