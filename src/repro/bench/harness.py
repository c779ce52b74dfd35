"""Experiment plumbing shared by every table/figure reproduction.

Each experiment module in :mod:`repro.bench.experiments` exposes
``run(quick=True, seed=0) -> BenchReport``.  ``quick`` selects the fast
profile (smaller surrogates, coarser parameter grids) used by the pytest
benches; ``quick=False`` runs the full profile behind EXPERIMENTS.md.

:class:`ReductionCache` deduplicates reductions within a process: several
experiments reuse the same (dataset, method, p) reduction, and UDS runs
are expensive enough that recomputing them per table would dominate.  It
is a thin adapter over the service-layer
:class:`~repro.service.store.ArtifactStore` — the repo has exactly one
cache implementation, and benches can opt into its disk persistence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.baselines.uds import UDSSummarizer
from repro.core.base import EdgeShedder, ReductionResult
from repro.core.bm2 import BM2Shedder
from repro.core.crr import CRRShedder
from repro.datasets.registry import load_dataset
from repro.errors import BenchError
from repro.graph.graph import Graph
from repro.bench.tables import render_table
from repro.service.store import ArtifactStore

__all__ = [
    "BenchReport",
    "ReductionCache",
    "default_shedders",
    "quick_scales",
    "full_scales",
]

#: Dataset scales for the two profiles.  Quick keeps every graph in the
#: few-hundred-node range so the whole bench suite finishes in minutes;
#: full uses the registry defaults (thousands of nodes).
_QUICK_SCALES: Dict[str, float] = {
    "ca-grqc": 0.06,
    "ca-hepph": 0.02,
    "email-enron": 0.008,
    "com-livejournal": 0.0004,
}


def quick_scales() -> Dict[str, float]:
    """Dataset scale factors for the fast benchmark profile."""
    return dict(_QUICK_SCALES)


def full_scales() -> Dict[str, float]:
    """Dataset scale factors for the full profile (registry defaults)."""
    return {name: None for name in _QUICK_SCALES}


@dataclass
class BenchReport:
    """One reproduced table/figure: layout plus the raw records."""

    experiment_id: str
    title: str
    headers: List[str]
    rows: List[List[object]]
    notes: List[str] = field(default_factory=list)

    def render(self, precision: int = 3) -> str:
        text = render_table(self.headers, self.rows, title=self.title, precision=precision)
        if self.notes:
            text += "\n" + "\n".join(f"note: {note}" for note in self.notes)
        return text

    def column(self, header: str) -> List[object]:
        """Extract one column by header name (for shape assertions)."""
        try:
            index = self.headers.index(header)
        except ValueError:
            raise BenchError(f"no column {header!r} in {self.experiment_id}") from None
        return [row[index] for row in self.rows]


def default_shedders(seed: int = 0, crr_sources: Optional[int] = None) -> Dict[str, EdgeShedder]:
    """The paper's three methods, seeded: UDS, CRR, BM2.

    ``crr_sources`` switches CRR (and UDS's utility computation) to sampled
    betweenness — used for the larger surrogates.
    """
    return {
        "UDS": UDSSummarizer(seed=seed, num_betweenness_sources=crr_sources),
        "CRR": CRRShedder(seed=seed, num_betweenness_sources=crr_sources),
        "BM2": BM2Shedder(seed=seed),
    }


class ReductionCache:
    """Memoises dataset builds and reduction runs within a process.

    Reductions are keyed content-addressed in a shared
    :class:`~repro.service.store.ArtifactStore` (pass ``store`` to share
    one with a service, or ``persist_dir`` for warm restarts); graph
    builds stay memoised here by (dataset, scale) since the store keys
    off graph content, not provenance.
    """

    def __init__(
        self,
        seed: int = 0,
        store: Optional[ArtifactStore] = None,
        persist_dir: Optional[str] = None,
    ) -> None:
        self.seed = seed
        self.store = store if store is not None else ArtifactStore(persist_dir=persist_dir)
        self._graphs: Dict[Tuple[str, Optional[float]], Graph] = {}

    def graph(self, dataset: str, scale: Optional[float]) -> Graph:
        key = (dataset, scale)
        if key not in self._graphs:
            self._graphs[key] = load_dataset(dataset, scale=scale, seed=self.seed)
        return self._graphs[key]

    def reduce(
        self,
        dataset: str,
        scale: Optional[float],
        method: str,
        shedder: EdgeShedder,
        p: float,
    ) -> ReductionResult:
        graph = self.graph(dataset, scale)
        sources = getattr(shedder, "num_betweenness_sources", None)
        result, _ = self.store.get_or_compute(
            graph,
            method=method,
            p=p,
            seed=self.seed,
            compute=lambda: shedder.reduce(graph, p),
            variant=f"sources={sources}" if sources is not None else "",
        )
        return result
