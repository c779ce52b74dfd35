"""External-memory edge shedding over edge streams.

The paper motivates reduction under *resource constraints*; the tightest
constraint is not being able to hold the edge set in memory at all.  This
module sheds an edge **stream** in two passes with ``O(|V|)`` memory:

* pass 1 counts node degrees;
* pass 2 computes capacities ``b(u) = round(p·deg(u))`` and keeps an edge
  iff both endpoints still have spare capacity — exactly BM2's Phase 1
  (greedy maximal b-matching), whose degree guarantee (Theorem 2's
  building block) therefore carries over.  Phase 2's bipartite repair
  needs the rejected edges in memory, so the streaming variant trades a
  little Δ for bounded memory — measured in the streaming tests.

A single-pass uniform :func:`reservoir_shed` is included as the baseline
(it is the streaming analogue of :class:`~repro.core.RandomShedder`).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List

import numpy as np

from repro.core.base import validate_ratio
from repro.core.discrepancy import round_half_up
from repro.errors import ReductionError
from repro.graph.graph import Edge, Node
from repro.rng import RandomState, ensure_rng

__all__ = [
    "ReservoirSample",
    "count_stream_degrees",
    "reservoir_shed",
    "reservoir_slot",
    "shed_stream",
]

EdgeStreamFactory = Callable[[], Iterable[Edge]]


def count_stream_degrees(edges: Iterable[Edge]) -> Dict[Node, int]:
    """Pass 1: node degrees of a simple-graph edge stream.

    Raises :class:`ReductionError` on self-loops or duplicate edges —
    the stream must describe a simple graph for the capacities to mean
    anything.
    """
    degrees: Dict[Node, int] = {}
    seen: set = set()
    for u, v in edges:
        if u == v:
            raise ReductionError(f"self-loop ({u!r}, {v!r}) in edge stream")
        key = frozenset((u, v))
        if key in seen:
            raise ReductionError(f"duplicate edge ({u!r}, {v!r}) in edge stream")
        seen.add(key)
        degrees[u] = degrees.get(u, 0) + 1
        degrees[v] = degrees.get(v, 0) + 1
    return degrees


def shed_stream(
    edge_stream_factory: EdgeStreamFactory,
    p: float,
    rounding: Callable[[float], int] = round_half_up,
) -> Iterator[Edge]:
    """Two-pass degree-preserving shedding; yields the kept edges.

    ``edge_stream_factory`` must return a fresh iterable of the same edges
    on each call (e.g. ``lambda: read_edges(path)``), because the stream
    is consumed twice.  Yields kept edges in stream order.
    """
    p = validate_ratio(p)
    degrees = count_stream_degrees(edge_stream_factory())
    capacities = {node: rounding(p * degree) for node, degree in degrees.items()}
    load: Dict[Node, int] = dict.fromkeys(degrees, 0)
    for u, v in edge_stream_factory():
        if load[u] < capacities[u] and load[v] < capacities[v]:
            load[u] += 1
            load[v] += 1
            yield (u, v)


def reservoir_slot(rng: np.random.Generator, seen: int, capacity: int) -> int:
    """Algorithm R's replacement draw for one :func:`reservoir_shed` offer.

    Given that ``seen`` items have been offered so far (including the
    current one) to a full reservoir of size ``capacity``, return the slot
    the current item should overwrite, or ``-1`` to reject it.  Draws
    nothing from ``rng`` when ``capacity == 0`` — a zero-capacity reservoir
    must not consume the random stream.
    """
    if capacity == 0:
        return -1
    slot = int(rng.integers(seen))
    return slot if slot < capacity else -1


class ReservoirSample(List[Edge]):
    """A :func:`reservoir_shed` result: a plain edge list plus fill telemetry.

    ``fill_ratio`` is ``len(sample) / target`` (``1.0`` for ``target == 0``);
    anything below 1.0 means the stream was shorter than ``total_edges``
    promised and the reservoir is under-filled — callers that sized the
    reservoir from an upper bound should check it before trusting the
    sample size.
    """

    def __init__(self, edges: Iterable[Edge], target: int) -> None:
        super().__init__(edges)
        #: the requested sample size ``[p·total_edges]``.
        self.target = int(target)

    @property
    def fill_ratio(self) -> float:
        """``len(self) / target``; 1.0 when the target is zero."""
        if self.target == 0:
            return 1.0
        return len(self) / self.target


def reservoir_shed(
    edges: Iterable[Edge],
    p: float,
    total_edges: int,
    seed: RandomState = None,
) -> ReservoirSample:
    """Single-pass uniform sampling of ``[p·total_edges]`` edges.

    Classic reservoir sampling (Algorithm R): the baseline for the
    streaming comparison.  ``total_edges`` must be the stream length (or
    an upper bound; a short stream fills less of the reservoir — the
    returned :class:`ReservoirSample` surfaces that via ``fill_ratio``).
    """
    p = validate_ratio(p)
    if total_edges < 0:
        raise ReductionError(f"total_edges must be non-negative, got {total_edges}")
    rng = ensure_rng(seed)
    target = round_half_up(p * total_edges)
    reservoir: List[Edge] = []
    for index, edge in enumerate(edges):
        if len(reservoir) < target:
            reservoir.append(edge)
        else:
            slot = reservoir_slot(rng, index + 1, target)
            if slot >= 0:
                reservoir[slot] = edge
    return ReservoirSample(reservoir, target)
