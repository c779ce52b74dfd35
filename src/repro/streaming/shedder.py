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

from typing import Callable, Dict, Hashable, Iterable, Iterator, List, Sequence

import numpy as np

from repro.core.base import validate_ratio
from repro.core.discrepancy import round_half_up
from repro.errors import ReductionError
from repro.graph.graph import Edge, Node
from repro.rng import RandomState, ensure_rng

__all__ = [
    "EdgeReservoir",
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
    """Algorithm R's replacement draw for one offer.

    :func:`reservoir_shed` and :meth:`EdgeReservoir.offer` draw with it;
    :meth:`EdgeReservoir.refill` applies the same rule to a whole batch,
    drawing every slot in one broadcast ``integers`` call that yields the
    same values as one call here per offer.

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


class EdgeReservoir:
    """A bounded uniform pool of *unique* candidate edges.

    The dynamic maintenance layer (:mod:`repro.dynamic`) holds the edges it
    had to reject or demote in one of these so localized repair can promote
    them back later without remembering the unbounded shed set.  Replacement
    uses the same Algorithm-R draw as :func:`reservoir_shed`: :meth:`offer`
    calls :func:`reservoir_slot`, and :meth:`refill` draws a batch's slots
    in one broadcast call with the same values, so a long offer stream
    leaves an approximately uniform sample of the offered edges.

    Unlike the one-shot :func:`reservoir_shed`, membership is indexed:
    :meth:`offer` refuses duplicates and :meth:`discard` removes a specific
    edge in O(1) (swap-pop), which is what lets the maintainer keep the pool
    consistent while edges are promoted into — or deleted from under — it.
    """

    def __init__(self, capacity: int, seed: RandomState = None) -> None:
        if capacity < 0:
            raise ReductionError(f"reservoir capacity must be non-negative, got {capacity}")
        self._capacity = capacity
        self._rng = ensure_rng(seed)
        self._items: List[Hashable] = []
        self._position: Dict[Hashable, int] = {}
        self._offers = 0

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def fill_ratio(self) -> float:
        """``len(self) / capacity``; 1.0 when the capacity is zero."""
        if self._capacity == 0:
            return 1.0
        return len(self._items) / self._capacity

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, edge: Hashable) -> bool:
        return edge in self._position

    def offer(self, edge: Hashable) -> bool:
        """Offer ``edge`` to the pool; return whether it was stored.

        Duplicates of a currently-held edge are refused without consuming
        the random stream; once the pool is full, Algorithm R decides which
        offers overwrite a uniformly random slot.
        """
        if edge in self._position:
            return False
        self._offers += 1
        if len(self._items) < self._capacity:
            self._position[edge] = len(self._items)
            self._items.append(edge)
            return True
        slot = reservoir_slot(self._rng, self._offers, self._capacity)
        if slot < 0:
            return False
        del self._position[self._items[slot]]
        self._items[slot] = edge
        self._position[edge] = slot
        return True

    def discard(self, edge: Hashable) -> bool:
        """Remove ``edge`` if held (swap-pop); return whether it was held."""
        index = self._position.pop(edge, None)
        if index is None:
            return False
        last = self._items.pop()
        if index < len(self._items):
            self._items[index] = last
            self._position[last] = index
        return True

    def sample(self, count: int) -> List[Hashable]:
        """Up to ``count`` distinct held edges, drawn uniformly."""
        held = len(self._items)
        if count >= held:
            return list(self._items)
        picks = self._rng.choice(held, size=count, replace=False)
        return [self._items[int(i)] for i in picks]

    def probe(self, count: int) -> List[Hashable]:
        """Up to ``count`` distinct held edges, drawn *with* replacement.

        Collisions shrink the batch instead of being redrawn, which makes
        this much cheaper than :meth:`sample` (no ``rng.choice`` machinery)
        — the right trade for per-op candidate probing, where a short batch
        just means slightly less work this round.
        """
        held = len(self._items)
        if count >= held:
            return list(self._items)
        items = self._items
        seen: set = set()
        out: List[Hashable] = []
        for i in self._rng.integers(held, size=count).tolist():
            if i not in seen:
                seen.add(i)
                out.append(items[i])
        return out

    def items(self) -> List[Hashable]:
        return list(self._items)

    def refill(self, items: Sequence[Hashable]) -> None:
        """Replace the pool with an Algorithm-R sample of distinct ``items``.

        Ends in the state offering each item to an emptied pool would
        leave, random stream included, with every slot drawn in one
        ``integers`` call over the bounds ``capacity+1..len(items)``.
        """
        items = list(items)
        if len(set(items)) != len(items):
            raise ReductionError("reservoir refill items must be distinct")
        capacity = self._capacity
        held = items[:capacity]
        if capacity:  # a zero-capacity pool draws nothing
            bounds = np.arange(capacity + 1, len(items) + 1)
            for slot, offer in zip(self._rng.integers(bounds).tolist(), items[capacity:]):
                if slot < capacity:
                    held[slot] = offer
        self._items = held
        self._position = {edge: slot for slot, edge in enumerate(held)}
        self._offers = len(items)
