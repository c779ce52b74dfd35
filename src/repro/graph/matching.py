"""Greedy b-matching — the substrate for BM2's first phase.

A *b-matching* of G under capacities ``b(u)`` is a subgraph in which every
node ``u`` has degree at most ``b(u)``; it is *maximal* when no further edge
can be added without violating a capacity.  BM2 phase 1 (Algorithm 2, lines
3-7) runs the linear-time greedy pass: scan edges once, keep each edge whose
endpoints both still have spare capacity.  The result is a maximal
b-matching and a 1/2-approximation of the maximum one [Hougardy 2009].
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping

import numpy as np

from repro.errors import GraphError
from repro.graph.graph import Edge, Graph, Node

__all__ = [
    "greedy_b_matching_ids",
    "greedy_weighted_b_matching_ids",
    "is_b_matching",
    "is_maximal_b_matching",
]


def _sequential_greedy_mask(
    edge_u: np.ndarray, edge_v: np.ndarray, capacities: np.ndarray
) -> np.ndarray:
    """The sequential greedy scan over id arrays.

    A Python loop, but over plain ints with list-indexed loads — no label
    hashing, no per-edge allocations — which makes it several times faster
    than the dict scan and, measured on ER/power-law graphs from 10⁴ to
    3·10⁵ edges, faster than speculative vectorized formulations of the
    same scan (whose round counts grow with the graph's decision-chain
    depth; see :func:`greedy_b_matching_ids`).
    """
    kept = np.zeros(edge_u.shape[0], dtype=bool)
    caps = capacities.tolist()
    loads = [0] * capacities.shape[0]
    kept_positions = []
    append = kept_positions.append
    for k, (u, v) in enumerate(zip(edge_u.tolist(), edge_v.tolist())):
        if loads[u] < caps[u] and loads[v] < caps[v]:
            append(k)
            loads[u] += 1
            loads[v] += 1
    kept[kept_positions] = True
    return kept


def _blocked_greedy_mask(
    edge_u: np.ndarray,
    edge_v: np.ndarray,
    capacities: np.ndarray,
    block_size: int,
) -> np.ndarray:
    """Greedy scan in edge blocks: whole-block admission when it fits.

    Exact for any ``block_size``: a block where every touched node has
    enough spare capacity for all its in-block edges admits wholesale in
    one vectorized step (the sequential scan would keep each edge — every
    intermediate load stays strictly below its capacity); otherwise edges
    with an already-saturated endpoint are dropped vectorized (loads only
    grow, and rejected edges change no loads) and the residue replays the
    exact sequential scan.  Worthwhile when capacities are loose relative
    to block-local degree collisions — e.g. after degree-descending edge
    grouping — and measured against :func:`_sequential_greedy_mask` by the
    scale benchmark before being switched on anywhere.
    """
    m = int(edge_u.shape[0])
    n = int(capacities.shape[0])
    kept = np.zeros(m, dtype=bool)
    loads = np.zeros(n, dtype=np.int64)
    for start in range(0, m, block_size):
        end = min(start + block_size, m)
        block_u = edge_u[start:end]
        block_v = edge_v[start:end]
        in_block = np.bincount(np.concatenate((block_u, block_v)), minlength=n)
        if np.all(in_block <= capacities - loads):
            kept[start:end] = True
            loads += in_block
            continue
        saturated = loads >= capacities
        viable = np.nonzero(~(saturated[block_u] | saturated[block_v]))[0]
        base = loads.tolist()
        caps = capacities.tolist()
        increment: Dict[int, int] = {}
        for k in viable.tolist():
            u = int(block_u[k])
            v = int(block_v[k])
            if (
                base[u] + increment.get(u, 0) < caps[u]
                and base[v] + increment.get(v, 0) < caps[v]
            ):
                kept[start + k] = True
                increment[u] = increment.get(u, 0) + 1
                increment[v] = increment.get(v, 0) + 1
        for node, extra in increment.items():
            loads[node] += extra
    return kept


def greedy_b_matching_ids(
    edge_u: np.ndarray,
    edge_v: np.ndarray,
    capacities: np.ndarray,
    max_rounds: int = 0,
    block_size: int = 0,
) -> np.ndarray:
    """Array-native greedy maximal b-matching over integer-id edge arrays.

    The paper's sequential scan ("for each (u,v) in E"): edge ``k`` (in
    input order) is kept iff fewer than ``capacities[u]`` kept edges among
    positions ``0..k-1`` touch ``u``, and likewise for ``v``.  Returns a
    boolean kept-mask aligned with the input arrays.

    By default the scan runs directly over the id arrays with integer
    load/capacity vectors (:func:`_sequential_greedy_mask`).  The greedy
    scan's outcome forms sequential decision chains whose depth grows with
    the graph, so speculative vectorized evaluation — implemented here as
    optional fixpoint rounds, enabled with ``max_rounds > 0`` — decides only
    a shrinking fraction of edges per ``O(m)``-cost round and, measured on
    ER and power-law graphs between 10⁴ and 3·10⁵ edges, never recoups the
    round cost.  The array layout itself is where the speed-up lives: the
    id scan runs ~4x faster than the dict/label scan.

    A fixpoint round classifies each still-undecided edge by counting the
    *decided-kept* (``lo``) and *potentially-kept* (``hi`` = decided plus
    undecided) earlier edges at each endpoint: ``hi_u < cap_u and hi_v <
    cap_v`` means kept no matter how earlier undecided edges resolve, and
    ``lo_u >= cap_u or lo_v >= cap_v`` means dropped no matter what.  After
    the rounds (or earlier, once few edges remain undecided), an exact
    scalar pass seeded with the decided-kept counts finishes the job, so
    the result is identical to the plain scan for any ``max_rounds``.

    ``block_size > 0`` selects the block-admission variant instead
    (:func:`_blocked_greedy_mask`): whole blocks of consecutive edges are
    admitted in one vectorized step when every touched node has spare
    capacity for all its in-block edges, with an exact sequential replay
    on conflicted blocks.  Also identical to the plain scan.

    Raises :class:`GraphError` on negative capacities.
    """
    m = int(edge_u.shape[0])
    n = int(capacities.shape[0])
    if np.any(capacities < 0):
        worst = int(np.argmin(capacities))
        raise GraphError(
            f"capacity for node id {worst} is negative: {int(capacities[worst])}"
        )
    if m == 0:
        return np.zeros(0, dtype=bool)
    if block_size > 0:
        return _blocked_greedy_mask(edge_u, edge_v, capacities, block_size)
    if max_rounds <= 0:
        return _sequential_greedy_mask(edge_u, edge_v, capacities)

    # Half-edge layout, grouped by node with positions ascending inside each
    # group; built once, reused every round for grouped prefix counts.  The
    # halves are interleaved (u₀ v₀ u₁ v₁ …) so that one stable argsort by
    # node already yields ascending positions within each group.
    node_h = np.empty(2 * m, dtype=np.int64)
    node_h[0::2] = edge_u
    node_h[1::2] = edge_v
    pos_h = np.repeat(np.arange(m, dtype=np.int64), 2)
    order = np.argsort(node_h, kind="stable")
    edge_of_sorted = pos_h[order]
    counts = np.bincount(node_h, minlength=n)
    # Position of each edge's u-half / v-half inside the sorted layout.
    inverse = np.empty(2 * m, dtype=np.int64)
    inverse[order] = np.arange(2 * m, dtype=np.int64)
    inv_u, inv_v = inverse[0::2], inverse[1::2]
    group_starts = np.cumsum(counts) - counts
    cap_u = capacities[edge_u]
    cap_v = capacities[edge_v]

    kept = np.zeros(m, dtype=bool)
    undecided = np.ones(m, dtype=bool)

    def _grouped_exclusive_prefix(flags: np.ndarray) -> np.ndarray:
        """Per half-edge: count of earlier same-node edges with flag set."""
        flagged = flags[edge_of_sorted].astype(np.int64)
        cumulative = np.cumsum(flagged)
        exclusive = cumulative - flagged
        base = np.concatenate(([0], cumulative))[group_starts]
        return exclusive - np.repeat(base, counts)

    # Below this many undecided edges, the scalar finish beats another round.
    threshold = max(512, m >> 2)
    for _ in range(max_rounds):
        lo = _grouped_exclusive_prefix(kept)
        pending = _grouped_exclusive_prefix(undecided)
        lo_u, lo_v = lo[inv_u], lo[inv_v]
        hi_u = lo_u + pending[inv_u]
        hi_v = lo_v + pending[inv_v]
        decide_keep = undecided & (hi_u < cap_u) & (hi_v < cap_v)
        decide_drop = undecided & ((lo_u >= cap_u) | (lo_v >= cap_v))
        kept |= decide_keep
        undecided &= ~(decide_keep | decide_drop)
        count = int(np.count_nonzero(undecided))
        if count == 0:
            return kept
        if count <= threshold:
            break

    # Exact scalar finish.  For an undecided edge, the load each endpoint
    # has accumulated before it = decided-kept earlier edges (``lo``, now
    # final) + undecided-kept earlier edges (tallied as we walk the
    # remaining positions in ascending order).
    remaining = np.nonzero(undecided)[0]
    lo = _grouped_exclusive_prefix(kept)
    rem_u = edge_u[remaining].tolist()
    rem_v = edge_v[remaining].tolist()
    rem_lo_u = lo[inv_u[remaining]].tolist()
    rem_lo_v = lo[inv_v[remaining]].tolist()
    rem_cap_u = cap_u[remaining].tolist()
    rem_cap_v = cap_v[remaining].tolist()
    extra = [0] * n
    newly_kept = []
    for k in range(len(rem_u)):
        u, v = rem_u[k], rem_v[k]
        if rem_lo_u[k] + extra[u] < rem_cap_u[k] and rem_lo_v[k] + extra[v] < rem_cap_v[k]:
            newly_kept.append(k)
            extra[u] += 1
            extra[v] += 1
    kept[remaining[newly_kept]] = True
    return kept


def greedy_weighted_b_matching_ids(
    edge_u: np.ndarray,
    edge_v: np.ndarray,
    weights: np.ndarray,
    capacities: np.ndarray,
) -> np.ndarray:
    """Greedy maximal *weighted* b-matching: capacities bound probability mass.

    The uncertain-graph analogue of :func:`greedy_b_matching_ids`: edge
    ``k`` is kept iff both endpoints can still absorb its weight, i.e.
    ``load[u] + w_k <= cap[u]`` (mass admission).  ``capacities`` is a
    float array of rounded expected-mass budgets.  With all weights exactly
    1.0 and integer-valued capacities the admission rule degenerates to the
    count rule ``load < cap`` — float loads built from exact-integer
    increments stay exact — so the kept-mask equals the unweighted scan's
    bit for bit.

    Raises :class:`GraphError` on negative capacities or weights.
    """
    if np.any(capacities < 0):
        worst = int(np.argmin(capacities))
        raise GraphError(
            f"capacity for node id {worst} is negative: {float(capacities[worst])}"
        )
    if weights.shape[0] and np.any(weights < 0):
        raise GraphError("edge weights must be non-negative")
    kept = np.zeros(edge_u.shape[0], dtype=bool)
    caps = capacities.tolist()
    loads = [0.0] * int(capacities.shape[0])
    kept_positions = []
    append = kept_positions.append
    for k, (u, v, w) in enumerate(
        zip(edge_u.tolist(), edge_v.tolist(), weights.tolist())
    ):
        if loads[u] + w <= caps[u] and loads[v] + w <= caps[v]:
            append(k)
            loads[u] += w
            loads[v] += w
    kept[kept_positions] = True
    return kept


def _matched_loads(graph: Graph, edges: Iterable[Edge]) -> Dict[Node, int]:
    load: Dict[Node, int] = dict.fromkeys(graph.nodes(), 0)
    seen = set()
    for u, v in edges:
        if not graph.has_edge(u, v):
            raise GraphError(f"matching contains non-edge ({u!r}, {v!r})")
        key = frozenset((u, v))
        if key in seen:
            raise GraphError(f"matching repeats edge ({u!r}, {v!r})")
        seen.add(key)
        load[u] += 1
        load[v] += 1
    return load


def is_b_matching(graph: Graph, edges: Iterable[Edge], capacities: Mapping[Node, int]) -> bool:
    """True when ``edges`` respects every capacity constraint."""
    load = _matched_loads(graph, edges)
    return all(load[node] <= capacities.get(node, 0) for node in graph.nodes())


def is_maximal_b_matching(
    graph: Graph, edges: Iterable[Edge], capacities: Mapping[Node, int]
) -> bool:
    """True when ``edges`` is a b-matching and no graph edge can be added."""
    edge_list = list(edges)
    load = _matched_loads(graph, edge_list)
    if any(load[node] > capacities.get(node, 0) for node in graph.nodes()):
        return False
    in_matching = {frozenset(e) for e in edge_list}
    for u, v in graph.edges():
        if frozenset((u, v)) in in_matching:
            continue
        if load[u] < capacities.get(u, 0) and load[v] < capacities.get(v, 0):
            return False
    return True
