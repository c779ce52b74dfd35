"""CSR-native array kernels for per-source graph traversals.

This module is the hot path of the whole library.  CRR's Phase-1 edge
ranking, the node-betweenness evaluation task, the shortest-path and
hop-plot sweeps, and closeness centrality all reduce to the same inner
loop: one BFS per source over an unweighted graph, plus (for betweenness)
Brandes' reverse dependency accumulation.  Running that loop over Python
dicts-of-sets costs a dict operation per traversed edge; these kernels
instead operate on a :class:`CSRAdjacency` snapshot with flat numpy
arrays — ``int64`` distances, ``float64`` path counts and dependencies —
and process each BFS *level* as one vectorised batch.

Key representation choices:

* **No predecessor lists.**  Brandes' classic formulation stores explicit
  predecessor lists per node.  In an unweighted graph a neighbour ``v`` of
  ``w`` is a predecessor iff ``dist[v] == dist[w] - 1``, so the reverse
  sweep re-derives predecessors from the CSR neighbour slices with one
  vectorised mask per level — no per-source allocation beyond three flat
  scratch arrays.
* **Half-edge accumulation.**  Edge betweenness accumulates into a
  ``float64[2m]`` array indexed by CSR *entry position* (a "half-edge":
  the slot of neighbour ``v`` inside ``w``'s slice).  Per level the
  touched entry positions are distinct, so accumulation is a plain fancy
  ``+=``.  The two oriented halves of each undirected edge are folded
  together only at the API boundary
  (:meth:`CSRAdjacency.undirected_entries`).
* **Identical arithmetic.**  Each scalar contribution is computed by the
  same formula as the textbook dict-of-sets sweep
  (``sigma[v] * (1 + delta[w]) / sigma[w]``); shortest-path counts are
  integers represented exactly in ``float64``, so ``sigma`` is bit-exact
  and only the *summation order* of ``delta`` differs — scores match the
  dict implementation to ~1e-12 relative (property-tested to 1e-9).

The functions here speak integer node ids and raw (unnormalised,
both-directions) scores.  Normalisation conventions, label mapping, and
seeded source sampling live in the wrappers
(:mod:`repro.graph.centrality`, :mod:`repro.graph.shortest_paths`).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.graph.csr import CSRAdjacency

__all__ = [
    "brandes_accumulate",
    "bfs_distance_array",
    "bfs_level_sizes",
    "distance_histogram",
    "component_ids",
    "walk_epoch_matrix",
]

_EMPTY = np.empty(0, dtype=np.int64)


def _expand(
    indptr: np.ndarray, indices: np.ndarray, frontier: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All CSR entries of ``frontier`` nodes, as one flat batch.

    Returns ``(positions, targets, rep)`` where ``positions`` indexes into
    ``indices`` (the half-edge ids), ``targets = indices[positions]``, and
    ``rep`` maps each entry back to its row in ``frontier``.
    """
    starts = indptr[frontier]
    counts = indptr[frontier + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return _EMPTY, _EMPTY, _EMPTY
    ends = np.cumsum(counts)
    # Entry t of frontier row k lands at output offset (ends[k]-counts[k])+t
    # and must read CSR position starts[k]+t.
    positions = np.repeat(starts - ends + counts, counts) + np.arange(total)
    return positions, indices[positions], np.repeat(np.arange(frontier.shape[0]), counts)


def _scatter_add(out: np.ndarray, targets: np.ndarray, values: np.ndarray) -> None:
    """``out[targets] += values`` with duplicate targets accumulated.

    ``np.bincount`` is much faster than ``np.add.at`` for the dense
    frontiers BFS produces; fall back to ``add.at`` when the batch is tiny
    relative to the array (bincount would be dominated by its allocation).
    """
    if targets.shape[0] * 8 < out.shape[0]:
        np.add.at(out, targets, values)
    else:
        out += np.bincount(targets, weights=values, minlength=out.shape[0])


def _next_frontier(dist: np.ndarray, fresh_targets: np.ndarray, depth: int) -> np.ndarray:
    """Deduplicated, ascending next-level frontier.

    ``fresh_targets`` carries one entry per discovering edge, so a node
    with several same-level parents appears several times; the caller has
    already marked ``dist[fresh_targets] = depth``.  For frontiers small
    relative to ``n``, sorting the batch (``np.unique``) is cheaper than
    scanning all of ``dist``; for dense frontiers the O(n) mark-then-scan
    wins.  Both yield the same ascending id order, so downstream level
    arithmetic is identical either way — the same adaptive switch as
    :func:`_scatter_add`.
    """
    if fresh_targets.shape[0] * 8 < dist.shape[0]:
        return np.unique(fresh_targets)
    return np.nonzero(dist == depth)[0]


def brandes_accumulate(
    csr: CSRAdjacency,
    sources: Iterable[int],
    node_scores: Optional[np.ndarray] = None,
    edge_scores: Optional[np.ndarray] = None,
) -> None:
    """Brandes' betweenness accumulation from each source id, summed in place.

    Args:
        csr: the adjacency snapshot.
        sources: integer node ids to run the accumulation from.
        node_scores: ``float64[n]`` — raw node dependencies are added here
            (every source contributes ``delta[v]`` for each reached
            ``v != source``), or ``None`` to skip node accumulation.
        edge_scores: ``float64[2m]`` half-edge array — each shortest-path
            DAG edge's contribution is added at the CSR entry position of
            its deeper endpoint's slice, or ``None`` to skip.  Fold with
            :meth:`CSRAdjacency.undirected_entries` to get per-edge totals.

    Raw scores follow the textbook Brandes convention: nothing
    is normalised and each unordered pair contributes from both endpoints.
    """
    indptr, indices = csr.indptr, csr.indices
    n = csr.num_nodes
    dist = np.empty(n, dtype=np.int64)
    sigma = np.empty(n, dtype=np.float64)
    delta = np.empty(n, dtype=np.float64)
    for source in np.asarray(list(sources), dtype=np.int64):
        dist.fill(-1)
        sigma.fill(0.0)
        dist[source] = 0
        sigma[source] = 1.0
        levels: List[np.ndarray] = [np.array([source], dtype=np.int64)]
        # Per level, the backward sweep's pre-extracted batch: the CSR
        # entries pointing one level *up* (node -> predecessor).  Built
        # during the forward pass — a neighbour at depth-1 already has its
        # final distance when the depth-level batch is expanded — so the
        # CSR slices are gathered exactly once per source.
        rootward: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = [
            (_EMPTY, _EMPTY, _EMPTY)
        ]
        # Forward: level-synchronous BFS with shortest-path counting.
        depth = 0
        while True:
            positions, targets, rep = _expand(indptr, indices, levels[-1])
            target_depths = dist[targets]
            if depth > 0:
                toward_root = target_depths == depth - 1
                rootward.append(
                    (positions[toward_root], targets[toward_root], rep[toward_root])
                )
            else:
                # The source has no predecessors, and depth - 1 == -1 would
                # match *unvisited* neighbours instead.  The backward sweep
                # only reads rootward[2:], so rootward[1] stays empty.
                rootward.append((_EMPTY, _EMPTY, _EMPTY))
            fresh = target_depths < 0
            fresh_targets = targets[fresh]
            if fresh_targets.shape[0] == 0:
                break
            depth += 1
            dist[fresh_targets] = depth
            next_level = _next_frontier(dist, fresh_targets, depth)
            # Every (level d -> level d+1) CSR entry appears exactly once in
            # this batch, so sigma sums all predecessor path counts.
            _scatter_add(sigma, fresh_targets, sigma[levels[-1]][rep[fresh]])
            levels.append(next_level)
        # Backward: dependency accumulation, deepest level first.  All
        # successors of a node sit exactly one level deeper, so each
        # delta[v] is fully accumulated within a single batch.
        delta.fill(0.0)
        for depth in range(len(levels) - 1, 0, -1):
            frontier = levels[depth]
            positions, predecessors, rep = rootward[depth + 1]
            coefficient = (1.0 + delta[frontier]) / sigma[frontier]
            contribution = sigma[predecessors] * coefficient[rep]
            _scatter_add(delta, predecessors, contribution)
            if edge_scores is not None:
                # Entry positions are distinct within one batch (one slot
                # per CSR entry), so a fancy += accumulates correctly.
                edge_scores[positions] += contribution
        if node_scores is not None:
            for frontier in levels[1:]:
                node_scores[frontier] += delta[frontier]


def bfs_distance_array(
    csr: CSRAdjacency, source: int, cutoff: Optional[int] = None
) -> np.ndarray:
    """Hop distances from ``source`` as ``int64[n]`` (-1 for unreachable).

    ``cutoff`` bounds the search depth (inclusive), matching
    :func:`repro.graph.traversal.bfs_distances`.
    """
    n = csr.num_nodes
    dist = np.full(n, -1, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    depth = 0
    while frontier.size and (cutoff is None or depth < cutoff):
        _, targets, _ = _expand(csr.indptr, csr.indices, frontier)
        fresh = targets[dist[targets] < 0]
        if fresh.size == 0:
            break
        depth += 1
        dist[fresh] = depth
        frontier = _next_frontier(dist, fresh, depth)
    return dist


def bfs_level_sizes(csr: CSRAdjacency, source: int) -> List[int]:
    """Number of nodes at each hop distance ``1, 2, ...`` from ``source``.

    The summary every distance sweep needs: level ``d``'s size is the count
    of nodes at distance exactly ``d``, so distance histograms, closeness
    sums, and hop-plots never materialise per-node dictionaries.
    """
    dist = np.full(csr.num_nodes, -1, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    sizes: List[int] = []
    while frontier.size:
        _, targets, _ = _expand(csr.indptr, csr.indices, frontier)
        fresh = targets[dist[targets] < 0]
        if fresh.size == 0:
            break
        dist[fresh] = len(sizes) + 1
        frontier = _next_frontier(dist, fresh, len(sizes) + 1)
        sizes.append(int(frontier.size))
    return sizes


def distance_histogram(csr: CSRAdjacency, sources: Iterable[int]) -> np.ndarray:
    """Counts of (source, node) pairs per hop distance, over all ``sources``.

    Returns ``int64[max_distance + 1]`` with index = distance; index 0 is
    always 0 (a node is not a pair with itself).  This is the array form of
    :func:`repro.graph.shortest_paths.pairwise_distance_counts`.
    """
    counts: List[int] = [0]
    for source in sources:
        sizes = bfs_level_sizes(csr, int(source))
        if len(sizes) >= len(counts):
            counts.extend([0] * (len(sizes) - len(counts) + 1))
        for depth, size in enumerate(sizes, start=1):
            counts[depth] += size
    return np.asarray(counts, dtype=np.int64)


def component_ids(csr: CSRAdjacency) -> np.ndarray:
    """Connected-component label per node, ``int64[n]``.

    Components are numbered 0, 1, ... in order of their first node's id
    (= insertion order), so the labelling is deterministic.
    """
    n = csr.num_nodes
    component = np.full(n, -1, dtype=np.int64)
    next_label = 0
    for seed in range(n):
        if component[seed] >= 0:
            continue
        component[seed] = next_label
        frontier = np.array([seed], dtype=np.int64)
        while frontier.size:
            _, targets, _ = _expand(csr.indptr, csr.indices, frontier)
            fresh = targets[component[targets] < 0]
            if fresh.size == 0:
                break
            component[fresh] = next_label
            # Dedup is load-bearing: ``fresh`` holds one copy of each node
            # per discovering edge, and carrying duplicates forward
            # multiplies across levels (exponentially on graphs with many
            # equal-length parallel paths).  ``component`` has no per-level
            # marker to scan, so sort the batch.
            frontier = np.unique(fresh)
        next_label += 1
    return component


def walk_epoch_matrix(
    csr: CSRAdjacency,
    rng: np.random.Generator,
    walk_length: int,
    p: float = 1.0,
    q: float = 1.0,
    starts: Optional[np.ndarray] = None,
) -> np.ndarray:
    """One epoch of batched node2vec walks: every walk advances one step
    per numpy operation.

    Starts one walk from each node in ``starts`` (default: every node of
    degree >= 1, ascending id order) and returns the walk matrix
    ``int64[len(starts), walk_length]`` of integer node ids.  Because the
    graph is undirected and simple, any node reached from a degree->=1
    start has a neighbour to continue to, so every row is full length —
    there is no padding.

    ``p == q == 1`` takes the uniform fast path: one ``random(W)`` draw
    per step indexes directly into the CSR neighbour slices.  Otherwise
    each step flattens the candidate neighbour slices of all current
    nodes, weights them ``1/p`` (return), ``1`` (distance-1 triangle edge:
    candidate adjacent to the previous node, tested by one global
    ``searchsorted`` against :meth:`CSRAdjacency.entry_keys`), or ``1/q``
    (outward), and inverse-samples the per-walk segment of the global
    weight cumsum with one uniform draw per walk.

    RNG contract: exactly one ``rng.random(W)`` draw per step past the
    first (the first step is always uniform — there is no previous node),
    for *both* paths, so a fixed generator state yields a bit-identical
    matrix regardless of chunking.  The parallel fan-out
    (:func:`repro.graph.parallel.parallel_walk_matrix`) relies on this:
    it hands each epoch its own child generator, making concurrent output
    equal serial output bit for bit.
    """
    indptr, indices = csr.indptr, csr.indices
    degrees = np.diff(indptr)
    if starts is None:
        starts = np.nonzero(degrees > 0)[0].astype(np.int64)
    num_walks = int(starts.shape[0])
    matrix = np.empty((num_walks, walk_length), dtype=np.int64)
    if num_walks == 0:
        return matrix
    matrix[:, 0] = starts
    if walk_length == 1:
        return matrix
    uniform = p == 1.0 and q == 1.0
    n = csr.num_nodes
    if not uniform:
        entry_keys = csr.entry_keys()
        inverse_p, inverse_q = 1.0 / p, 1.0 / q
    current = matrix[:, 0]
    for step in range(1, walk_length):
        draws = rng.random(num_walks)
        if uniform or step == 1:
            slots = (draws * degrees[current]).astype(np.int64)
            # draws < 1 keeps slots < degree mathematically; clip the
            # one-ulp rounding case anyway.
            np.minimum(slots, degrees[current] - 1, out=slots)
            chosen = indices[indptr[current] + slots]
        else:
            previous = matrix[:, step - 2]
            positions, candidates, rep = _expand(indptr, indices, current)
            previous_rep = previous[rep]
            weights = np.full(candidates.shape[0], inverse_q)
            keys = previous_rep * n + candidates
            found = np.searchsorted(entry_keys, keys)
            np.minimum(found, entry_keys.shape[0] - 1, out=found)
            weights[entry_keys[found] == keys] = 1.0
            weights[candidates == previous_rep] = inverse_p
            cdf = np.cumsum(weights)
            counts = degrees[current]
            segment_end = np.cumsum(counts)
            base = np.concatenate(([0.0], cdf))[segment_end - counts]
            targets = base + draws * (cdf[segment_end - 1] - base)
            picks = np.searchsorted(cdf, targets, side="right")
            np.minimum(picks, segment_end - 1, out=picks)
            chosen = candidates[picks]
        matrix[:, step] = chosen
        current = chosen
    return matrix
