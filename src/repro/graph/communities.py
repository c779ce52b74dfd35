"""Community detection (label propagation) and partition comparison.

Gives the library a self-contained community pipeline: asynchronous label
propagation [Raghavan et al. 2007] for detection, plus normalised mutual
information (NMI) to compare the partitions found on an original graph
and on its reduction — the extension task
:class:`repro.tasks.community.CommunityTask` is built on these.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, Hashable, Mapping, Tuple

import numpy as np

from repro.graph.graph import Graph, Node
from repro.rng import RandomState, ensure_rng

__all__ = [
    "label_propagation",
    "partition_sizes",
    "modularity",
    "normalized_mutual_information",
]


def label_propagation(
    graph: Graph,
    max_iterations: int = 100,
    seed: RandomState = None,
) -> Dict[Node, int]:
    """Asynchronous label propagation; returns node -> community id.

    Each node starts in its own community; in random order, every node
    adopts the most frequent label among its neighbours (ties broken
    randomly).  Stops after the first full sweep that leaves every node's
    label among the most frequent labels of its neighbours — the stopping
    rule of Raghavan, Albert and Kumara — or after ``max_iterations``
    sweeps.  A random tie flip between equally frequent labels does not
    keep it sweeping.  Isolated nodes keep their own singleton label.
    Community ids are re-numbered densely (0..k-1) in first-appearance
    order for determinism.

    Asynchronous sweeps cannot be naively batched — each node must see the
    labels of neighbours already processed *this* sweep.  The trick is a
    conflict-free block decomposition of the shuffled order: a node opens a
    new block exactly when one of its neighbours was already processed in
    the current block, so within a block every node's neighbourhood labels
    are frozen and the whole block resolves in one vectorized pass
    (segment counts + ``maximum.reduceat``), with async semantics intact.
    The stopping check is one more segment-count pass over the whole
    adjacency after each sweep; it draws no random numbers.

    Exactness notes: the result is the per-node scan's — shuffle the node
    list, then let each node count its neighbours' labels in
    ``graph.neighbors()`` order and draw among tied labels in
    first-occurrence order.  The per-sweep shuffle permutes a Python list
    (the same ``Generator.shuffle`` draw stream as shuffling the node
    list), the flat adjacency is built in ``graph.neighbors()`` order (*not*
    the CSR's sorted slices) so tie candidates enumerate in first-occurrence
    order, and tie draws are batched through ``rng.integers(0, highs)`` —
    elementwise identical to one scalar draw per tied node in sweep order.
    Isolated nodes never draw.
    """
    labels, _, _ = _label_propagation_ids(graph, max_iterations, seed)
    return dict(zip(graph.nodes(), labels.tolist()))


def _label_propagation_ids(
    graph: Graph, max_iterations: int, seed: RandomState
) -> Tuple[np.ndarray, int, bool]:
    """:func:`label_propagation` by node id (``graph.nodes()`` order).

    Returns ``(labels, sweeps, converged)``: the dense community ids as
    ``int64[n]``, the number of sweeps run, and whether the stopping rule
    fired (``False`` when ``max_iterations`` ran out first).
    """
    rng = ensure_rng(seed)
    node_list = list(graph.nodes())
    n = len(node_list)
    if n == 0:
        return np.empty(0, dtype=np.int64), 0, True
    index_of = {node: i for i, node in enumerate(node_list)}

    # Flat adjacency in graph.neighbors() (= insertion) order.
    degrees = np.fromiter(
        (graph.degree(node) for node in node_list), dtype=np.int64, count=n
    )
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    total = int(indptr[-1])
    adjacency = np.fromiter(
        (index_of[x] for node in node_list for x in graph.neighbors(node)),
        dtype=np.int64,
        count=total,
    )
    owner = np.repeat(np.arange(n, dtype=np.int64), degrees)

    labels = np.arange(n, dtype=np.int64)
    order_list = list(range(n))
    position = np.empty(n, dtype=np.int64)
    has_neighbors = degrees > 0
    # reduceat needs non-empty slices: it reads an empty slice's next
    # entry instead, so only nodes with neighbours get a slice start.
    slice_starts = indptr[:-1][has_neighbors]

    sweeps = 0
    converged = False
    for sweeps in range(1, max_iterations + 1):
        rng.shuffle(order_list)
        if total:
            order = np.asarray(order_list, dtype=np.int64)
            position[order] = np.arange(n, dtype=np.int64)
            # Latest earlier-in-sweep position among each node's neighbours.
            neighbor_pos = position[adjacency]
            own_pos = np.repeat(position, degrees)
            earlier = np.where(neighbor_pos < own_pos, neighbor_pos, -1)
            latest_earlier = np.full(n, -1, dtype=np.int64)
            latest_earlier[has_neighbors] = np.maximum.reduceat(earlier, slice_starts)
            prev_of_pos = latest_earlier[order]

            # Conflict-free blocks over the shuffled order.
            cuts = [0]
            block_start = 0
            for t, prev in enumerate(prev_of_pos.tolist()):
                if prev >= block_start:
                    cuts.append(t)
                    block_start = t
            cuts.append(n)

            for s, e in zip(cuts[:-1], cuts[1:]):
                block = order[s:e]
                block = block[has_neighbors[block]]
                if block.shape[0] == 0:
                    continue
                _propagate_block(block, labels, adjacency, indptr, degrees, n, rng)
        # A sweep without changes passes this check too: every node chose
        # its label from the neighbourhood it still has.
        if _is_settled(labels, owner, adjacency, n):
            converged = True
            break

    # Dense re-numbering in node insertion (= id) order.
    unique_labels, first_index = np.unique(labels, return_index=True)
    lut = np.empty(n, dtype=np.int64)
    lut[unique_labels[np.argsort(first_index, kind="stable")]] = np.arange(
        unique_labels.shape[0], dtype=np.int64
    )
    return lut[labels], sweeps, converged


def _propagate_block(
    block: np.ndarray,
    labels: np.ndarray,
    adjacency: np.ndarray,
    indptr: np.ndarray,
    degrees: np.ndarray,
    n: int,
    rng,
) -> None:
    """Resolve one conflict-free block in place."""
    lengths = degrees[block]
    offsets = np.zeros(block.shape[0], dtype=np.int64)
    np.cumsum(lengths[:-1], out=offsets[1:])
    flat = np.arange(int(lengths.sum()), dtype=np.int64)
    flat += np.repeat(indptr[block] - offsets, lengths)
    neighbor_labels = labels[adjacency[flat]]
    segment = np.repeat(np.arange(block.shape[0], dtype=np.int64), lengths)

    # (segment, label) runs: counts plus first-occurrence order (the stable
    # sort preserves adjacency order within a run, which is the per-node
    # scan's tie enumeration order).
    key = segment * n + neighbor_labels
    sorter = np.argsort(key, kind="stable")
    run_starts, run_counts, run_segment, run_label, seg_starts, best_count = (
        _label_runs(key[sorter], n)
    )
    run_first = sorter[run_starts]  # global first-occurrence rank

    tied = run_counts == np.repeat(best_count, np.diff(np.append(seg_starts, run_segment.shape[0])))
    num_tied = np.add.reduceat(tied.astype(np.int64), seg_starts)

    choice = np.empty(block.shape[0], dtype=np.int64)
    single = num_tied == 1
    if single.any():
        # The unique best run per single-winner segment, via a masked max
        # over run labels (tied runs only).
        masked = np.where(tied, run_label, -1)
        seg_best_label = np.maximum.reduceat(masked, seg_starts)
        choice[single] = seg_best_label[single]
    multi = np.nonzero(~single)[0]
    if multi.shape[0]:
        # Tie groups ordered by first occurrence; one batched draw per
        # segment, in segment (= sweep-position) order like the scan.
        tie_idx = np.nonzero(tied)[0]
        tie_seg = run_segment[tie_idx]
        keep = ~single[tie_seg]
        tie_idx = tie_idx[keep]
        tie_seg = tie_seg[keep]
        tie_order = np.lexsort((run_first[tie_idx], tie_seg))
        tie_idx = tie_idx[tie_order]
        tie_seg = tie_seg[tie_order]
        group_mask = np.empty(tie_seg.shape[0], dtype=bool)
        group_mask[0] = True
        group_mask[1:] = tie_seg[1:] != tie_seg[:-1]
        group_starts = np.nonzero(group_mask)[0]
        highs = num_tied[multi]
        draws = rng.integers(0, highs)
        choice[multi] = run_label[tie_idx[group_starts + draws]]

    labels[block] = choice


def _is_settled(
    labels: np.ndarray, owner: np.ndarray, adjacency: np.ndarray, n: int
) -> bool:
    """Whether every node's label is among its neighbours' most frequent.

    ``owner``/``adjacency`` are the flat (node, neighbour) pairs.  Counts
    every (node, neighbour label) pair, then compares each node's largest
    count with the count of its own label; nodes without neighbours pass.
    """
    if owner.shape[0] == 0:
        return True
    key = owner * n + labels[adjacency]
    key.sort()
    _, run_counts, run_owner, run_label, seg_starts, best_count = _label_runs(key, n)
    own_count = np.maximum.reduceat(
        np.where(run_label == labels[run_owner], run_counts, 0), seg_starts
    )
    return bool(np.array_equal(own_count, best_count))


def _label_runs(sorted_key: np.ndarray, n: int) -> Tuple[np.ndarray, ...]:
    """Runs of equal ``segment * n + label`` keys in a sorted key array.

    Returns ``(run_starts, run_counts, run_segment, run_label, seg_starts,
    best_count)``: each run's start and length, its segment and label, the
    first run of each segment, and each segment's largest run length
    (every segment has at least one run).
    """
    run_start_mask = np.empty(sorted_key.shape[0], dtype=bool)
    run_start_mask[0] = True
    run_start_mask[1:] = sorted_key[1:] != sorted_key[:-1]
    run_starts = np.nonzero(run_start_mask)[0]
    run_counts = np.diff(np.append(run_starts, sorted_key.shape[0]))
    run_label = sorted_key[run_starts] % n
    run_segment = sorted_key[run_starts] // n
    seg_start_mask = np.empty(run_segment.shape[0], dtype=bool)
    seg_start_mask[0] = True
    seg_start_mask[1:] = run_segment[1:] != run_segment[:-1]
    seg_starts = np.nonzero(seg_start_mask)[0]
    best_count = np.maximum.reduceat(run_counts, seg_starts)
    return run_starts, run_counts, run_segment, run_label, seg_starts, best_count


def partition_sizes(labels: Mapping[Node, int]) -> Dict[int, int]:
    """Community id -> member count."""
    sizes: Counter = Counter(labels.values())
    return dict(sizes)


def modularity(graph: Graph, labels: Mapping[Node, int]) -> float:
    """Newman modularity of a partition (0.0 for an edgeless graph)."""
    m = graph.num_edges
    if m == 0:
        return 0.0
    internal: Counter = Counter()
    degree_sums: Counter = Counter()
    for node in graph.nodes():
        degree_sums[labels[node]] += graph.degree(node)
    for u, v in graph.edges():
        if labels[u] == labels[v]:
            internal[labels[u]] += 1
    score = 0.0
    for community, degree_sum in degree_sums.items():
        score += internal.get(community, 0) / m - (degree_sum / (2.0 * m)) ** 2
    return score


def normalized_mutual_information(
    labels_a: Mapping[Hashable, int], labels_b: Mapping[Hashable, int]
) -> float:
    """NMI between two partitions of the same element set, in [0, 1].

    Uses arithmetic-mean normalisation ``2·I / (H_a + H_b)``.  Returns 1.0
    when both partitions are trivial in the same way (both single-cluster
    or both all-singletons over identical elements); raises ``ValueError``
    when the element sets differ.
    """
    if labels_a.keys() != labels_b.keys():
        raise ValueError("partitions must cover the same element set")
    n = len(labels_a)
    if n == 0:
        return 1.0

    joint: Counter = Counter()
    count_a: Counter = Counter()
    count_b: Counter = Counter()
    for element, a in labels_a.items():
        b = labels_b[element]
        joint[(a, b)] += 1
        count_a[a] += 1
        count_b[b] += 1

    def entropy(counts: Counter) -> float:
        return -sum((c / n) * math.log(c / n) for c in counts.values() if c)

    h_a = entropy(count_a)
    h_b = entropy(count_b)
    if h_a == 0.0 and h_b == 0.0:
        # both trivial: identical iff the (single) clusterings agree, which
        # they do by construction over the same elements
        return 1.0
    mutual = 0.0
    for (a, b), c in joint.items():
        mutual += (c / n) * math.log(c * n / (count_a[a] * count_b[b]))
    return max(0.0, min(1.0, 2.0 * mutual / (h_a + h_b)))
