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
    After each sweep, one more segment-count pass over the adjacency checks
    the stopping rule and gives each node its margin (own label's count
    minus the largest other count).  A later sweep skips every node whose
    margin provably keeps its label (:func:`_kept_labels`) and cuts blocks
    over the others only.

    Exactness notes: the result is the per-node scan's — shuffle the node
    list, then let each node count its neighbours' labels in
    ``graph.neighbors()`` order and draw among tied labels in
    first-occurrence order.  The per-sweep shuffle permutes an id array
    (the same ``Generator.shuffle`` draws as shuffling the node list), the
    flat adjacency is ``graph.neighbors()`` order (*not* the CSR's sorted
    slices; a graph built from edge ids reads it from its arrays) so tie
    candidates enumerate in first-occurrence order, and tie draws are
    batched through ``rng.integers(0, highs)`` — elementwise identical to
    one scalar draw per tied node in sweep order.  Kept and isolated nodes
    never draw.
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
    n = graph.num_nodes
    if n == 0:
        return np.empty(0, dtype=np.int64), 0, True
    degrees, adjacency = graph._neighbor_ids()
    indptr = np.concatenate(([0], np.cumsum(degrees)))
    owner = np.repeat(np.arange(n, dtype=np.int64), degrees)

    labels = np.arange(n, dtype=np.int64)
    order = np.arange(n, dtype=np.int64)
    position = np.empty(n, dtype=np.int64)
    resolve = has_neighbors = degrees > 0
    # reduceat needs non-empty slices: it reads an empty slice's next
    # entry instead, so only nodes with neighbours get a slice start.
    slice_starts = indptr[:-1][has_neighbors]

    sweeps = 0
    converged = False
    for sweeps in range(1, max_iterations + 1):
        rng.shuffle(order)
        if adjacency.shape[0] == 0:
            converged = True
            break
        position[order] = np.arange(n, dtype=np.int64)
        neighbor_pos = position[adjacency]
        earlier = neighbor_pos < position[owner]
        if sweeps > 1:
            resolve = has_neighbors & ~_kept_labels(margin, labels, earlier, adjacency, indptr)
            earlier &= resolve[adjacency]
        # Latest earlier-in-sweep position among each node's resolved
        # neighbours, then conflict-free blocks over the resolved nodes.
        latest_earlier = np.full(n, -1, dtype=np.int64)
        latest_earlier[has_neighbors] = np.maximum.reduceat(
            np.where(earlier, neighbor_pos, -1), slice_starts
        )
        run_pos = np.flatnonzero(resolve[order])
        run = order[run_pos]
        cuts = []
        block_start = -1
        for i, (t, prev) in enumerate(zip(run_pos.tolist(), latest_earlier[run].tolist())):
            if prev >= block_start:
                cuts.append(i)
                block_start = t
        for s, e in zip(cuts, cuts[1:] + [run.shape[0]]):
            _propagate_block(run[s:e], labels, adjacency, indptr, n, rng)
        # A sweep without changes passes this check too: every node chose
        # its label from the neighbourhood it still has.
        margin = _label_margins(labels, owner, adjacency, n)
        if margin.min() >= 0:
            converged = True
            break

    # Dense re-numbering in node insertion (= id) order.
    unique_labels, first_index = np.unique(labels, return_index=True)
    lut = np.empty(n, dtype=np.int64)
    lut[unique_labels[np.argsort(first_index, kind="stable")]] = np.arange(
        unique_labels.shape[0], dtype=np.int64
    )
    return lut[labels], sweeps, converged


def _kept_labels(
    margin: np.ndarray,
    labels: np.ndarray,
    earlier: np.ndarray,
    adjacency: np.ndarray,
    indptr: np.ndarray,
) -> np.ndarray:
    """The nodes whose label provably survives this sweep, as a mask.

    x is kept when ``margin(x) > k(x) + k_own(x)``: ``k`` counts x's
    earlier-in-sweep neighbours that are not kept, ``k_own`` those of them
    labelled like x.  Each can take one count off x's label or add one to
    another, while later and (by induction) kept neighbours still hold
    theirs, so x's label stays the unique most frequent and x draws
    nothing.  Only earlier neighbours count, so the set is unique.
    """
    kept = margin > 0
    dropped = np.flatnonzero(~kept)
    cost = np.zeros(margin.shape[0], dtype=np.int64)
    while dropped.shape[0]:
        # Each dropped node counts in k (and k_own) of its later kept neighbours.
        flat, lengths = _runs_of(dropped, indptr)
        later = ~earlier[flat] & kept[adjacency[flat]]
        x, y = adjacency[flat][later], np.repeat(dropped, lengths)[later]
        np.add.at(cost, x, 1 + (labels[x] == labels[y]))
        dropped = np.unique(x[margin[x] <= cost[x]])
        kept[dropped] = False
    return kept


def _runs_of(nodes: np.ndarray, indptr: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The flat adjacency positions of ``nodes``' runs, and the run lengths."""
    starts = indptr[nodes]
    lengths = indptr[nodes + 1] - starts
    offsets = np.cumsum(lengths) - lengths
    flat = np.arange(int(lengths.sum()), dtype=np.int64) + np.repeat(starts - offsets, lengths)
    return flat, lengths


def _propagate_block(
    block: np.ndarray,
    labels: np.ndarray,
    adjacency: np.ndarray,
    indptr: np.ndarray,
    n: int,
    rng,
) -> None:
    """Resolve one conflict-free block in place."""
    flat, lengths = _runs_of(block, indptr)
    segment = np.repeat(np.arange(block.shape[0], dtype=np.int64), lengths)

    # (segment, label) runs: counts plus first-occurrence order (the stable
    # sort preserves adjacency order within a run, which is the per-node
    # scan's tie enumeration order).
    key = segment * n + labels[adjacency[flat]]
    sorter = np.argsort(key, kind="stable")
    run_starts, run_counts, run_segment, run_label, seg_starts = _label_runs(key[sorter], n)
    tied = run_counts == np.maximum.reduceat(run_counts, seg_starts)[run_segment]
    num_tied = np.add.reduceat(tied.astype(np.int64), seg_starts)
    # The largest tied label: the choice wherever only one label is tied.
    choice = np.maximum.reduceat(np.where(tied, run_label, -1), seg_starts)
    multi = np.flatnonzero(num_tied > 1)
    if multi.shape[0]:
        # Tie groups ordered by first occurrence; one batched draw per
        # segment, in segment (= sweep-position) order like the scan.
        tie_idx = np.flatnonzero(tied & (num_tied > 1)[run_segment])
        tie_idx = tie_idx[np.lexsort((sorter[run_starts[tie_idx]], run_segment[tie_idx]))]
        highs = num_tied[multi]
        choice[multi] = run_label[tie_idx[np.cumsum(highs) - highs + rng.integers(0, highs)]]
    labels[block] = choice


def _label_margins(
    labels: np.ndarray, owner: np.ndarray, adjacency: np.ndarray, n: int
) -> np.ndarray:
    """``own - other`` per node over the flat (``owner``, ``adjacency``) pairs.

    ``own`` counts a node's neighbours labelled like it, ``other`` the most
    of any other label (0 if none).  Settled exactly when none is negative.
    """
    key = owner * n + labels[adjacency]
    key.sort()
    _, run_counts, run_owner, run_label, seg_starts = _label_runs(key, n)
    is_own = run_label == labels[run_owner]
    margin = np.zeros(n, dtype=np.int64)
    margin[run_owner[seg_starts]] = np.add.reduceat(
        np.where(is_own, run_counts, 0), seg_starts
    ) - np.maximum.reduceat(np.where(is_own, 0, run_counts), seg_starts)
    return margin


def _label_runs(sorted_key: np.ndarray, n: int) -> Tuple[np.ndarray, ...]:
    """Runs of equal ``segment * n + label`` keys in a sorted key array.

    Returns ``(run_starts, run_counts, run_segment, run_label,
    seg_starts)``: each run's start and length, its segment and label,
    and the first run of each segment.
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
    return run_starts, run_counts, run_segment, run_label, seg_starts


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
