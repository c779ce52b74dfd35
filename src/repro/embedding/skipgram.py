"""Skip-gram with negative sampling (SGNS), pure numpy.

Trains node embeddings from random-walk corpora: every (center, context)
pair inside a sliding window is a positive example; negatives are drawn
from the unigram^0.75 distribution (the word2vec convention).

Training is mini-batched: the full (center, context) pair arrays are
built once from the walk matrix — one diagonal slice per window offset, no
per-window Python loop — then trained in shuffled mini-batches: negatives
are inverse-sampled from the noise distribution's cumsum in one draw per
batch, scores/gradients are computed for the whole batch, and both
embedding tables are updated with ``np.add.at`` scatters (duplicate
centers/targets within a batch accumulate).

The per-example gradient formula and the linearly-decayed learning rate
are word2vec's.  Only the update granularity differs from the per-center
loop (a mini-batch uses pre-batch parameters for every example in it), so
the tests compare the two statistically — the link-prediction task pins
end-to-end utility agreement.
"""

from __future__ import annotations

from typing import Sequence, Tuple, Union

import numpy as np

from repro.errors import EmbeddingError
from repro.rng import RandomState, ensure_rng

__all__ = ["train_skipgram", "build_skipgram_pairs"]

WalkCorpus = Union[Sequence[Sequence[int]], np.ndarray]


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # Clip to keep exp() in range; gradients saturate there anyway.
    return 1.0 / (1.0 + np.exp(-np.clip(x, -30.0, 30.0)))


def _scatter_rows(table: np.ndarray, rows: np.ndarray, updates: np.ndarray) -> None:
    """``table[rows] += updates`` with duplicate rows accumulated.

    The mini-batch scatter: ``np.add.at`` for batches small relative to
    the table, flattened ``np.bincount`` otherwise — ``add.at``'s buffered
    inner loop is an order of magnitude slower per element (the same
    adaptive switch as :func:`repro.graph.kernels._scatter_add`).
    """
    if rows.shape[0] * 4 < table.shape[0]:
        np.add.at(table, rows, updates)
        return
    dimensions = table.shape[1]
    flat = rows[:, None] * dimensions + np.arange(dimensions)[None, :]
    table += np.bincount(
        flat.ravel(), weights=updates.ravel(), minlength=table.size
    ).reshape(table.shape)


def _as_walk_matrix(walks: WalkCorpus) -> np.ndarray:
    """Walk corpus as a dense ``int64[W, L]`` matrix, padded with ``-1``.

    The batched walk generator already produces the matrix (all rows full
    length); list-of-lists corpora are right-padded so the pair builder can
    slice diagonally.
    """
    if isinstance(walks, np.ndarray):
        if walks.ndim != 2:
            raise EmbeddingError(f"walk matrix must be 2-D, got shape {walks.shape}")
        return walks.astype(np.int64, copy=False)
    lengths = [len(walk) for walk in walks]
    matrix = np.full((len(lengths), max(lengths, default=0)), -1, dtype=np.int64)
    for row, walk in enumerate(walks):
        matrix[row, : lengths[row]] = walk
    # Negative cells must all be padding; a negative *node id* in the
    # input would otherwise masquerade as padding.
    if int((matrix < 0).sum()) != matrix.size - sum(lengths):
        raise EmbeddingError(f"walk contains out-of-range node id {int(matrix.min())}")
    return matrix


def build_skipgram_pairs(
    walks: WalkCorpus, window: int
) -> Tuple[np.ndarray, np.ndarray]:
    """All ordered (center, context) pairs within ``window``, as flat arrays.

    For each offset ``d = 1..window``, the pair ``(walk[i], walk[i + d])``
    is emitted in both directions — exactly the multiset the per-position
    sliding-window loop produces.  Padding entries (``-1``) never pair.
    """
    if window < 1:
        raise EmbeddingError(f"window must be >= 1, got {window}")
    matrix = _as_walk_matrix(walks)
    centers = []
    contexts = []
    for offset in range(1, min(window, matrix.shape[1] - 1) + 1):
        left = matrix[:, :-offset].ravel()
        right = matrix[:, offset:].ravel()
        valid = (left >= 0) & (right >= 0)
        left, right = left[valid], right[valid]
        centers.append(left)
        contexts.append(right)
        centers.append(right)
        contexts.append(left)
    if not centers:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    return np.concatenate(centers), np.concatenate(contexts)


def train_skipgram(
    walks: WalkCorpus,
    num_nodes: int,
    dimensions: int = 32,
    window: int = 5,
    negatives: int = 5,
    epochs: int = 2,
    learning_rate: float = 0.025,
    seed: RandomState = None,
    batch_size: int = 1024,
) -> np.ndarray:
    """Train SGNS embeddings; returns ``float64[num_nodes, dimensions]``.

    ``walks`` may be a list of id lists or a dense walk matrix from
    :func:`repro.embedding.walks.generate_walk_matrix`.  Nodes that never
    appear in ``walks`` keep their small random initialisation (they
    carry no signal either way).
    """
    if num_nodes < 1:
        raise EmbeddingError(f"num_nodes must be >= 1, got {num_nodes}")
    if dimensions < 1:
        raise EmbeddingError(f"dimensions must be >= 1, got {dimensions}")
    if window < 1:
        raise EmbeddingError(f"window must be >= 1, got {window}")
    if negatives < 0:
        raise EmbeddingError(f"negatives must be >= 0, got {negatives}")
    if batch_size < 1:
        raise EmbeddingError(f"batch_size must be >= 1, got {batch_size}")
    if len(walks) == 0:
        raise EmbeddingError("cannot train on an empty walk corpus")

    matrix = _as_walk_matrix(walks)
    present = matrix[matrix >= 0]
    if present.size and int(present.max()) >= num_nodes:
        raise EmbeddingError(
            f"walk contains out-of-range node id {int(present.max())}"
        )

    rng = ensure_rng(seed)
    embeddings = (rng.random((num_nodes, dimensions)) - 0.5) / dimensions
    context = np.zeros((num_nodes, dimensions), dtype=np.float64)

    # Unigram^0.75 negative-sampling distribution, as a cumsum so a batch
    # of negatives is one uniform draw + one searchsorted.
    frequency = np.bincount(present, minlength=num_nodes).astype(np.float64)
    noise = frequency**0.75
    noise_total = noise.sum()
    if noise_total == 0:
        raise EmbeddingError("walk corpus is empty of nodes")
    noise_cdf = np.cumsum(noise / noise_total)

    pair_centers, pair_contexts = build_skipgram_pairs(matrix, window)
    num_pairs = pair_centers.shape[0]
    if num_pairs == 0:
        return embeddings
    # A mini-batch applies every example against pre-batch parameters, so
    # an epoch needs enough batches for the SGD dynamics to develop: on a
    # tiny corpus one corpus-sized batch collapses all vectors onto a
    # common direction.  Cap the batch at ~1/8 of the pair set.
    effective_batch = max(1, min(batch_size, num_pairs // 8 or 1))

    for epoch in range(epochs):
        rate = learning_rate * (1.0 - epoch / max(epochs, 1)) + 1e-4
        order = rng.permutation(num_pairs)
        for lo in range(0, num_pairs, effective_batch):
            batch = order[lo : lo + effective_batch]
            centers = pair_centers[batch]
            positives = pair_contexts[batch]
            size = centers.shape[0]
            if negatives:
                draws = rng.random(size * negatives)
                sampled = np.searchsorted(noise_cdf, draws, side="right")
                np.minimum(sampled, num_nodes - 1, out=sampled)
                targets = np.concatenate(
                    [positives[:, None], sampled.reshape(size, negatives)], axis=1
                )
            else:
                targets = positives[:, None]
            labels = np.zeros(targets.shape, dtype=np.float64)
            labels[:, 0] = 1.0

            center_vectors = embeddings[centers]  # (B, D)
            target_vectors = context[targets]  # (B, K, D)
            scores = _sigmoid(
                np.einsum("bd,bkd->bk", center_vectors, target_vectors)
            )
            gradient = (labels - scores) * rate  # (B, K)
            center_updates = np.einsum("bk,bkd->bd", gradient, target_vectors)
            context_updates = gradient[:, :, None] * center_vectors[:, None, :]
            # Scatter with accumulation: centers and targets repeat within
            # a batch; all updates use pre-batch parameters.
            _scatter_rows(embeddings, centers, center_updates)
            _scatter_rows(
                context, targets.ravel(), context_updates.reshape(-1, dimensions)
            )
    return embeddings
