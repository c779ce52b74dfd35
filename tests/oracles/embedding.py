"""Scalar oracles for the embedding pipeline: walks, SGNS and node2vec.

The per-step node2vec walker and the per-center SGNS trainer that the
batched engines in :mod:`repro.embedding` replaced.  The two consume the
RNG differently from the batched engines, so tests compare them
statistically (transition frequencies, link-prediction utility).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.embedding.node2vec import Node2VecModel
from repro.embedding.skipgram import _sigmoid
from repro.embedding.walks import _validate
from repro.errors import EmbeddingError
from repro.graph.csr import CSRAdjacency
from repro.graph.graph import Graph
from repro.rng import RandomState, ensure_rng

__all__ = [
    "_legacy_generate_walks",
    "_legacy_train_skipgram",
    "legacy_node2vec_embed",
    "legacy_train_skipgram",
]


def _legacy_generate_walks(
    graph: Graph,
    num_walks: int = 10,
    walk_length: int = 40,
    p: float = 1.0,
    q: float = 1.0,
    seed: RandomState = None,
) -> List[List[int]]:
    """Scalar per-step walker — the batched engine's statistical oracle."""
    _validate(num_walks, walk_length, p, q)
    rng = ensure_rng(seed)
    csr = graph.csr()
    uniform = p == 1.0 and q == 1.0
    walks: List[List[int]] = []

    starts = [node for node in range(csr.num_nodes) if len(csr.neighbors(node)) > 0]
    for _ in range(num_walks):
        for start in starts:
            walk = [start]
            while len(walk) < walk_length:
                current = walk[-1]
                neighbors = csr.neighbors(current)
                if neighbors.size == 0:
                    break
                if uniform or len(walk) < 2:
                    nxt = int(neighbors[int(rng.integers(neighbors.size))])
                else:
                    nxt = _biased_step(csr, walk[-2], current, neighbors, p, q, rng)
                walk.append(nxt)
            walks.append(walk)
    return walks


def _biased_step(
    csr: CSRAdjacency,
    previous: int,
    current: int,
    neighbors: np.ndarray,
    p: float,
    q: float,
    rng: np.random.Generator,
) -> int:
    """One second-order step: bias by return/in-out distance to ``previous``."""
    previous_neighbors = csr.neighbors(previous)
    weights = np.empty(neighbors.size, dtype=np.float64)
    for i, candidate in enumerate(neighbors):
        if candidate == previous:
            weights[i] = 1.0 / p
        elif _binary_contains(previous_neighbors, candidate):
            weights[i] = 1.0
        else:
            weights[i] = 1.0 / q
    weights /= weights.sum()
    return int(neighbors[rng.choice(neighbors.size, p=weights)])


def _binary_contains(sorted_array: np.ndarray, value: int) -> bool:
    index = int(np.searchsorted(sorted_array, value))
    return index < sorted_array.size and sorted_array[index] == value


def _legacy_train_skipgram(
    walks: Sequence[Sequence[int]],
    num_nodes: int,
    dimensions: int = 32,
    window: int = 5,
    negatives: int = 5,
    epochs: int = 2,
    learning_rate: float = 0.025,
    seed: RandomState = None,
) -> np.ndarray:
    """Per-center sequential SGNS — the mini-batched engine's oracle."""
    rng = ensure_rng(seed)
    embeddings = (rng.random((num_nodes, dimensions)) - 0.5) / dimensions
    context = np.zeros((num_nodes, dimensions), dtype=np.float64)

    # Unigram^0.75 negative-sampling table.
    frequency = np.zeros(num_nodes, dtype=np.float64)
    for walk in walks:
        for node in walk:
            if not 0 <= node < num_nodes:
                raise EmbeddingError(f"walk contains out-of-range node id {node}")
            frequency[node] += 1.0
    noise = frequency**0.75
    noise_total = noise.sum()
    if noise_total == 0:
        raise EmbeddingError("walk corpus is empty of nodes")
    noise /= noise_total

    for epoch in range(epochs):
        rate = learning_rate * (1.0 - epoch / max(epochs, 1)) + 1e-4
        for walk in walks:
            length = len(walk)
            for position, center in enumerate(walk):
                lo = max(0, position - window)
                hi = min(length, position + window + 1)
                positives = [walk[i] for i in range(lo, hi) if i != position]
                if not positives:
                    continue
                positive_ids = np.asarray(positives, dtype=np.int64)
                negative_ids = rng.choice(
                    num_nodes, size=negatives * len(positives), p=noise
                )
                targets = np.concatenate([positive_ids, negative_ids])
                labels = np.zeros(targets.size, dtype=np.float64)
                labels[: positive_ids.size] = 1.0

                center_vector = embeddings[center]
                target_vectors = context[targets]
                scores = _sigmoid(target_vectors @ center_vector)
                gradient = (labels - scores) * rate  # shape (targets,)
                center_update = gradient @ target_vectors
                # Accumulate context updates; np.add.at handles repeats.
                np.add.at(context, targets, gradient[:, None] * center_vector[None, :])
                embeddings[center] += center_update
    return embeddings


def legacy_train_skipgram(
    walks,
    num_nodes: int,
    dimensions: int = 32,
    window: int = 5,
    negatives: int = 5,
    epochs: int = 2,
    learning_rate: float = 0.025,
    seed: RandomState = None,
) -> np.ndarray:
    """:func:`repro.embedding.train_skipgram`'s contract on the per-center loop.

    Same argument checks; a dense walk matrix is trained as its rows with
    the ``-1`` padding dropped.
    """
    if num_nodes < 1:
        raise EmbeddingError(f"num_nodes must be >= 1, got {num_nodes}")
    if dimensions < 1:
        raise EmbeddingError(f"dimensions must be >= 1, got {dimensions}")
    if window < 1:
        raise EmbeddingError(f"window must be >= 1, got {window}")
    if negatives < 0:
        raise EmbeddingError(f"negatives must be >= 0, got {negatives}")
    if len(walks) == 0:
        raise EmbeddingError("cannot train on an empty walk corpus")
    if isinstance(walks, np.ndarray):
        walks = [[node for node in row if node >= 0] for row in walks.tolist()]
    return _legacy_train_skipgram(
        walks,
        num_nodes,
        dimensions=dimensions,
        window=window,
        negatives=negatives,
        epochs=epochs,
        learning_rate=learning_rate,
        seed=seed,
    )


def legacy_node2vec_embed(
    graph: Graph,
    dimensions: int = 32,
    num_walks: int = 10,
    walk_length: int = 40,
    window: int = 5,
    negatives: int = 5,
    epochs: int = 2,
    p: float = 1.0,
    q: float = 1.0,
    seed: RandomState = None,
    workers: Optional[int] = None,
) -> Node2VecModel:
    """:func:`repro.embedding.node2vec_embed` with the scalar walker and trainer.

    ``workers`` is accepted for call compatibility and ignored: the scalar
    walker runs serially.
    """
    rng = ensure_rng(seed)
    csr = graph.csr()
    walks = _legacy_generate_walks(
        graph, num_walks=num_walks, walk_length=walk_length, p=p, q=q, seed=rng
    )
    if not walks:
        raise EmbeddingError("cannot train on an empty walk corpus")
    embeddings = _legacy_train_skipgram(
        walks,
        csr.num_nodes,
        dimensions=dimensions,
        window=window,
        negatives=negatives,
        epochs=epochs,
        seed=rng,
    )
    return Node2VecModel(embeddings=embeddings, labels=csr.labels, index_of=csr.index_of)
