"""High-level Node2Vec model: walks -> skip-gram -> per-label embeddings.

Wires the walk generator and SGNS trainer behind one call, keeping the
label <-> integer-id mapping consistent with the graph's CSR order.

The dense walk matrix from :func:`repro.embedding.walks.generate_walk_matrix`
feeds the mini-batched trainer directly (no list materialisation).
``workers > 1`` fans walk epochs out across processes with bit-identical
output (see :func:`repro.graph.parallel.parallel_walk_matrix`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.errors import EmbeddingError
from repro.embedding.skipgram import train_skipgram
from repro.embedding.walks import generate_walk_matrix
from repro.graph.graph import Graph, Node
from repro.rng import RandomState, ensure_rng

__all__ = ["Node2VecModel", "node2vec_embed"]


@dataclass(frozen=True)
class Node2VecModel:
    """Trained embeddings plus the label mapping used to index them.

    ``walk_seconds``/``sgns_seconds`` record the two pipeline stages'
    wall-clock cost (surfaced by ``repro-shed evaluate --json``).
    """

    embeddings: np.ndarray
    labels: List[Node]
    index_of: Dict[Node, int]
    walk_seconds: float = 0.0
    sgns_seconds: float = 0.0

    def vector(self, node: Node) -> np.ndarray:
        """Embedding vector for an original node label."""
        return self.embeddings[self.index_of[node]]


def node2vec_embed(
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
    """Train node2vec embeddings for every node in ``graph``.

    Defaults follow the paper's link-prediction setup (``p = q = 1``);
    the remaining hyperparameters are scaled for laptop-class runs.
    """
    rng = ensure_rng(seed)
    csr = graph.csr()
    start = time.perf_counter()
    walks = generate_walk_matrix(
        graph,
        num_walks=num_walks,
        walk_length=walk_length,
        p=p,
        q=q,
        seed=rng,
        workers=workers,
    )
    walk_seconds = time.perf_counter() - start
    if walks.shape[0] == 0:
        raise EmbeddingError("cannot train on an empty walk corpus")
    start = time.perf_counter()
    embeddings = train_skipgram(
        walks,
        num_nodes=csr.num_nodes,
        dimensions=dimensions,
        window=window,
        negatives=negatives,
        epochs=epochs,
        seed=rng,
    )
    sgns_seconds = time.perf_counter() - start
    return Node2VecModel(
        embeddings=embeddings,
        labels=csr.labels,
        index_of=csr.index_of,
        walk_seconds=walk_seconds,
        sgns_seconds=sgns_seconds,
    )
