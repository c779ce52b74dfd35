"""Biased second-order random walks (node2vec).

The paper's link-prediction task embeds nodes with node2vec at
``p = q = 1`` — which degenerates to uniform first-order walks — but we
implement the full second-order bias so the return (``p``) and in-out
(``q``) parameters are available, matching the reference algorithm
(Grover & Leskovec, KDD 2016).

Walks run batched (:func:`repro.graph.kernels.walk_epoch_matrix`): all
walks of an epoch advance one step per numpy operation over the cached CSR
snapshot — a uniform fast path at ``p == q == 1`` and a vectorised
second-order step (global ``searchsorted`` membership test against the
previous node's sorted adjacency, per-segment cumsum inverse sampling)
otherwise.  ``workers > 1`` fans the epochs out across processes via
:func:`repro.graph.parallel.parallel_walk_matrix`.

Determinism contract: one child seed per epoch is derived from the
caller's generator *before* any stepping, and each epoch consumes only its
own child stream — so ``workers=N`` output is bit-identical to serial
output, and a fixed integer seed yields a bit-identical walk matrix
everywhere.  A per-step scalar walker consumes the RNG differently and so
produces *different* (equally distributed) walks for the same seed; the
tests compare the two on per-edge transition frequencies.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.errors import EmbeddingError
from repro.graph.graph import Graph
from repro.graph.kernels import walk_epoch_matrix
from repro.rng import RandomState, ensure_rng

__all__ = ["generate_walks", "generate_walk_matrix"]


def _validate(num_walks: int, walk_length: int, p: float, q: float) -> None:
    if num_walks < 1:
        raise EmbeddingError(f"num_walks must be >= 1, got {num_walks}")
    if walk_length < 1:
        raise EmbeddingError(f"walk_length must be >= 1, got {walk_length}")
    if p <= 0 or q <= 0:
        raise EmbeddingError(f"p and q must be positive, got p={p}, q={q}")


def generate_walks(
    graph: Graph,
    num_walks: int = 10,
    walk_length: int = 40,
    p: float = 1.0,
    q: float = 1.0,
    seed: RandomState = None,
    workers: Optional[int] = None,
) -> List[List[int]]:
    """Generate ``num_walks`` walks from every node with degree >= 1.

    Returns walks over *integer node ids* (CSR order); pair them with
    :class:`CSRAdjacency.labels` to recover original labels.  Isolated
    nodes produce no walks (they have no transitions and contribute no
    skip-gram pairs anyway).  The list form of
    :func:`generate_walk_matrix`; ``workers > 1`` parallelises epochs
    across processes with bit-identical output.
    """
    return generate_walk_matrix(
        graph,
        num_walks=num_walks,
        walk_length=walk_length,
        p=p,
        q=q,
        seed=seed,
        workers=workers,
    ).tolist()


def generate_walk_matrix(
    graph: Graph,
    num_walks: int = 10,
    walk_length: int = 40,
    p: float = 1.0,
    q: float = 1.0,
    seed: RandomState = None,
    workers: Optional[int] = None,
) -> np.ndarray:
    """Batched walk corpus as one dense matrix ``int64[W, walk_length]``.

    Rows are ordered epoch-major (epoch 0's walks first), start-node-minor
    (ascending non-isolated node id).
    Every row is full length: in an undirected simple graph a walk that
    left a degree->=1 start always has a neighbour to continue to.

    This is the allocation-free input for the mini-batched SGNS trainer;
    :func:`generate_walks` wraps it when lists are wanted.
    """
    _validate(num_walks, walk_length, p, q)
    rng = ensure_rng(seed)
    csr = graph.csr()
    # One child seed per epoch, drawn before any stepping: the epoch
    # streams are independent of scheduling, so serial and parallel
    # fan-out produce bit-identical matrices.
    epoch_seeds = rng.integers(0, 2**63 - 1, size=num_walks, dtype=np.int64)
    starts = np.nonzero(csr.degree_array() > 0)[0].astype(np.int64)
    if starts.size == 0:
        return np.empty((0, walk_length), dtype=np.int64)
    if workers is not None and workers < 1:
        raise EmbeddingError(f"workers must be >= 1, got {workers}")
    if workers is not None and workers > 1 and num_walks > 1:
        from repro.graph.parallel import parallel_walk_matrix

        return parallel_walk_matrix(
            csr, epoch_seeds, walk_length, p=p, q=q, num_workers=workers
        )
    blocks = [
        walk_epoch_matrix(
            csr, ensure_rng(int(epoch_seed)), walk_length, p=p, q=q, starts=starts
        )
        for epoch_seed in epoch_seeds
    ]
    return np.vstack(blocks)
