"""Multiprocess walk fan-out and the shared pool context.

:func:`parallel_walk_matrix` runs the batched node2vec walk engine across
processes.  Workers do not receive the :class:`Graph` at all: the pool
initializer ships the two flat CSR arrays (``indptr`` and ``indices``)
exactly once, and each worker runs
:func:`repro.graph.kernels.walk_epoch_matrix` for a slice of epochs.
Epochs are independent given their child seeds (one per epoch, drawn by
the caller before any stepping), so the parent stacks the blocks in
epoch order and concurrent output is bit-identical to serial output —
the same determinism contract as the service's process mode.

:func:`_pool_context` is the one start-method choice for every process
pool in the package (this fan-out, the sharded runner and the service's
process engine): ``fork`` where the platform offers it (cheapest — the
arrays are inherited copy-on-write), falling back to ``spawn`` elsewhere
(macOS, Windows), where the arrays are pickled once per worker.
"""

from __future__ import annotations

import multiprocessing
from typing import List, Optional, Tuple

import numpy as np

from repro.graph.csr import CSRAdjacency
from repro.graph.kernels import walk_epoch_matrix
from repro.rng import ensure_rng

__all__ = ["parallel_walk_matrix"]

# Module-level worker state: set once per worker via the pool initializer
# so the CSR arrays are shipped a single time rather than per task.
_WORKER_CSR: Optional[Tuple[np.ndarray, np.ndarray]] = None


def _init_worker(indptr: np.ndarray, indices: np.ndarray) -> None:
    global _WORKER_CSR
    _WORKER_CSR = (indptr, indices)


def _worker_snapshot() -> CSRAdjacency:
    assert _WORKER_CSR is not None, "worker initialised without CSR arrays"
    indptr, indices = _WORKER_CSR
    # Kernels only touch indptr/indices; labels are resolved in the parent.
    n = indptr.shape[0] - 1
    return CSRAdjacency(
        indptr=indptr, indices=indices, labels=list(range(n)), index_of={}
    )


def _split(values: np.ndarray, chunks: int) -> List[np.ndarray]:
    size = max(1, (len(values) + chunks - 1) // chunks)
    return [values[i : i + size] for i in range(0, len(values), size)]


def _pool_context() -> multiprocessing.context.BaseContext:
    """Fork where available (cheap COW inheritance), spawn elsewhere."""
    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    return multiprocessing.get_context(method)


def _walk_epoch_chunk(args: Tuple[List[int], int, float, float]) -> np.ndarray:
    """Run a slice of walk epochs in a worker; rows stack in epoch order."""
    epoch_seeds, walk_length, p, q = args
    csr = _worker_snapshot()
    return np.vstack(
        [
            walk_epoch_matrix(csr, ensure_rng(int(seed)), walk_length, p=p, q=q)
            for seed in epoch_seeds
        ]
    )


def parallel_walk_matrix(
    csr: CSRAdjacency,
    epoch_seeds: np.ndarray,
    walk_length: int,
    p: float = 1.0,
    q: float = 1.0,
    num_workers: int = 2,
) -> np.ndarray:
    """Batched node2vec epochs across processes, bit-identical to serial.

    ``epoch_seeds`` carries one integer child seed per epoch (see
    :func:`repro.embedding.walks.generate_walk_matrix`, which draws them
    from the caller's generator up front).  Each worker advances its
    epochs with :func:`repro.graph.kernels.walk_epoch_matrix` over the
    initializer-shipped CSR arrays; every epoch consumes only its own
    seed's stream, so the stacked result does not depend on how epochs
    are sliced across workers.
    """
    if num_workers < 1:
        raise ValueError(f"num_workers must be >= 1, got {num_workers}")
    seeds = [int(seed) for seed in np.asarray(epoch_seeds).ravel()]
    if num_workers == 1 or len(seeds) <= 1:
        return _run_epochs_serial(csr, seeds, walk_length, p, q)
    chunks = _split(np.asarray(seeds, dtype=np.int64), num_workers)
    context = _pool_context()
    with context.Pool(
        processes=min(num_workers, len(chunks)),
        initializer=_init_worker,
        initargs=(csr.indptr, csr.indices),
    ) as pool:
        blocks = pool.map(
            _walk_epoch_chunk,
            [(chunk.tolist(), walk_length, p, q) for chunk in chunks],
        )
    return np.vstack(blocks)


def _run_epochs_serial(
    csr: CSRAdjacency, seeds: List[int], walk_length: int, p: float, q: float
) -> np.ndarray:
    return np.vstack(
        [
            walk_epoch_matrix(csr, ensure_rng(seed), walk_length, p=p, q=q)
            for seed in seeds
        ]
    )
