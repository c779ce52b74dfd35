"""The package's one process pool, and the multiprocess walk fan-out.

:class:`WorkerPool` runs every process fan-out (this module's walks, the
sharded runner, the service's process engine).  It is a
:class:`~concurrent.futures.ProcessPoolExecutor`, so a worker that dies
fails the jobs it leaves unfinished instead of leaving the caller
waiting.  Given a CSR snapshot, its initializer ships the flat arrays
once per worker (read back by :func:`worker_snapshot`); workers never
receive the :class:`Graph`.  :func:`_pool_context` is the one start
method: ``fork`` where offered (the arrays are inherited copy-on-write),
else ``spawn`` (macOS, Windows; the arrays are pickled once per worker).

:func:`parallel_walk_matrix` runs chunks of node2vec epochs on the
workers.  Epochs are independent given their child seeds (drawn by the
caller before any stepping), so the parent stacks the blocks in epoch
order, bit-identical to serial output — the same determinism contract
as the service's process mode.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.graph.csr import CSRAdjacency
from repro.graph.kernels import walk_epoch_matrix
from repro.rng import ensure_rng

__all__ = ["WorkerPool", "parallel_walk_matrix", "worker_snapshot"]

# Worker state: the parent snapshot's arrays, set once per worker by the
# pool initializer.  The scan-order edge list rides along because shard
# workers rebuild views from it — the snapshot's lexicographic fallback
# would reorder shard edge scans and break serial/parallel bit-identity.
_WORKER_CSR: Tuple[np.ndarray, ...] = ()


def _init_worker(*arrays: np.ndarray) -> None:
    global _WORKER_CSR
    _WORKER_CSR = arrays


def worker_snapshot() -> CSRAdjacency:
    """The parent's CSR snapshot inside a worker, ids as labels and with
    the parent's scan order, so ``view_of`` builds the parent's views."""
    assert _WORKER_CSR, "worker initialised without CSR arrays"
    indptr, indices, edge_u, edge_v = _WORKER_CSR
    labels = list(range(indptr.shape[0] - 1))
    return CSRAdjacency(indptr, indices, labels, {}, {"edge_list_ids": (edge_u, edge_v)})


def _pool_context() -> multiprocessing.context.BaseContext:
    """Fork where available (cheap COW inheritance), spawn elsewhere."""
    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    return multiprocessing.get_context(method)


class WorkerPool(ProcessPoolExecutor):
    """A process pool whose dead workers fail the jobs they leave unfinished.

    ``context`` defaults to :func:`_pool_context`; with ``csr``, every
    worker holds that snapshot's arrays (see :func:`worker_snapshot`).
    """

    def __init__(self, num_workers: int, csr: Optional[CSRAdjacency] = None, context=None):
        initargs = () if csr is None else (csr.indptr, csr.indices, *csr.edge_list_ids())
        super().__init__(num_workers, context or _pool_context(), _init_worker, initargs)

    def map_jobs(self, function: Callable[[Any], Any], jobs: Dict[str, Any]) -> List[Any]:
        """``function`` over each payload of ``jobs`` (name → payload), in order.

        A job that raises re-raises here; a worker death raises one
        :class:`BrokenProcessPool` naming every job left unfinished.
        """
        futures = {name: self.submit(function, payload) for name, payload in jobs.items()}
        wait(futures.values())
        lost = [
            name for name, future in futures.items()
            if isinstance(future.exception(), BrokenProcessPool)
        ]
        if lost:
            raise BrokenProcessPool(f"a pool worker died; unfinished: {', '.join(lost)}")
        return [future.result() for future in futures.values()]

    def terminate(self) -> None:
        """End every worker now, running tasks included, then shut down.

        ``shutdown()`` alone waits for a running task, and no public call
        ends one before Python 3.14.  So the workers get SIGTERM first: the
        manager thread sees them exit, fails what they left and reaps them.
        """
        for process in list((self._processes or {}).values()):
            process.terminate()
        self.shutdown(cancel_futures=True)


def _walk_epoch_chunk(args: Tuple[List[int], int, float, float]) -> np.ndarray:
    """Run a chunk of walk epochs in a worker; rows stack in epoch order."""
    return _run_epochs_serial(worker_snapshot(), *args)


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
    chunk of epochs with :func:`repro.graph.kernels.walk_epoch_matrix`
    over the initializer-shipped CSR arrays; every epoch consumes only
    its own seed's stream, so the stacked result does not depend on how
    epochs are chunked.  A worker death raises :class:`BrokenProcessPool`
    naming the epoch chunks left unfinished.
    """
    if num_workers < 1:
        raise ValueError(f"num_workers must be >= 1, got {num_workers}")
    seeds = [int(seed) for seed in np.asarray(epoch_seeds).ravel()]
    if num_workers == 1 or len(seeds) <= 1:
        return _run_epochs_serial(csr, seeds, walk_length, p, q)
    chunks = np.array_split(seeds, min(num_workers, len(seeds)))
    jobs = {
        f"epoch chunk {i}": (chunk.tolist(), walk_length, p, q) for i, chunk in enumerate(chunks)
    }
    with WorkerPool(len(chunks), csr) as pool:
        return np.vstack(pool.map_jobs(_walk_epoch_chunk, jobs))


def _run_epochs_serial(
    csr: CSRAdjacency, seeds: List[int], walk_length: int, p: float, q: float
) -> np.ndarray:
    return np.vstack(
        [
            walk_epoch_matrix(csr, ensure_rng(seed), walk_length, p=p, q=q)
            for seed in seeds
        ]
    )
