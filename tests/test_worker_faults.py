"""Fault injection: a pool worker killed mid-job fails its jobs, never hangs.

One test per process fan-out — the service's process engine, the sharded
runner and the walk fan-out — each SIGKILLs a worker while it runs a job,
and one more kills the service's worker while it is idle.  Each scenario
runs in a thread joined with a timeout, and its own waits are bounded
too, so a regression to a hang fails the test instead of stalling the
suite.

The shard and walk tests swap the module's job function for one that
kills its own worker on the chosen payload; forked workers inherit the
swap, so exactly that job's worker dies mid-job.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

import repro.graph.parallel as parallel
import repro.shard.runner as runner
from repro.graph import powerlaw_cluster
from repro.graph.parallel import parallel_walk_matrix
from repro.service import JobStatus, ReductionRequest, SheddingService
from repro.shard import ShardedShedder, partition_graph

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the job swap reaches workers by fork inheritance",
)

#: The payload whose worker kills itself, set before the pool forks.
_DOOMED = {}
_SHARD_JOB = runner._shard_job
_WALK_CHUNK = parallel._walk_epoch_chunk


def _shard_job_killing_one(payload):
    if np.array_equal(payload[0], _DOOMED["node_ids"]):
        os.kill(os.getpid(), signal.SIGKILL)
    return _SHARD_JOB(payload)


def _walk_chunk_killing_one(args):
    if args[0] == _DOOMED["epoch_seeds"]:
        os.kill(os.getpid(), signal.SIGKILL)
    return _WALK_CHUNK(args)


def _bounded(scenario, timeout=90.0):
    """Run ``scenario`` in a thread and re-raise what it raised; fail if it
    is still blocked after ``timeout`` seconds (its cleanup included)."""
    errors = []

    def target():
        try:
            scenario()
        except BaseException as error:  # re-raised in the test's own thread
            errors.append(error)

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), f"still blocked {timeout:.0f}s after a worker died"
    if errors:
        raise errors[0]


def _wait_for(condition, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition not met in time"
        time.sleep(0.01)


class TestServiceWorkerDeath:
    def test_job_in_flight_fails_and_service_recovers(self):
        graph = powerlaw_cluster(6000, 4, 0.1, seed=1)
        before = set(multiprocessing.active_children())

        def scenario():
            with SheddingService(mode="process", num_workers=1) as service:
                (worker,) = set(multiprocessing.active_children()) - before
                handle = service.submit(ReductionRequest(graph=graph, method="crr", p=0.5))
                _wait_for(lambda: handle.status is JobStatus.RUNNING)
                time.sleep(0.5)  # the reduction takes seconds; let the worker start it
                assert not handle.done()
                os.kill(worker.pid, signal.SIGKILL)

                failed = handle.result(timeout=30)
                assert failed.status is JobStatus.FAILED
                assert "crr" in failed.error and "p=0.5" in failed.error
                assert service.ledger.in_use == 0

                quick = ReductionRequest(graph=graph, method="crr", p=0.5, num_sources=8)
                assert service.submit(quick).result(timeout=60).status is JobStatus.COMPLETED
                assert service.metrics_snapshot()["process_pool"] == {
                    "abandoned_tasks": 0,
                    "rebuilds": 1,
                }

        _bounded(scenario)
        assert set(multiprocessing.active_children()) == before

    def test_idle_worker_death_costs_no_job(self):
        graph = powerlaw_cluster(300, 3, 0.1, seed=1)
        before = set(multiprocessing.active_children())

        def scenario():
            with SheddingService(mode="process", num_workers=1) as service:
                (worker,) = set(multiprocessing.active_children()) - before
                os.kill(worker.pid, signal.SIGKILL)
                _wait_for(lambda: service._engine._pool._broken)

                request = ReductionRequest(graph=graph, method="bm2", p=0.5, seed=2)
                assert service.submit(request).result(timeout=60).status is JobStatus.COMPLETED
                assert service.metrics_snapshot()["process_pool"]["rebuilds"] == 1
                assert service.ledger.in_use == 0

        _bounded(scenario)


@needs_fork
class TestShardWorkerDeath:
    def test_dead_shard_worker_names_its_shard(self, monkeypatch):
        graph = powerlaw_cluster(3000, 4, 0.1, seed=1)
        plan = partition_graph(graph, 2, method="community", seed=1)
        monkeypatch.setitem(_DOOMED, "node_ids", plan.shards[1].node_ids)
        monkeypatch.setattr(runner, "_shard_job", _shard_job_killing_one)
        shedder = ShardedShedder(
            method="crr", num_shards=2, num_workers=2, num_betweenness_sources=8, seed=1
        )

        def scenario():
            with pytest.raises(BrokenProcessPool, match="shard 1"):
                shedder.reduce(graph, 0.5)

        _bounded(scenario)


@needs_fork
class TestWalkWorkerDeath:
    def test_dead_walk_worker_names_its_epoch_chunk(self, monkeypatch):
        csr = powerlaw_cluster(300, 3, 0.1, seed=0).csr()
        seeds = np.arange(100, 108)
        monkeypatch.setitem(_DOOMED, "epoch_seeds", seeds[4:].tolist())
        monkeypatch.setattr(parallel, "_walk_epoch_chunk", _walk_chunk_killing_one)

        def scenario():
            with pytest.raises(BrokenProcessPool, match="epoch chunk 1"):
                parallel_walk_matrix(csr, seeds, 10, num_workers=2)

        _bounded(scenario)
