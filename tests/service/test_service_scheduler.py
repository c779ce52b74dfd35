"""Scheduler ordering, worker lifecycle, and the process engine."""

import multiprocessing
import threading
import time

import pytest

from repro.errors import ServiceError
from repro.graph import powerlaw_cluster
from repro.graph.graph import Graph
from repro.service.request import JobHandle, JobStatus, ReductionRequest, make_shedder
from repro.service.scheduler import (
    JobTimeoutError,
    ProcessEngine,
    QueuedJob,
    Scheduler,
)


def _job(graph, sequence, priority=0, method="random"):
    request = ReductionRequest(graph=graph, method=method, p=0.5, priority=priority)
    return QueuedJob(
        request=request,
        graph=graph,
        method=method,
        handle=JobHandle(request),
        sequence=sequence,
        enqueued_at=time.perf_counter(),
    )


@pytest.fixture
def graph():
    g = Graph(nodes=range(10))
    for node in range(1, 10):
        g.add_edge(node, node // 2)
    return g


class TestQueueOrdering:
    def test_priority_then_fifo(self, graph):
        jobs = [
            _job(graph, sequence=0, priority=0),
            _job(graph, sequence=1, priority=5),
            _job(graph, sequence=2, priority=5),
            _job(graph, sequence=3, priority=1),
        ]
        assert sorted(jobs) == [jobs[1], jobs[2], jobs[3], jobs[0]]


class TestInlineScheduler:
    def test_runs_synchronously(self, graph):
        ran = []
        scheduler = Scheduler(runner=ran.append, inline=True)
        job = _job(graph, scheduler.next_sequence())
        scheduler.submit(job)
        assert ran == [job]
        assert scheduler.drain() is True


class TestThreadedScheduler:
    def test_executes_all_jobs(self, graph):
        done = []
        lock = threading.Lock()

        def runner(job):
            with lock:
                done.append(job.sequence)

        scheduler = Scheduler(runner=runner, num_workers=3)
        for _ in range(10):
            scheduler.submit(_job(graph, scheduler.next_sequence()))
        assert scheduler.drain(timeout=10.0)
        assert sorted(done) == list(range(10))
        scheduler.shutdown()

    def test_priority_order_with_single_worker(self, graph):
        order = []
        release = threading.Event()

        def runner(job):
            release.wait(5.0)
            order.append(job.request.priority)

        scheduler = Scheduler(runner=runner, num_workers=1)
        # First job occupies the worker; the rest queue up and must drain
        # highest-priority first.
        scheduler.submit(_job(graph, scheduler.next_sequence(), priority=9))
        time.sleep(0.05)
        for priority in (1, 3, 2):
            scheduler.submit(_job(graph, scheduler.next_sequence(), priority=priority))
        release.set()
        assert scheduler.drain(timeout=10.0)
        assert order == [9, 3, 2, 1]
        scheduler.shutdown()

    def test_submit_after_shutdown_raises(self, graph):
        scheduler = Scheduler(runner=lambda job: None, num_workers=1)
        scheduler.shutdown()
        with pytest.raises(ServiceError):
            scheduler.submit(_job(graph, 0))

    def test_raising_runner_fails_handle_and_worker_survives(self, graph):
        calls = []

        def runner(job):
            calls.append(job.sequence)
            if len(calls) == 1:
                raise RuntimeError("boom")

        scheduler = Scheduler(runner=runner, num_workers=1)
        first = _job(graph, scheduler.next_sequence())
        second = _job(graph, scheduler.next_sequence())
        scheduler.submit(first)
        scheduler.submit(second)
        assert scheduler.drain(timeout=10.0)
        # the escaped exception resolved the handle instead of leaking
        result = first.handle.result(timeout=5)
        assert result.status is JobStatus.FAILED
        assert "boom" in result.error
        # and the worker stayed alive to run the next job
        assert calls == [first.sequence, second.sequence]
        scheduler.shutdown()

    def test_bad_worker_count(self):
        with pytest.raises(ServiceError):
            Scheduler(runner=lambda job: None, num_workers=0)


class TestProcessEngine:
    def test_bit_identical_to_inline(self, graph):
        engine = ProcessEngine(num_workers=1)
        try:
            for method in ("crr", "bm2"):
                expected = make_shedder(method, seed=3).reduce(graph, 0.5)
                actual = engine.execute(graph, method, 0.5, seed=3)
                assert list(actual.reduced.edges()) == list(expected.reduced.edges())
                assert actual.delta == expected.delta
        finally:
            engine.close()

    def test_timeout_raises_and_counts(self, graph):
        engine = ProcessEngine(num_workers=1)
        try:
            with pytest.raises(JobTimeoutError):
                engine.execute(graph, "crr", 0.5, seed=0, timeout=1e-9)
            assert engine.abandoned_tasks == 1
        finally:
            engine.close()

    def test_close_after_timeout_ends_the_running_task(self):
        # CRR with every betweenness source runs for seconds on this graph.
        graph = powerlaw_cluster(6000, 4, 0.1, seed=1)
        before = set(multiprocessing.active_children())
        engine = ProcessEngine(num_workers=1)
        with pytest.raises(JobTimeoutError):
            engine.execute(graph, "crr", 0.5, seed=0, timeout=0.2)
        started = time.perf_counter()
        engine.close()
        assert time.perf_counter() - started < 2.0
        assert set(multiprocessing.active_children()) == before

    def test_execute_after_close_raises(self, graph):
        before = set(multiprocessing.active_children())
        engine = ProcessEngine(num_workers=1)
        engine.close()
        with pytest.raises(ServiceError, match="closed"):
            engine.execute(graph, "crr", 0.5, seed=0)
        assert set(multiprocessing.active_children()) == before
