"""End-to-end service behaviour: caching, budgets, degradation, determinism."""

import pytest

from repro.errors import ServiceError
from repro.graph.generators import erdos_renyi
from repro.graph.graph import Graph
from repro.service import (
    KNOWN_METHODS,
    JobStatus,
    ReductionRequest,
    SheddingService,
    make_shedder,
)


def _tree_graph(n=60, extra=15):
    g = Graph(nodes=range(n))
    for node in range(1, n):
        g.add_edge(node, node // 2)
    for node in range(extra):
        g.add_edge(node, (node * 7 + 3) % n)
    return g


@pytest.fixture
def graph():
    return _tree_graph()


def _edge_set(result):
    return set(map(frozenset, result.reduced.edges()))


class TestRequestValidation:
    def test_needs_exactly_one_graph_source(self, graph):
        with pytest.raises(ServiceError):
            ReductionRequest(p=0.5).validate()
        with pytest.raises(ServiceError):
            ReductionRequest(p=0.5, graph=graph, graph_ref="dataset:ca-grqc").validate()

    def test_rejects_bad_p(self, graph):
        with pytest.raises(ServiceError):
            ReductionRequest(p=1.5, graph=graph).validate()

    def test_bad_request_resolves_rejected_not_raises(self, graph):
        with SheddingService(mode="inline") as service:
            handle = service.submit(ReductionRequest(p=2.0, graph=graph))
            result = handle.result(timeout=5)
            assert result.status is JobStatus.REJECTED
            assert result.reduction is None

    def test_unknown_graph_ref_rejected(self):
        with SheddingService(mode="inline") as service:
            handle = service.submit(ReductionRequest(p=0.5, graph_ref="nope:xyz"))
            assert handle.result(timeout=5).status is JobStatus.REJECTED


class TestCaching:
    def test_second_submit_hits_memory_without_rerunning(self, graph):
        with SheddingService(mode="inline") as service:
            first = service.submit(
                ReductionRequest(graph=graph, method="bm2", p=0.5, seed=3)
            ).result(timeout=30)
            executed_before = service.metrics.counter("jobs_executed").value
            second = service.submit(
                ReductionRequest(graph=graph, method="bm2", p=0.5, seed=3)
            ).result(timeout=30)
            assert second.cache_hit == "memory"
            assert second.reduction is first.reduction
            # run-counter telemetry: nothing re-ran
            assert service.metrics.counter("jobs_executed").value == executed_before

    def test_structurally_equal_graph_hits_cache(self, graph):
        clone = Graph(nodes=list(graph.nodes()))
        for u, v in graph.edges():
            clone.add_edge(u, v)
        with SheddingService(mode="inline") as service:
            service.submit(
                ReductionRequest(graph=graph, method="bm2", p=0.5, seed=3)
            ).result(timeout=30)
            hit = service.submit(
                ReductionRequest(graph=clone, method="bm2", p=0.5, seed=3)
            ).result(timeout=30)
            assert hit.cache_hit == "memory"

    def test_different_seed_misses(self, graph):
        with SheddingService(mode="inline") as service:
            service.submit(
                ReductionRequest(graph=graph, method="random", p=0.5, seed=1)
            ).result(timeout=30)
            other = service.submit(
                ReductionRequest(graph=graph, method="random", p=0.5, seed=2)
            ).result(timeout=30)
            assert other.cache_hit is None

    def test_warm_restart_serves_disk_hits(self, graph, tmp_path):
        request = ReductionRequest(graph=graph, method="bm2", p=0.5, seed=3)
        with SheddingService(mode="inline", cache_dir=tmp_path) as service:
            cold = service.submit(request).result(timeout=30)
        with SheddingService(mode="inline", cache_dir=tmp_path) as fresh:
            warm = fresh.submit(request).result(timeout=30)
            assert warm.cache_hit == "disk"
            assert fresh.store.stats["computes"] == 0
            assert _edge_set(warm.reduction) == _edge_set(cold.reduction)
            assert warm.reduction.delta == cold.reduction.delta


class TestDeterminism:
    @pytest.mark.parametrize("mode,workers", [("thread", 3), ("process", 2)])
    def test_concurrent_equals_serial(self, graph, mode, workers):
        specs = [
            ("crr", 0.5, 7),
            ("bm2", 0.3, 11),
            ("random", 0.6, 2),
            ("degree-proportional", 0.4, 5),
        ]
        expected = {
            spec: make_shedder(spec[0], seed=spec[2]).reduce(graph, spec[1])
            for spec in specs
        }
        with SheddingService(num_workers=workers, mode=mode) as service:
            handles = service.submit_all(
                [
                    ReductionRequest(graph=graph, method=m, p=p, seed=s)
                    for m, p, s in specs
                ]
            )
            for spec, handle in zip(specs, handles):
                result = handle.result(timeout=120)
                assert result.status is JobStatus.COMPLETED, result.error
                base = expected[spec]
                assert list(result.reduction.reduced.edges()) == list(
                    base.reduced.edges()
                )
                assert result.reduction.delta == base.delta

    @pytest.mark.parametrize("method", KNOWN_METHODS)
    def test_process_mode_matches_inline(self, method):
        # UDS reconstructs edges outside E, so the parent must rebuild the
        # returned edges rather than select them from its own graph.
        graph = erdos_renyi(200, 0.05, seed=1)
        results = {}
        for mode in ("inline", "process"):
            with SheddingService(num_workers=1, mode=mode) as service:
                request = ReductionRequest(graph=graph, method=method, p=0.4, seed=2)
                results[mode] = service.submit(request).result(timeout=120)
        inline, process = results["inline"], results["process"]
        assert process.status is JobStatus.COMPLETED, process.error
        assert process.reduction.reduced == inline.reduction.reduced
        assert process.reduction.delta == inline.reduction.delta

    def test_submission_order_irrelevant(self, graph):
        specs = [("bm2", 0.5, 1), ("random", 0.5, 9), ("crr", 0.4, 2)]
        outputs = []
        for ordering in (specs, list(reversed(specs))):
            with SheddingService(num_workers=2, mode="thread") as service:
                handles = {
                    spec: service.submit(
                        ReductionRequest(graph=graph, method=spec[0], p=spec[1], seed=spec[2])
                    )
                    for spec in ordering
                }
                outputs.append(
                    {
                        spec: list(handle.result(timeout=120).reduction.reduced.edges())
                        for spec, handle in handles.items()
                    }
                )
        assert outputs[0] == outputs[1]


class TestBudgetsAndDegradation:
    def test_oversize_request_degrades_never_fails(self, graph):
        with SheddingService(
            max_resident_edges=graph.num_edges - 1, mode="inline"
        ) as service:
            result = service.submit(
                ReductionRequest(graph=graph, method="crr", p=0.5, seed=0)
            ).result(timeout=60)
            assert result.status is JobStatus.COMPLETED
            assert result.method_used == "random"
            assert result.metadata.get("oversize") is True

    def test_deadline_pressure_degrades_with_provenance(self, graph):
        with SheddingService(mode="inline") as service:
            result = service.submit(
                ReductionRequest(
                    graph=graph, method="crr", p=0.5, seed=0, deadline_seconds=1e-9
                )
            ).result(timeout=60)
            assert result.status is JobStatus.COMPLETED
            assert result.degraded
            assert result.degradation
            # provenance is stamped into the artifact itself
            assert result.reduction.stats["degraded_from"] == "crr"
            assert result.reduction.stats["degradation"] == result.degradation

    def test_degraded_result_is_usable_reduction(self, graph):
        with SheddingService(mode="inline") as service:
            result = service.submit(
                ReductionRequest(
                    graph=graph, method="crr", p=0.5, seed=0, deadline_seconds=1e-9
                )
            ).result(timeout=60)
            reduction = result.reduction
            assert reduction.reduced.num_edges <= int(0.5 * graph.num_edges)
            assert reduction.delta >= 0

    def test_timeout_fallback_does_not_poison_cache(self, graph):
        from repro.service.scheduler import JobTimeoutError

        with SheddingService(num_workers=1, mode="process") as service:

            def always_timeout(*args, **kwargs):
                raise JobTimeoutError("forced timeout")

            service._engine.execute = always_timeout
            result = service.submit(
                ReductionRequest(graph=graph, method="crr", p=0.5, seed=0)
            ).result(timeout=60)
            assert result.status is JobStatus.COMPLETED
            assert result.method_used == "random"
            assert result.degraded
            assert result.metadata.get("timed_out") is True
            # the fallback artifact is cached under the method that ran,
            # never under the requested CRR key — a future CRR request
            # must not be served the random-shed result as a hit
            crr_key = service.store.key_for(graph, "crr", 0.5, 0)
            assert service.store.get(crr_key, graph) is None
            random_key = service.store.key_for(graph, "random", 0.5, 0)
            assert service.store.get(random_key, graph) is not None

    def test_queue_backpressure_rejects(self, graph):
        with SheddingService(max_queue_depth=0, mode="thread") as service:
            # depth limit 0: the first un-cached submission is rejected
            result = service.submit(
                ReductionRequest(graph=graph, method="bm2", p=0.5)
            ).result(timeout=30)
            assert result.status is JobStatus.REJECTED

    def test_budget_ledger_tracks_resident_edges(self, graph):
        with SheddingService(mode="inline") as service:
            service.submit(
                ReductionRequest(graph=graph, method="random", p=0.5)
            ).result(timeout=30)
            snapshot = service.metrics_snapshot()
            assert snapshot["budget"]["in_use_edges"] == 0
            assert snapshot["budget"]["capacity_edges"] == service.ledger.capacity


class TestLifecycle:
    def test_cancel_queued_job(self, graph):
        import threading

        release = threading.Event()
        with SheddingService(num_workers=1, mode="thread") as service:
            # Occupy the single worker so the next job stays queued.
            blocker_graph = _tree_graph(n=61)

            original_runner = service.scheduler._runner

            def slow_runner(job):
                if job.graph is blocker_graph:
                    release.wait(5.0)
                original_runner(job)

            service.scheduler._runner = slow_runner
            blocker = service.submit(
                ReductionRequest(graph=blocker_graph, method="random", p=0.5)
            )
            victim = service.submit(
                ReductionRequest(graph=graph, method="random", p=0.5)
            )
            assert victim.cancel()
            release.set()
            result = victim.result(timeout=30)
            assert result.status is JobStatus.CANCELLED
            assert blocker.result(timeout=30).status is JobStatus.COMPLETED

    def test_submit_after_shutdown_raises(self, graph):
        service = SheddingService(mode="inline")
        service.shutdown()
        with pytest.raises(ServiceError):
            service.submit(ReductionRequest(graph=graph, method="random", p=0.5))

    def test_metrics_snapshot_is_json_ready(self, graph):
        import json

        with SheddingService(mode="inline") as service:
            service.submit(
                ReductionRequest(graph=graph, method="random", p=0.5)
            ).result(timeout=30)
            json.dumps(service.metrics_snapshot())


class TestShardedMode:
    def test_sharded_mode_matches_direct_sharded_shedder(self, graph):
        from repro.shard import ShardedShedder

        direct = ShardedShedder(method="bm2", num_shards=2, seed=3).reduce(graph, 0.5)
        with SheddingService(mode="sharded", num_workers=2, num_shards=2) as service:
            result = service.submit(
                ReductionRequest(graph=graph, method="bm2", p=0.5, seed=3)
            ).result(timeout=60)
        assert result.status is JobStatus.COMPLETED
        assert result.metadata["num_shards"] == 2
        assert "unsharded" not in result.metadata
        assert _edge_set(result.reduction) == _edge_set(direct)
        assert result.reduction.stats["num_shards"] == 2

    def test_num_shards_defaults_to_workers(self):
        with SheddingService(mode="sharded", num_workers=3) as service:
            assert service.num_shards == 3

    def test_bad_num_shards_rejected(self):
        with pytest.raises(ServiceError):
            SheddingService(mode="sharded", num_shards=0)

    def test_non_kernel_methods_run_unsharded(self, graph):
        with SheddingService(mode="sharded", num_workers=2, num_shards=2) as service:
            result = service.submit(
                ReductionRequest(graph=graph, method="random", p=0.5, seed=3)
            ).result(timeout=60)
        assert result.status is JobStatus.COMPLETED
        assert "num_shards" not in result.metadata
        assert "num_shards" not in result.reduction.stats
        assert result.metadata["unsharded"] == "method 'random' has no sharded runner"

    def test_sharded_artifacts_do_not_poison_unsharded_cache(self, graph, tmp_path):
        """A sharded run and a whole-graph run of the same request are
        different artifacts and must occupy different cache entries."""
        request = ReductionRequest(graph=graph, method="crr", p=0.5, seed=3)
        with SheddingService(
            mode="sharded", num_workers=2, num_shards=2, cache_dir=tmp_path
        ) as sharded_service:
            sharded = sharded_service.submit(request).result(timeout=60)
            assert sharded.cache_hit is None
        with SheddingService(mode="inline", cache_dir=tmp_path) as plain_service:
            plain = plain_service.submit(request).result(timeout=60)
            # sharing the persist dir must not serve the sharded artifact
            assert plain.cache_hit is None
            assert plain.reduction.method == "CRR"
        assert sharded.reduction.method == "ShardedCRR"

    def test_sharded_cache_hit_on_resubmit(self, graph):
        request = ReductionRequest(graph=graph, method="bm2", p=0.5, seed=3)
        with SheddingService(mode="sharded", num_workers=2, num_shards=2) as service:
            first = service.submit(request).result(timeout=60)
            second = service.submit(request).result(timeout=60)
            assert first.cache_hit is None
            assert second.cache_hit == "memory"
