"""Weighted plumbing through the service, cache keys and sessions."""

import asyncio

import pytest

from repro.errors import ServiceError
from repro.graph.generators import erdos_renyi
from repro.service import (
    ArtifactStore,
    ReductionRequest,
    SheddingService,
    graph_digest,
    make_shedder,
)
from repro.sessions import SessionConfig, SessionManager
from repro.uncertain import (
    WeightedBM2Shedder,
    WeightedCRRShedder,
    uncertain_erdos_renyi,
)


class TestDigest:
    def test_weights_change_the_digest(self):
        weighted = uncertain_erdos_renyi(60, 0.1, seed=7)
        plain = erdos_renyi(60, 0.1, seed=7)
        assert graph_digest(weighted) != graph_digest(plain)

    def test_unweighted_digest_is_stable(self):
        a = erdos_renyi(60, 0.1, seed=7)
        b = erdos_renyi(60, 0.1, seed=7)
        assert graph_digest(a) == graph_digest(b)

    def test_weighted_digest_is_deterministic(self):
        a = uncertain_erdos_renyi(60, 0.1, seed=7)
        b = uncertain_erdos_renyi(60, 0.1, seed=7)
        assert graph_digest(a) == graph_digest(b)

    def test_different_weight_fields_differ(self):
        a = uncertain_erdos_renyi(60, 0.1, seed=7, weight_seed=1)
        b = uncertain_erdos_renyi(60, 0.1, seed=7, weight_seed=2)
        assert graph_digest(a) != graph_digest(b)


class TestMakeShedder:
    def test_weighted_routing(self):
        assert isinstance(make_shedder("crr", weighted=True), WeightedCRRShedder)
        assert isinstance(make_shedder("bm2", weighted=True), WeightedBM2Shedder)
        sparse = make_shedder("bm2-sparse", weighted=True)
        assert isinstance(sparse, WeightedBM2Shedder)

    def test_weighted_rejects_other_methods(self):
        for method in ("uds", "random", "degree-proportional"):
            with pytest.raises(ServiceError):
                make_shedder(method, weighted=True)

    def test_weighted_rejects_legacy_engine(self):
        with pytest.raises(ServiceError):
            make_shedder("crr", engine="legacy", weighted=True)


class TestRequestValidation:
    def test_weighted_request_validates(self):
        graph = uncertain_erdos_renyi(30, 0.2, seed=0)
        ReductionRequest(p=0.5, method="bm2", graph=graph, weighted=True).validate()

    def test_weighted_rejects_unweightable_method(self):
        graph = uncertain_erdos_renyi(30, 0.2, seed=0)
        with pytest.raises(ServiceError):
            ReductionRequest(
                p=0.5, method="random", graph=graph, weighted=True
            ).validate()

    def test_weighted_rejects_legacy_engine(self):
        # Requests no longer carry an engine: there is one implementation.
        graph = uncertain_erdos_renyi(30, 0.2, seed=0)
        with pytest.raises(TypeError):
            ReductionRequest(
                p=0.5, method="crr", graph=graph, weighted=True, engine="legacy"
            ).validate()


class TestServiceWeighted:
    def test_weighted_and_blind_cache_separately(self):
        graph = uncertain_erdos_renyi(100, 0.08, seed=3)
        service = SheddingService()
        try:
            aware = service.submit(
                ReductionRequest(p=0.5, method="bm2", graph=graph, weighted=True)
            ).result(60)
            blind = service.submit(
                ReductionRequest(p=0.5, method="bm2", graph=graph, weighted=False)
            ).result(60)
            assert aware.cache_hit is None and blind.cache_hit is None
            assert aware.reduction.method == "W-BM2"
            assert blind.reduction.method == "BM2"
            # Same weighted request again: memory hit.
            again = service.submit(
                ReductionRequest(p=0.5, method="bm2", graph=graph, weighted=True)
            ).result(60)
            assert again.cache_hit == "memory"
        finally:
            service.shutdown()

    def test_weighted_beats_blind_through_service(self):
        graph = uncertain_erdos_renyi(150, 0.06, seed=5)
        service = SheddingService()
        try:
            aware = service.submit(
                ReductionRequest(p=0.5, method="crr", graph=graph, weighted=True)
            ).result(60)
            blind = service.submit(
                ReductionRequest(p=0.5, method="crr", graph=graph, weighted=False)
            ).result(60)
            assert (
                aware.reduction.stats["expected_degree_distance"]
                < blind.reduction.stats["expected_degree_distance"]
            )
        finally:
            service.shutdown()

    def test_sharded_mode_runs_weighted_whole_graph(self):
        graph = uncertain_erdos_renyi(100, 0.08, seed=3)
        service = SheddingService(mode="sharded", num_shards=2)
        try:
            result = service.submit(
                ReductionRequest(p=0.5, method="bm2", graph=graph, weighted=True)
            ).result(60)
            assert result.reduction.method == "W-BM2"
            assert "num_shards" not in result.metadata
            assert result.metadata["unsharded"] == (
                "weighted request: the sharded runner is weight-blind"
            )
        finally:
            service.shutdown()


class TestSessionArtifactExport:
    def test_graceful_close_exports(self):
        async def run():
            store = ArtifactStore()
            async with SessionManager(num_workers=1, artifact_store=store) as mgr:
                graph = erdos_renyi(120, 0.06, seed=1)
                session = await mgr.open(
                    graph=graph, config=SessionConfig(p=0.5, method="bm2")
                )
                session.submit([("insert", 0, 115)])
                await session.flush()
                telemetry = await mgr.close_session(session)
            return store, telemetry

        store, telemetry = asyncio.run(run())
        assert store.stats["puts"] == 1
        artifact = telemetry["artifact"]
        assert artifact["method"] == "session-bm2"
        assert artifact["variant"].startswith("session=")

    def test_forced_close_does_not_export(self):
        async def run():
            store = ArtifactStore()
            async with SessionManager(num_workers=1, artifact_store=store) as mgr:
                graph = erdos_renyi(120, 0.06, seed=1)
                session = await mgr.open(
                    graph=graph, config=SessionConfig(p=0.5, method="bm2")
                )
                telemetry = await mgr.close_session(session, force=True)
            return store, telemetry

        store, telemetry = asyncio.run(run())
        assert store.stats["puts"] == 0
        assert "artifact" not in telemetry

    def test_no_store_no_export(self):
        async def run():
            async with SessionManager(num_workers=1) as mgr:
                graph = erdos_renyi(120, 0.06, seed=1)
                session = await mgr.open(
                    graph=graph, config=SessionConfig(p=0.5, method="bm2")
                )
                return await mgr.close_session(session)

        telemetry = asyncio.run(run())
        assert "artifact" not in telemetry
