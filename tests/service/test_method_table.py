"""Every surface reads one method table: each row's facts hold for its key.

Each key runs in lower and upper case, since every surface accepts both.
"""

import json

import pytest

from repro.cli import main
from repro.errors import ServiceError, SessionError
from repro.graph.generators import erdos_renyi
from repro.service import (
    KNOWN_METHODS,
    METHODS,
    CostModel,
    JobStatus,
    ReductionRequest,
    SheddingService,
    degrade_method,
    make_shedder,
)
from repro.service.store import ArtifactStore
from repro.sessions import SessionConfig

KEYS = [variant for key in KNOWN_METHODS for variant in (key, key.upper())]

#: ``reduce`` on a ~100-node surrogate; sampled betweenness keeps CRR/UDS quick.
REDUCE = ["reduce", "--scale", "0.02", "--p", "0.5", "--seed", "3", "--sources", "8"]


def _row(key):
    return METHODS[key.lower()]


def test_known_methods_are_the_table_keys():
    assert KNOWN_METHODS == tuple(METHODS)
    assert all(key == key.lower() for key in METHODS)


@pytest.mark.parametrize("key", KEYS)
class TestEveryRow:
    def test_make_shedder_builds_the_row_engines(self, key):
        row = _row(key)
        assert type(make_shedder(key, seed=0)) is row.engine
        if row.weighted is None:
            with pytest.raises(ServiceError, match="has no weighted variant"):
                make_shedder(key, seed=0, weighted=True)
        else:
            assert type(make_shedder(key, seed=0, weighted=True)) is row.weighted

    def test_reduce_shards_exactly_the_sharded_rows(self, key, capsys):
        argv = REDUCE + ["--method", key, "--shards", "2", "--json"]
        row = _row(key)
        if row.shard_engine is None:
            with pytest.raises(SystemExit, match="has no sharded runner"):
                main(argv)
            return
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == f"Sharded{row.shard_engine.upper()}"
        assert payload["sharding"]["num_shards"] == 2

    def test_sharded_service_shards_exactly_the_sharded_rows(self, key):
        graph = erdos_renyi(40, 0.15, seed=1)
        request = ReductionRequest(graph=graph, method=key, p=0.5, seed=3, num_sources=8)
        store = ArtifactStore()
        with SheddingService(mode="sharded", num_workers=1, num_shards=2, store=store) as service:
            result = service.submit(request).result(timeout=60)
        assert result.status is JobStatus.COMPLETED, result.error
        row = _row(key)
        # A sharded artifact is cached apart from the whole-graph one.
        with SheddingService(mode="inline", store=store) as whole:
            again = whole.submit(request).result(timeout=60)
        assert (again.cache_hit is None) == (row.shard_engine is not None)
        if row.shard_engine is None:
            assert "num_shards" not in result.metadata
            assert result.metadata["unsharded"] == (
                f"method {key.lower()!r} has no sharded runner"
            )
        else:
            assert result.metadata["num_shards"] == 2
            assert "unsharded" not in result.metadata
            assert result.reduction.method == f"Sharded{row.shard_engine.upper()}"

    @pytest.mark.parametrize("shards", [[], ["--shards", "2"]], ids=["whole", "sharded"])
    def test_sparsify_options_need_a_sparsify_row(self, key, shards, capsys):
        argv = REDUCE + ["--method", key, "--sparsify-beta", "5", "--json"] + shards
        if _row(key).sparsify is None:
            with pytest.raises(SystemExit, match="sparsify options require bm2/bm2-sparse"):
                main(argv)
        else:
            assert main(argv) == 0
            capsys.readouterr()

    def test_sources_key_the_cache_only_where_the_row_reads_them(self, key):
        graph = erdos_renyi(40, 0.15, seed=1)
        reads = _row(key).reads_sources
        with SheddingService(mode="inline") as service:
            for sources in (None, 8, 16):
                request = ReductionRequest(
                    graph=graph, method=key, p=0.5, seed=3, num_sources=sources
                )
                result = service.submit(request).result(timeout=60)
                assert result.status is JobStatus.COMPLETED, result.error
                if sources is not None:
                    assert result.cache_hit == (None if reads else "memory")
            assert service.store.stats["computes"] == (3 if reads else 1)

    def test_ladder_reaches_random_without_a_cycle(self, key):
        seen = []
        method = key
        while method is not None:
            assert method.lower() not in seen, f"ladder cycle {seen} -> {method}"
            seen.append(method.lower())
            method = degrade_method(method)
        assert seen[-1] == "random"

    def test_cost_model_uses_the_row(self, key):
        row = _row(key)
        work = 10 * 20 if row.quadratic else 20
        assert CostModel().estimate(key, 10, 20) == pytest.approx(
            row.coefficient * work + 1e-4
        )

    def test_sessions_accept_exactly_the_subgraph_rows(self, key):
        config = SessionConfig(p=0.5, method=key)
        if _row(key).subgraph:
            config.validate()
        else:
            with pytest.raises(SessionError, match="does not shed to a subgraph"):
                config.validate()
