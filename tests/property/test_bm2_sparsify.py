"""Property tests for EDCS-sparsified BM2.

Pins the contracts the sparsifier documents:

* ``sparsify="off"`` is the default and is bit-identical to a plain
  :class:`BM2Shedder`; ``sparsify="edcs"`` with a cap no candidate list
  reaches is also a no-op (identical edges, identical ``Δ``);
* the bucket repair engine replays the heap oracle exactly, with and
  without sparsification;
* sparsified quality stays within the empirically pinned bound
  ``Δ_sparse ≤ 1.05·Δ_exact`` on the power-law graphs the paper targets;
* sharded runs with sparsified boundary reconciliation keep ``Δ`` within
  the documented bound ``Σ_s Δ_s + 2p|B| + 2·(filled + demoted)``, and
  ``num_shards=1`` stays bit-identical to the whole-graph engine.
"""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.core import BM2Shedder
from repro.core.discrepancy import compute_delta
from repro.graph import Graph
from repro.graph.generators import powerlaw_cluster
from repro.shard import ShardedShedder
from tests.oracles.core import heap_repair

_RATIOS = [0.3, 0.5, 0.7]


@st.composite
def graph_and_ratio(draw):
    n = draw(st.integers(4, 14))
    g = Graph(nodes=range(n))
    for node in range(1, n):
        g.add_edge(node, draw(st.integers(0, node - 1)))
    extra = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda e: e[0] != e[1]
            ),
            max_size=3 * n,
        )
    )
    for u, v in extra:
        g.add_edge(u, v)
    return g, draw(st.sampled_from(_RATIOS))


def _edges(result):
    return sorted(tuple(sorted(edge)) for edge in result.reduced.edges())


@given(graph_and_ratio())
@settings(max_examples=40, deadline=None)
def test_sparsify_off_is_the_default(scenario):
    g, p = scenario
    plain = BM2Shedder(seed=0).reduce(g, p)
    off = BM2Shedder(seed=0, sparsify="off").reduce(g, p)
    assert _edges(plain) == _edges(off)
    assert plain.delta == off.delta
    assert off.stats["sparsify"] == "off"
    assert off.stats["phase2_candidate_edges_pruned"] == 0


@given(graph_and_ratio())
@settings(max_examples=40, deadline=None)
def test_uncapped_edcs_is_a_noop(scenario):
    """A cap above every candidate-list length prunes nothing."""
    g, p = scenario
    off = BM2Shedder(seed=0).reduce(g, p)
    edcs = BM2Shedder(
        seed=0, sparsify="edcs", sparsify_beta=g.num_edges + 1
    ).reduce(g, p)
    assert _edges(off) == _edges(edcs)
    assert off.delta == edcs.delta
    assert edcs.stats["phase2_candidate_edges_pruned"] == 0


@given(graph_and_ratio(), st.sampled_from([1, 2, 8]))
@settings(max_examples=40, deadline=None)
def test_bucket_repair_replays_heap_oracle(scenario, beta):
    g, p = scenario
    for sparsify in ("off", "edcs"):
        bucket = BM2Shedder(seed=0, sparsify=sparsify, sparsify_beta=beta).reduce(g, p)
        with heap_repair() as heap_engine:
            heap = BM2Shedder(seed=0, sparsify=sparsify, sparsify_beta=beta).reduce(g, p)
        assert _edges(bucket) == _edges(heap)
        assert bucket.delta == heap.delta
        assert bucket.stats["repair_engine"] == "bucket"
        assert heap_engine.call_count == 1


@given(graph_and_ratio(), st.sampled_from([1, 3]))
@settings(max_examples=40, deadline=None)
def test_sparsified_result_is_consistent(scenario, beta):
    """Forced pruning still yields a valid, correctly scored reduction."""
    g, p = scenario
    result = BM2Shedder(seed=0, sparsify="edcs", sparsify_beta=beta).reduce(g, p)
    original_edges = {tuple(sorted(e)) for e in g.edges()}
    assert {tuple(sorted(e)) for e in result.reduced.edges()} <= original_edges
    assert result.delta == pytest.approx(
        compute_delta(g, result.reduced, p), abs=1e-6
    )
    stats = result.stats
    assert stats["phase2_candidate_edges_pruned"] >= 0
    assert (
        stats["repair_edges"]
        <= stats["candidate_edges"] - stats["phase2_candidate_edges_pruned"]
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("p", _RATIOS)
def test_default_beta_quality_bound(seed, p):
    """Δ_sparse ≤ 1.05·Δ_exact at the default EDCS cap on power-law graphs."""
    g = powerlaw_cluster(300, 3, 0.3, seed=seed)
    exact = BM2Shedder(seed=0).reduce(g, p)
    sparse = BM2Shedder(seed=0, sparsify="edcs").reduce(g, p)
    assert sparse.delta <= 1.05 * exact.delta + 1e-9


@given(graph_and_ratio(), st.integers(2, 4))
@settings(max_examples=25, deadline=None)
def test_sharded_sparsified_delta_bound(scenario, num_shards):
    g, p = scenario
    shedder = ShardedShedder(
        method="bm2", num_shards=num_shards, seed=0, sparsify="edcs", sparsify_beta=2
    )
    result = shedder.reduce(g, p)
    assert result.delta <= result.stats["delta_bound"] + 1e-9
    assert result.stats["boundary_candidates_pruned"] >= 0


@given(graph_and_ratio())
@settings(max_examples=25, deadline=None)
def test_single_shard_sparsified_matches_whole_graph(scenario):
    g, p = scenario
    whole = BM2Shedder(seed=0, sparsify="edcs", sparsify_beta=2).reduce(g, p)
    sharded = ShardedShedder(
        method="bm2", num_shards=1, seed=0, sparsify="edcs", sparsify_beta=2
    ).reduce(g, p)
    assert _edges(whole) == _edges(sharded)
    assert whole.delta == pytest.approx(sharded.delta, abs=1e-9)
