"""Property-based tests for sharded shedding (hypothesis).

Pins the two contracts the subsystem documents:

* ``num_shards=1`` (and any ``num_workers``) is bit-identical to the
  whole-graph array engines — same reduced graph, same ``Δ``;
* multi-shard runs keep ``Δ`` within the documented reconciliation bound
  ``Σ_s Δ_s + 2p|B| + 2·(filled + demoted)``; CRR additionally lands on
  the whole-graph edge target ``[p·m]`` exactly (BM2's count is
  emergent, so it has no target to pin).
"""

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.core import BM2Shedder, CRRShedder, round_half_up
from repro.graph import Graph
from repro.shard import ShardedShedder, partition_graph


@st.composite
def connected_ish_graphs(draw):
    n = draw(st.integers(6, 16))
    g = Graph(nodes=range(n))
    for node in range(1, n):
        g.add_edge(node, draw(st.integers(0, node - 1)))
    extra = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda e: e[0] != e[1]
            ),
            max_size=2 * n,
        )
    )
    for u, v in extra:
        g.add_edge(u, v)
    return g


ratios = st.sampled_from([0.3, 0.5, 0.7])
seeds = st.integers(0, 2**31 - 1)
shard_counts = st.integers(2, 4)
methods = st.sampled_from(["community", "contiguous"])


@given(connected_ish_graphs(), seeds, shard_counts, methods)
@settings(max_examples=40, deadline=None)
def test_partition_is_edge_disjoint_node_cover(g, seed, num_shards, method):
    plan = partition_graph(g, num_shards, method=method, seed=seed)
    covered = np.concatenate([shard.node_ids for shard in plan.shards])
    assert sorted(covered.tolist()) == list(range(g.num_nodes))
    interior = sum(shard.interior_edges for shard in plan.shards)
    assert interior + plan.num_boundary == g.num_edges
    if plan.num_boundary:
        assert np.all(plan.shard_of[plan.boundary_u] != plan.shard_of[plan.boundary_v])


@given(connected_ish_graphs(), ratios, seeds)
@settings(max_examples=25, deadline=None)
def test_single_shard_crr_bit_identical(g, p, seed):
    whole = CRRShedder(seed=seed, num_betweenness_sources=4).reduce(g, p)
    sharded = ShardedShedder(
        method="crr", num_shards=1, seed=seed, num_betweenness_sources=4
    ).reduce(g, p)
    assert sharded.reduced == whole.reduced
    assert sharded.delta == whole.delta


@given(connected_ish_graphs(), ratios, seeds)
@settings(max_examples=25, deadline=None)
def test_single_shard_bm2_bit_identical(g, p, seed):
    whole = BM2Shedder(seed=seed).reduce(g, p)
    sharded = ShardedShedder(method="bm2", num_shards=1, seed=seed).reduce(g, p)
    assert sharded.reduced == whole.reduced
    assert sharded.delta == whole.delta


@given(connected_ish_graphs(), ratios, seeds, shard_counts)
@settings(max_examples=25, deadline=None)
def test_multi_shard_bm2_within_delta_bound(g, p, seed, num_shards):
    result = ShardedShedder(
        method="bm2", num_shards=num_shards, seed=seed
    ).reduce(g, p)
    # BM2's count is emergent, so no target pin — but reconciliation must
    # never demote or force-fill for it.
    assert result.stats["demoted"] == 0
    assert result.stats["boundary_filled"] == 0
    assert result.delta <= result.stats["delta_bound"] + 1e-6
    original_edges = set(map(frozenset, g.edges()))
    assert set(map(frozenset, result.reduced.edges())) <= original_edges


@given(connected_ish_graphs(), ratios, seeds, shard_counts)
@settings(max_examples=15, deadline=None)
def test_multi_shard_crr_hits_target_within_delta_bound(g, p, seed, num_shards):
    result = ShardedShedder(
        method="crr", num_shards=num_shards, seed=seed, num_betweenness_sources=4
    ).reduce(g, p)
    assert result.reduced.num_edges == round_half_up(p * g.num_edges)
    assert result.delta <= result.stats["delta_bound"] + 1e-6
