"""Property-based tests for the UDS baseline (hypothesis).

UDS is a baseline, but its own invariants still need to hold for the
comparison to be meaningful.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.baselines import UDSSummarizer
from repro.graph import Graph
from tests.oracles.uds import LegacyUDSSummarizer


@st.composite
def connected_ish_graphs(draw):
    n = draw(st.integers(4, 12))
    g = Graph(nodes=range(n))
    for node in range(1, n):
        g.add_edge(node, draw(st.integers(0, node - 1)))
    extra = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda e: e[0] != e[1]
            ),
            max_size=n,
        )
    )
    for u, v in extra:
        g.add_edge(u, v)
    return g


ratios = st.sampled_from([0.2, 0.5, 0.8])
seeds = st.integers(0, 2**31 - 1)


engines = st.sampled_from(["array", "legacy"])
_SUMMARIZERS = {"array": UDSSummarizer, "legacy": LegacyUDSSummarizer}


@given(connected_ish_graphs(), ratios, seeds, engines)
@settings(max_examples=25, deadline=None)
def test_utility_threshold_respected(g, p, seed, engine):
    result = _SUMMARIZERS[engine](seed=seed).reduce(g, p)
    assert result.stats["final_utility"] >= p - 1e-9


@given(connected_ish_graphs(), ratios, seeds)
@settings(max_examples=25, deadline=None)
def test_summary_partitions_nodes(g, p, seed):
    result = UDSSummarizer(seed=seed).reduce(g, p)
    summary = result.stats["summary"]
    seen = set()
    for rep in summary.supernodes():
        members = summary.members(rep)
        assert not (members & seen), "supernodes overlap"
        seen |= members
    assert seen == set(g.nodes()), "supernodes do not cover V"


@given(connected_ish_graphs(), ratios, seeds)
@settings(max_examples=25, deadline=None)
def test_reconstruction_on_original_node_set(g, p, seed):
    result = UDSSummarizer(seed=seed).reduce(g, p)
    assert set(result.reduced.nodes()) == set(g.nodes())


@given(connected_ish_graphs(), seeds)
@settings(max_examples=20, deadline=None)
def test_monotone_merging_in_threshold(g, seed):
    """Lower threshold never yields more supernodes."""
    high = UDSSummarizer(seed=seed).reduce(g, 0.9)
    low = UDSSummarizer(seed=seed).reduce(g, 0.2)
    assert low.stats["num_supernodes"] <= high.stats["num_supernodes"]