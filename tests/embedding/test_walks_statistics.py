"""Statistical behaviour of random walks (distributional checks).

Includes the engine-equivalence suite: the batched engine and the legacy
scalar walker consume the RNG differently, so they cannot be bitwise
compared — instead their empirical transition frequencies (first-order
for uniform walks, second-order ``P(next | prev, current)`` for biased
walks) must agree within sampling tolerance.
"""

from collections import Counter, defaultdict

import pytest

from repro.embedding import generate_walks
from repro.graph import CSRAdjacency, Graph, powerlaw_cluster, star_graph
from tests.oracles.embedding import _legacy_generate_walks


class TestWalkStatistics:
    def test_uniform_walk_visits_proportional_to_degree(self):
        """Stationary distribution of a simple random walk is deg/2m."""
        g = star_graph(4)  # hub degree 4, leaves degree 1
        walks = generate_walks(g, num_walks=40, walk_length=50, seed=0)
        csr = CSRAdjacency.from_graph(g)
        visits = Counter()
        for walk in walks:
            for node_id in walk:
                visits[csr.labels[node_id]] += 1
        total = sum(visits.values())
        hub_share = visits[0] / total
        # stationary share of the hub is 4/8 = 0.5
        assert hub_share == pytest.approx(0.5, abs=0.05)

    def test_walks_stay_in_component(self):
        g = Graph(edges=[(0, 1), (1, 2), (5, 6)])
        walks = generate_walks(g, num_walks=5, walk_length=10, seed=1)
        csr = CSRAdjacency.from_graph(g)
        component_a = {0, 1, 2}
        for walk in walks:
            labels = {csr.labels[i] for i in walk}
            assert labels <= component_a or labels <= {5, 6}

    def test_high_q_keeps_walks_local(self):
        """Large in-out parameter q biases walks toward the start's
        neighbourhood (BFS-like), so fewer distinct nodes are visited."""
        from repro.graph import powerlaw_cluster

        g = powerlaw_cluster(150, 3, 0.5, seed=2)

        def mean_distinct(q):
            walks = generate_walks(g, num_walks=2, walk_length=25, q=q, seed=3)
            return sum(len(set(w)) for w in walks) / len(walks)

        assert mean_distinct(q=8.0) < mean_distinct(q=0.125)

    def test_dead_end_truncates_walk(self):
        g = Graph(edges=[(0, 1)])
        walks = generate_walks(g, num_walks=1, walk_length=9, seed=0)
        # path of length 9 bouncing between the two nodes — no truncation
        assert all(len(w) == 9 for w in walks)


def _first_order_frequencies(walks, min_count=0):
    """``{current: {next: share}}`` over all consecutive walk pairs."""
    counts = defaultdict(Counter)
    for walk in walks:
        for a, b in zip(walk, walk[1:]):
            counts[a][b] += 1
    return {
        a: {b: k / sum(c.values()) for b, k in c.items()}
        for a, c in counts.items()
        if sum(c.values()) >= min_count
    }


def _second_order_frequencies(walks, min_count):
    """``{(prev, current): {next: share}}``, dropping thin states.

    Only (prev, current) states visited at least ``min_count`` times are
    kept — rarely-visited states have too much sampling noise to compare.
    """
    counts = defaultdict(Counter)
    for walk in walks:
        for a, b, c in zip(walk, walk[1:], walk[2:]):
            counts[(a, b)][c] += 1
    return {
        state: {c: k / sum(nxt.values()) for c, k in nxt.items()}
        for state, nxt in counts.items()
        if sum(nxt.values()) >= min_count
    }


def _max_share_difference(left, right):
    """Largest |share difference| over states present in both tables."""
    shared = set(left) & set(right)
    assert shared, "no transition states in common to compare"
    worst = 0.0
    for state in shared:
        nexts = set(left[state]) | set(right[state])
        for nxt in nexts:
            diff = abs(left[state].get(nxt, 0.0) - right[state].get(nxt, 0.0))
            worst = max(worst, diff)
    return worst


class TestEngineEquivalence:
    """Batched vs legacy walkers agree distributionally (not bitwise)."""

    @pytest.fixture(scope="class")
    def graph(self):
        return powerlaw_cluster(15, 2, 0.4, seed=7)

    def test_uniform_transition_frequencies_agree(self, graph):
        kwargs = dict(num_walks=150, walk_length=20)
        batched = generate_walks(graph, seed=0, **kwargs)
        legacy = _legacy_generate_walks(graph, seed=1, **kwargs)
        diff = _max_share_difference(
            _first_order_frequencies(batched, min_count=100),
            _first_order_frequencies(legacy, min_count=100),
        )
        assert diff < 0.05

    def test_biased_transition_frequencies_agree(self, graph):
        """Second-order kernel check at p=0.25, q=4 — every branch of the
        biased step (return / common neighbour / outward) carries a
        distinct weight, so a wrong weight shows up as a shifted share."""
        kwargs = dict(num_walks=150, walk_length=20, p=0.25, q=4.0)
        batched = generate_walks(graph, seed=0, **kwargs)
        legacy = _legacy_generate_walks(graph, seed=1, **kwargs)
        diff = _max_share_difference(
            _second_order_frequencies(batched, min_count=300),
            _second_order_frequencies(legacy, min_count=300),
        )
        assert diff < 0.07

    def test_batched_self_consistency(self, graph):
        """Two independent batched samples differ by no more than the
        engines do — the cross-engine tolerance is not hiding a bias."""
        kwargs = dict(num_walks=150, walk_length=20, p=0.25, q=4.0)
        first = generate_walks(graph, seed=2, **kwargs)
        second = generate_walks(graph, seed=3, **kwargs)
        diff = _max_share_difference(
            _second_order_frequencies(first, min_count=300),
            _second_order_frequencies(second, min_count=300),
        )
        assert diff < 0.07
