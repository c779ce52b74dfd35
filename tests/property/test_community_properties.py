"""Property tests: label propagation's stopping rule (hypothesis).

Whenever the id-level core reports convergence, the labelling it returns
is settled: every node's label is among its neighbours' most frequent
labels (``tests/oracles/graph.py::label_propagation_settled``).  When it
does not, it ran every sweep the cap allows.  The graphs mix isolated
nodes, stars and tie-heavy shapes — even cycles, perfect matchings, star
leaves — where a random flip between equally frequent labels must not
count as progress.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.graph import Graph, label_propagation
from repro.graph.communities import _label_propagation_ids
from tests.oracles.graph import _label_propagation_legacy, label_propagation_settled


@st.composite
def tie_heavy_graphs(draw):
    n = draw(st.integers(1, 24))
    g = Graph(nodes=range(n))  # nodes no edge reaches stay isolated
    node = st.integers(0, n - 1)
    center = draw(node)
    for leaf in draw(st.lists(node, max_size=n, unique=True)):
        if leaf != center:
            g.add_edge(center, leaf)
    members = draw(st.lists(node, max_size=n, unique=True))
    if draw(st.booleans()):
        # An even-length cycle: two equally frequent labels everywhere.
        members = members[: len(members) - len(members) % 2]
        if len(members) >= 4:
            for u, v in zip(members, members[1:] + members[:1]):
                g.add_edge(u, v)
    else:
        # A perfect matching: every matched node sees exactly one label.
        for u, v in zip(members[0::2], members[1::2]):
            g.add_edge(u, v)
    for u, v in draw(st.lists(st.tuples(node, node), max_size=n // 2)):
        if u != v:
            g.add_edge(u, v)
    return g


caps = st.one_of(st.integers(1, 6), st.just(100))
seeds = st.integers(0, 2**31 - 1)


@given(tie_heavy_graphs(), caps, seeds)
@settings(max_examples=150, deadline=None)
def test_converged_labelling_is_settled(g, cap, seed):
    labels, sweeps, converged = _label_propagation_ids(g, cap, seed)
    labelling = dict(zip(g.nodes(), labels.tolist()))
    assert labelling == label_propagation(g, max_iterations=cap, seed=seed)
    assert 1 <= sweeps <= cap
    if converged:
        assert label_propagation_settled(g, labelling)
    else:
        assert sweeps == cap
        assert not label_propagation_settled(g, labelling)


@given(tie_heavy_graphs(), caps, seeds)
@settings(max_examples=60, deadline=None)
def test_matches_per_node_oracle(g, cap, seed):
    assert label_propagation(g, max_iterations=cap, seed=seed) == (
        _label_propagation_legacy(g, max_iterations=cap, seed=seed)
    )
