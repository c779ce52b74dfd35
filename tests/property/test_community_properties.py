"""Property tests: label propagation's stopping and skip rules (hypothesis).

Whenever the id-level core reports convergence, the labelling it returns
is settled: every node's label is among its neighbours' most frequent
labels (``tests/oracles/graph.py::label_propagation_settled``).  When it
does not, it ran every sweep the cap allows.  The graphs mix isolated
nodes, stars and tie-heavy shapes — even cycles, perfect matchings, star
leaves — where a random flip between equally frequent labels must not
count as progress.

The skip rule is sound on any labelling and any sweep order: the nodes
it keeps are the per-node rule's (``label_propagation_kept``), and a
sweep that passes over them ends with the labels and the generator state
of a sweep over every node.
"""

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.graph import Graph, label_propagation
from repro.graph.communities import _kept_labels, _label_margins, _label_propagation_ids
from repro.rng import ensure_rng
from tests.oracles.graph import (
    _label_propagation_legacy,
    label_propagation_kept,
    label_propagation_settled,
    label_propagation_sweep,
)


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


@st.composite
def planted_partitions(draw):
    sizes = draw(st.lists(st.integers(2, 8), min_size=2, max_size=5))
    p_in, p_out = draw(st.sampled_from([(1.0, 0.02), (0.8, 0.05), (0.6, 0.15)]))
    rng = np.random.default_rng(draw(seeds))
    block = np.repeat(np.arange(len(sizes)), sizes)
    u, v = np.triu_indices(block.shape[0], 1)
    chosen = rng.random(u.shape[0]) < np.where(block[u] == block[v], p_in, p_out)
    g = Graph(nodes=range(block.shape[0]))
    for e in rng.permutation(np.flatnonzero(chosen)).tolist():
        g.add_edge(int(u[e]), int(v[e]))
    return g


@st.composite
def labelled_sweeps(draw):
    """A graph, a labelling, and a sweep order.

    The labelling is arbitrary over a few labels, or the one label
    propagation leaves after a few sweeps (where most nodes are kept).
    """
    g = draw(st.one_of(tie_heavy_graphs(), planted_partitions()))
    n = g.num_nodes
    if draw(st.booleans()):
        labelling = draw(st.lists(st.integers(0, min(n, 4) - 1), min_size=n, max_size=n))
    else:
        labelling = _label_propagation_ids(g, draw(st.integers(1, 3)), draw(seeds))[0].tolist()
    return g, labelling, draw(st.permutations(range(n)))


@given(labelled_sweeps(), seeds)
@settings(max_examples=200, deadline=None)
def test_skipped_nodes_keep_their_label(case, seed):
    g, labelling, order = case
    n = g.num_nodes
    degrees, adjacency = g._neighbor_ids()
    indptr = np.concatenate(([0], np.cumsum(degrees)))
    owner = np.repeat(np.arange(n), degrees)
    labels = np.asarray(labelling, dtype=np.int64)
    position = np.argsort(order)
    kept = set()
    if adjacency.shape[0]:
        margin = _label_margins(labels, owner, adjacency, n)
        earlier = position[adjacency] < position[owner]
        mask = _kept_labels(margin, labels, earlier, adjacency, indptr)
        kept = set(np.flatnonzero(mask).tolist())
    start = dict(zip(g.nodes(), labelling))  # both strategies label node i as i
    assert kept == label_propagation_kept(g, start, order)

    full, full_rng = dict(start), ensure_rng(seed)
    label_propagation_sweep(g, full, order, full_rng)
    skipped, skipped_rng = dict(start), ensure_rng(seed)
    label_propagation_sweep(g, skipped, [x for x in order if x not in kept], skipped_rng)
    assert skipped == full
    assert skipped_rng.bit_generator.state == full_rng.bit_generator.state
