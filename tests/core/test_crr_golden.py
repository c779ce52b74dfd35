"""Golden outputs of whole-graph CRR over seeded runs.

The equivalence suites compare CRR with its scalar oracle, and the
shard and weighted goldens pin CRR inside the sharded runner and on
fractional weights.  This file pins what :class:`CRRShedder` returns on
a whole graph.  Each run reduces one of three graphs:

* a 120-node powerlaw-cluster graph with integer labels;
* the same kind of graph with string labels in shuffled order;
* ``K_5`` with three leaves on node 0, where 45 of the 78 edge pairs
  share an endpoint, so most swap candidates take the exact
  joint-change branch.

The runs cover exact betweenness, sampled betweenness (8 sources) and
``importance="random"``; ``steps_factor`` 0, 1, 10 and 16 and one
explicit ``steps``; and ``p`` 0.3, 0.5 and 0.7, so some ``p·deg`` values
are not exact doubles.  Every (graph, importance, p) triple occurs once,
and every (steps setting, p) pair occurs.

The edge count, ``repr(Δ)``, ``repr`` of the tracker's ``Δ`` and the
attempted and accepted swap counts are stored in clear; the kept edge
list is stored as a SHA-256 prefix of its ``repr``.  String labels hash
differently under each ``PYTHONHASHSEED``, so CI runs this file under
two hash seeds.
"""

import hashlib
import itertools

import numpy as np
import pytest

from repro.core import CRRShedder
from repro.graph import Graph
from repro.graph.generators import complete_graph, powerlaw_cluster

_RATIOS = (0.3, 0.5, 0.7)
_GRAPHS = ("plc", "str", "dense")
#: (name, CRRShedder arguments) of the three Phase 1 settings.
_IMPORTANCE = (
    ("exact", {}),
    ("sampled", {"num_betweenness_sources": 8}),
    ("random", {"importance": "random"}),
)
#: (name, CRRShedder arguments) of the five Phase 2 lengths.
_STEPS = (
    ("x0", {"steps_factor": 0.0}),
    ("x1", {"steps_factor": 1.0}),
    ("x10", {}),
    ("x16", {"steps_factor": 16.0}),
    ("s700", {"steps": 700}),
)


def _runs():
    """27 runs: graph × importance × p, with the steps setting cycled.

    The steps index is the run index mod 5 and the p index is the run
    index mod 3, so all 15 (steps, p) pairs occur among the 27 runs.
    """
    runs = []
    for index, (graph, importance, ratio) in enumerate(
        itertools.product(range(len(_GRAPHS)), range(len(_IMPORTANCE)), range(len(_RATIOS)))
    ):
        runs.append((graph, importance, index % len(_STEPS), _RATIOS[ratio], index))
    return runs


def _run_id(run):
    graph, importance, steps, p, index = run
    return (
        f"{index:02d}-{_GRAPHS[graph]}-{_IMPORTANCE[importance][0]}"
        f"-{_STEPS[steps][0]}-p{p}"
    )


def _graph(kind):
    if kind == "dense":
        graph = complete_graph(5)
        for leaf in (5, 6, 7):
            graph.add_edge(0, leaf)
        return graph
    base = powerlaw_cluster(120, 3, 0.3, seed=5)
    if kind == "plc":
        return base
    order = np.random.default_rng(5).permutation(base.num_nodes)
    label = {node: f"n{int(order[i]):03d}" for i, node in enumerate(base.nodes())}
    graph = Graph(nodes=[label[node] for node in base.nodes()])
    for u, v in base.edges():
        graph.add_edge(label[u], label[v])
    return graph


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _record(run):
    graph, importance, steps, p, index = run
    shedder = CRRShedder(
        seed=index, **_IMPORTANCE[importance][1], **_STEPS[steps][1]
    )
    result = shedder.reduce(_graph(_GRAPHS[graph]), p)
    stats = result.stats
    return (
        result.reduced.num_edges,
        repr(result.delta),
        repr(stats["tracker_delta"]),
        stats["attempted_swaps"],
        stats["accepted_swaps"],
        _digest(list(result.reduced.edges())),
    )


#: run id -> (|E'|, repr(Δ), repr(tracker Δ), attempted swaps, accepted
#: swaps, kept-edges digest).
_GOLDEN = {
    '00-plc-exact-x0-p0.3': (
        105, '131.8', '131.79999999999995', 0, 0,
        'bb1fa2494f38ef2d',
    ),
    '01-plc-exact-x1-p0.5': (
        176, '69.0', '69.0', 176, 54,
        '730f9621a59d362c',
    ),
    '02-plc-exact-x10-p0.7': (
        246, '31.200000000000024', '31.199999999999978', 2457, 113,
        '65817fb4c10f2a11',
    ),
    '03-plc-sampled-x16-p0.3': (
        105, '34.80000000000002', '34.79999999999995', 1685, 104,
        '379ef2fba497c77c',
    ),
    '04-plc-sampled-s700-p0.5': (
        176, '51.0', '51.0', 700, 81,
        '52e6df692f420097',
    ),
    '05-plc-sampled-x0-p0.7': (
        246, '158.99999999999994', '159.0', 0, 0,
        'daea8e486db95f4b',
    ),
    '06-plc-random-x1-p0.3': (
        105, '67.60000000000005', '67.60000000000007', 105, 29,
        '8bf885b02551676c',
    ),
    '07-plc-random-x10-p0.5': (
        176, '43.0', '43.0', 1755, 44,
        'f7ae5dfe391fc398',
    ),
    '08-plc-random-x16-p0.7': (
        246, '30.60000000000003', '30.600000000000026', 3931, 83,
        'e22840caef43a221',
    ),
    '09-str-exact-s700-p0.3': (
        105, '39.00000000000005', '38.99999999999998', 700, 90,
        '190e86340aea0ee4',
    ),
    '10-str-exact-x0-p0.5': (
        176, '164.0', '164.0', 0, 0,
        'b0effb3d50ca0f8a',
    ),
    '11-str-exact-x1-p0.7': (
        246, '55.800000000000054', '55.800000000000026', 246, 68,
        '53b85b6cf2984ebc',
    ),
    '12-str-sampled-x10-p0.3': (
        105, '34.80000000000003', '34.800000000000026', 1053, 99,
        '7bb20c1e87770eac',
    ),
    '13-str-sampled-x16-p0.5': (
        176, '41.0', '41.0', 2808, 88,
        '73dffd00d3a98cd4',
    ),
    '14-str-sampled-s700-p0.7': (
        246, '36.40000000000005', '36.40000000000003', 700, 102,
        'd8754580a975fbb4',
    ),
    '15-str-random-x0-p0.3': (
        105, '109.79999999999995', '109.79999999999998', 0, 0,
        '8e6e7f51f70bc85d',
    ),
    '16-str-random-x1-p0.5': (
        176, '77.0', '77.0', 176, 23,
        '94d792185ff911e9',
    ),
    '17-str-random-x10-p0.7': (
        246, '32.200000000000024', '32.199999999999996', 2457, 71,
        '84c9bd5b9b9f0461',
    ),
    '18-dense-exact-x16-p0.3': (
        4, '2.8', '2.8000000000000007', 62, 2,
        '753c2a5c92bc0d49',
    ),
    '19-dense-exact-s700-p0.5': (
        7, '3.0', '3.0', 700, 3,
        '2956b5c4e449a9eb',
    ),
    '20-dense-exact-x0-p0.7': (
        9, '6.6', '6.6000000000000005', 0, 0,
        '92b6360c51610fe1',
    ),
    '21-dense-sampled-x1-p0.3': (
        4, '4.4', '4.4', 4, 2,
        '6e52c1e20df848ca',
    ),
    '22-dense-sampled-x10-p0.5': (
        7, '3.0', '3.0', 65, 4,
        '05968d951fd25e73',
    ),
    '23-dense-sampled-x16-p0.7': (
        9, '2.6000000000000014', '2.600000000000001', 146, 4,
        '8a6fdbc5a5e0b0ce',
    ),
    '24-dense-random-s700-p0.3': (
        4, '2.5999999999999996', '2.5999999999999996', 700, 1,
        'f7e78a12ec74ef36',
    ),
    '25-dense-random-x0-p0.5': (
        7, '4.0', '4.0', 0, 0,
        '8ad84b802d52192b',
    ),
    '26-dense-random-x1-p0.7': (
        9, '2.6000000000000014', '2.6000000000000014', 9, 0,
        '7105567b9589a219',
    ),
}


def test_golden_covers_every_run():
    runs = _runs()
    assert sorted(_GOLDEN) == sorted(_run_id(run) for run in runs)
    pairs = {(steps, p) for _, _, steps, p, _ in runs}
    assert len(pairs) == len(_STEPS) * len(_RATIOS)


def test_dense_graph_mostly_shares_endpoints():
    edges = list(_graph("dense").edges())
    pairs = list(itertools.combinations(edges, 2))
    shared = sum(1 for a, b in pairs if set(a) & set(b))
    assert shared / len(pairs) > 0.5


@pytest.mark.parametrize("run", _runs(), ids=_run_id)
def test_crr_run_matches_golden(run):
    assert _record(run) == _GOLDEN[_run_id(run)]
