"""Golden outputs of the churn maintainer under seeded insert/delete streams.

The property suites compare ``apply_ops`` with a per-op reference; this
file pins what both actually return.  Each run seeds an
:class:`IncrementalShedder` on a 60-node Erdős–Rényi or powerlaw-cluster
graph (unit or fractional weights), replays 400 ops of one workload shape
and records the final state.  The runs cover the ``insert``, ``sliding``
and ``mixed`` shapes, three values of ``p``, repair on and off
(``repair=None`` is falsy and switches it off), and three drift
policies: the default one, ``drift_ratio=0.3`` with a 5-op cooldown,
which rebuilds and re-arms through hysteresis at ``p = 0.7``, and
``drift_ratio=0.1`` with a 5-op cooldown, which rebuilds every 5 ops.

Every run is driven twice.  The per-op drive calls :meth:`apply` once per
op and records every :class:`DriftDecision`.  The batched drive calls
:meth:`apply_ops` over a fixed uneven batch split.  Both must end in the
recorded state, and each batch's decision must equal the per-op decision
of its last op.

The edge counts, the rebuild count and ``repr(Δ)`` are stored in clear.
The edges and weights of ``G`` and ``G'``, the stats, the sorted
reservoir items, the monitor state with the graph version, and the
per-op decision tuples are stored as SHA-256 prefixes of their ``repr``.
Fresh churn nodes are ``("dyn", k)`` tuples whose hashes change with
``PYTHONHASHSEED``, so CI runs this file under two hash seeds.
"""

import hashlib
import itertools

import pytest

from repro.dynamic import DriftMonitor, IncrementalShedder, generate_workload
from repro.graph.generators import erdos_renyi, powerlaw_cluster
from repro.uncertain import attach_random_weights

_NUM_OPS = 400
_RATIOS = (0.3, 0.5, 0.7)
_SHAPES = ("insert", "sliding", "mixed")
#: (drift_ratio, cooldown_ops) of the three drift policies.
_DRIFTS = ((1.0, 0), (0.3, 5), (0.1, 5))
#: Batch sizes of the batched drive, cycled until the stream is used up.
_BATCH_SIZES = (1, 7, 2, 31, 5, 64, 3, 13)


def _runs():
    """24 runs: shape × graph kind × weights × repair, with p and drift mixed in.

    Every block of 6 consecutive runs covers each (p, repair) pair once and
    shares one drift policy.
    """
    runs = []
    for index, (shape, kind, weighted, repair) in enumerate(
        itertools.product(_SHAPES, ("er", "plc"), (False, True), (True, False))
    ):
        p = _RATIOS[index % 3]
        drift = _DRIFTS[(index // 6) % 3]
        runs.append((shape, kind, weighted, repair, p, drift, index))
    return runs


def _run_id(run):
    shape, kind, weighted, repair, p, drift, index = run
    return (
        f"{index:02d}-{shape}-{kind}-{'w' if weighted else 'u'}-p{p}"
        f"-{'repair' if repair else 'norepair'}-drift{drift[0]}"
    )


def _graph(kind, weighted, seed):
    if kind == "er":
        graph = erdos_renyi(60, 0.1, seed=seed)
    else:
        graph = powerlaw_cluster(60, 3, 0.3, seed=seed)
    return attach_random_weights(graph, seed=seed) if weighted else graph


def _maintainer(run):
    shape, kind, weighted, repair, p, (ratio, cooldown), index = run
    graph = _graph(kind, weighted, seed=index)
    drift = DriftMonitor(p, drift_ratio=ratio, cooldown_ops=cooldown)
    options = {} if repair else {"repair": None}
    return IncrementalShedder(graph, p, drift=drift, seed=index, **options)


def _ops(run):
    shape, kind, weighted, repair, p, drift, index = run
    graph = _graph(kind, weighted, seed=index)
    return generate_workload(shape, graph, _NUM_OPS, seed=1000 + index)


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _decision(decision):
    return (
        decision.delta,
        decision.envelope,
        decision.threshold,
        decision.rebuild,
        decision.armed,
    )


def _state(shedder):
    graph, reduced, monitor = shedder.graph, shedder.reduced, shedder.monitor
    return (
        graph.num_edges,
        reduced.num_edges,
        shedder.stats["rebuilds"],
        repr(shedder.delta),
        _digest((list(graph.edges()), list(graph.edge_weights()))),
        _digest((list(reduced.edges()), list(reduced.edge_weights()))),
        _digest(sorted(shedder.stats.items())),
        _digest(sorted(shedder.reservoir.items())),
        _digest(
            (monitor.armed, monitor.rebuilds, graph.num_nodes, graph.version)
        ),
    )


def _per_op(run, ops):
    shedder = _maintainer(run)
    decisions = [_decision(shedder.apply(op)) for op in ops]
    return _state(shedder), decisions


def _batched(run, ops):
    shedder = _maintainer(run)
    decisions = {}
    start = 0
    for size in itertools.cycle(_BATCH_SIZES):
        if start >= len(ops):
            break
        batch = ops[start : start + size]
        report = shedder.apply_ops(batch)
        assert report.applied == len(batch) and report.skipped == 0
        start += len(batch)
        decisions[start - 1] = _decision(report.decision)
    return _state(shedder), decisions


#: run id -> (|E|, |E'|, rebuilds, repr(Δ), G digest, G' digest, stats
#: digest, reservoir digest, monitor digest) + (per-op decisions digest,).
_GOLDEN = {
    '00-insert-er-u-p0.3-repair-drift1.0': (
        576, 169, 0, '42.39999999999995',
        '4fa4c003c29c0365', 'c6b4cc6dd4c28474', 'd3896474ec78b216',
        '4ffbe1ec16480113', 'd5b80aeadd5ab061', '31b05229affdea1c',
    ),
    '01-insert-er-u-p0.5-norepair-drift1.0': (
        567, 274, 0, '57.0',
        '0c58d5b2257f8f77', 'd0138889456b0ffd', '45418fb4095b8177',
        '22445e5d4aca769a', '5c8181ae5016eb2a', 'ce1644776e3deb83',
    ),
    '02-insert-er-w-p0.7-repair-drift1.0': (
        561, 386, 0, '48.59999999999995',
        'b10da41e45a3ac9d', '61877fe81626865a', 'e3a45db50e989950',
        '86e0bc492584e5d4', 'a71bfff9c26f3764', 'ed47fa9bb46cff47',
    ),
    '03-insert-er-w-p0.3-norepair-drift1.0': (
        590, 160, 0, '57.99999999999999',
        'f86691768458a1dd', '21460567abe6c591', 'bb339dbd714cf2eb',
        '82f9ea3986debcaa', 'b9f418664a765f4d', '389e555d964ddce9',
    ),
    '04-insert-plc-u-p0.5-repair-drift1.0': (
        571, 296, 0, '38.0',
        'b208674b01a52b98', '007c021b1dfc24b0', '1b7ae957df53855e',
        'c6b6e6cead5cd5c1', 'c66461b0fc0269a7', 'b1fe541882df33a6',
    ),
    '05-insert-plc-u-p0.7-norepair-drift1.0': (
        571, 380, 0, '59.799999999999976',
        '6b58001fac9f7a8b', '3344612aa2af03fd', 'f9cf2aac98b8c8f2',
        '644e743f80cdb86c', 'c66461b0fc0269a7', 'b8cca41a8eeef396',
    ),
    '06-insert-plc-w-p0.3-repair-drift0.3': (
        571, 168, 0, '36.39999999999998',
        'c0dda0a273de1790', 'e580116aea920088', '04ad58e8554aecb0',
        '0941bbbb57fc046a', 'c2206dd9858c968d', '4a734906ede0c580',
    ),
    '07-insert-plc-w-p0.5-norepair-drift0.3': (
        571, 281, 0, '47.0',
        '95f75a774b518422', '67f958d5274cb6c5', '1f4c32871901f61e',
        'ee42298ac3f6034d', 'ebf403a2cdd91e0b', '6da78a8d5546fef0',
    ),
    '08-sliding-er-u-p0.7-repair-drift0.3': (
        171, 121, 9, '18.40000000000001',
        '14f33293305ca991', '62a4df64fe6a4515', '819c20a59d03bbed',
        'eddda77d49a54d9c', '941a87e70c138294', 'af6789677cf6ec18',
    ),
    '09-sliding-er-u-p0.3-norepair-drift0.3': (
        148, 41, 0, '26.400000000000006',
        'c6e316bc73451338', 'a0ae76207fc1ac2b', '749d3a24041f19f0',
        '3256f56ae9cff734', 'e1a7c6b1ff832d67', '93f4af48545a0f14',
    ),
    '10-sliding-er-w-p0.5-repair-drift0.3': (
        184, 101, 0, '22.0',
        '19771df0efc7fb56', 'fe9d4b25c3811243', '736f48640be3bbb5',
        '446fd32cf7df24ce', '9b2225fd373797f0', 'e72bb121e425a10a',
    ),
    '11-sliding-er-w-p0.7-norepair-drift0.3': (
        185, 129, 17, '20.2',
        '6d69e892799f4e7a', 'af157f4f69e054b7', '63017226e5ae28c7',
        '649f1df2bf955c00', '46cfe76bb3bea258', '79a45bcc758d0edc',
    ),
    '12-sliding-plc-u-p0.3-repair-drift0.1': (
        171, 55, 79, '17.6',
        'f9d92d88fdb1e12a', 'c9c6b14e21b49614', 'ab64563e8b3f2807',
        '7bdf8cddbd3cf7c4', '825256cb511bf658', '5d77baf5339bd974',
    ),
    '13-sliding-plc-u-p0.5-norepair-drift0.1': (
        171, 92, 80, '20.0',
        'f1af719588de8b99', '8ae067f1131aff2b', 'ffce8a91acd2e2a3',
        '09780a9ee7c97835', '0e13792370588625', 'e0fc1721097488bd',
    ),
    '14-sliding-plc-w-p0.7-repair-drift0.1': (
        171, 123, 80, '17.399999999999995',
        '79d363d0470d046f', '8b1aa7a1f5cf4eb1', '8a44c4f2236b44d8',
        '667a1c52e10a0508', '0c05f5c059955b7c', 'fc69dca6c8282d4d',
    ),
    '15-sliding-plc-w-p0.3-norepair-drift0.1': (
        171, 49, 80, '17.199999999999996',
        'ab089ef05ff03fac', '1eeeeddadd2926b6', '3fb7f8ba7f26da4a',
        'ca4681a959cc334f', '0c05f5c059955b7c', '5cb5660622d5b38f',
    ),
    '16-mixed-er-u-p0.5-repair-drift0.1': (
        261, 131, 80, '29.0',
        '5251f48a23c61bcd', '028e57d04293c70d', 'fc2498e2ab21b8af',
        '209ea654361a1d53', '3a69b35cbcb8765f', '5d478c68ff64b9b3',
    ),
    '17-mixed-er-u-p0.7-norepair-drift0.1': (
        240, 170, 80, '34.199999999999996',
        '4bfe10b55c587030', '284576ed8d39766d', 'a1f41392f594b8af',
        'cff946165a55383f', '0f788ea1e0028d8d', '76f081a0c2bb57ac',
    ),
    '18-mixed-er-w-p0.3-repair-drift1.0': (
        239, 70, 0, '25.000000000000004',
        'cbe470ba1bdcf358', 'e5356bd0c99096c8', 'ed7981a750033581',
        'bf9150734d7435dc', 'dd31d39287806147', '399a65d1077f3931',
    ),
    '19-mixed-er-w-p0.5-norepair-drift1.0': (
        234, 117, 0, '36.0',
        '114c0b0ed5cf96e9', '2370c60d36e72831', 'c21dda8ead288387',
        '86f47d13ebc4e561', 'd62e580ffd9b6abe', '392985fe434ac66d',
    ),
    '20-mixed-plc-u-p0.7-repair-drift1.0': (
        247, 177, 0, '24.600000000000005',
        'e0879ee4715fc3fb', 'd134a235b6df7cc8', '935702e0480dc6cb',
        '5670ddac4ed9ffdd', '1f40a207558f7a13', 'b0f3cf3de7b70ce3',
    ),
    '21-mixed-plc-u-p0.3-norepair-drift1.0': (
        247, 62, 0, '42.59999999999999',
        'a1a0a70b579a3c74', '2e6b234b86affa40', '432338abfa0db6d6',
        'ba30db6b6a72df07', '441d355d64543a77', '4a75670a83ad7dba',
    ),
    '22-mixed-plc-w-p0.5-repair-drift1.0': (
        259, 135, 0, '26.0',
        '461e519a27a95669', '3f82d60e4ea7e726', '55765c7300329480',
        '9f5802d518e1afb0', 'c35540c43e28e787', '1a6f4e7dcb36a62f',
    ),
    '23-mixed-plc-w-p0.7-norepair-drift1.0': (
        217, 137, 0, '53.39999999999998',
        '1b339695e97e3391', '06a680abb5401616', '0939aca80e8adbe6',
        '427e2068acd20d97', '1cf1606a7ad441df', 'de30c0af53ab5b35',
    ),
}


@pytest.mark.parametrize("run", _runs(), ids=_run_id)
def test_churn_outputs_pinned(run):
    ops = _ops(run)
    state, decisions = _per_op(run, ops)
    assert state + (_digest(decisions),) == _GOLDEN[_run_id(run)]
    batched_state, batch_decisions = _batched(run, ops)
    assert batched_state == state
    assert batch_decisions == {k: decisions[k] for k in batch_decisions}


def test_runs_cover_the_grid():
    runs = _runs()
    assert len(runs) >= 24
    assert {run[0] for run in runs} == set(_SHAPES)
    assert {run[4] for run in runs} == set(_RATIOS)
    assert {run[5] for run in runs} == set(_DRIFTS)
    for column in (1, 2, 3):
        assert len({run[column] for run in runs}) == 2
    for drift in _DRIFTS[1:]:
        rebuilds = [_GOLDEN[_run_id(run)][2] for run in runs if run[5] == drift]
        assert any(rebuilds), f"drift policy {drift} must trigger rebuilds"
