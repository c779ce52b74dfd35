"""Golden outputs of the sharded runner over seeded multi-shard runs.

The other shard suites compare sharded runs with whole-graph runs, with
each other, or with the documented bounds; this file pins what
:class:`ShardedShedder` actually returns.  Each run reduces one of two
90-node graphs: a planted three-block graph (dense blocks, sparse
cross-block edges) with integer labels, or a powerlaw-cluster graph
whose nodes carry string labels in shuffled order.  The runs cover CRR
with sampled betweenness, BM2 with ``sparsify`` off and ``"edcs"``,
1, 2 and 3 shards, 1 and 2 workers, both partitions and three values
of ``p``.

The edge count, ``repr(Δ)``, ``repr(delta_bound)``, the boundary edge
count, the admitted, filled and demoted counts and the partition's
method, sweeps and converged flag are stored in clear.  The reduced edge
list and the per-shard kept counts are stored as SHA-256 prefixes of
their ``repr``.  String labels hash differently under each
``PYTHONHASHSEED``, so CI runs this file under two hash seeds.
"""

import hashlib
import itertools

import numpy as np
import pytest

from repro.graph import Graph
from repro.graph.generators import powerlaw_cluster, stochastic_block_model
from repro.shard import ShardedShedder

_RATIOS = (0.3, 0.5, 0.7)
_SHARDS = (1, 2, 3)
#: (method, extra ShardedShedder arguments) of the three engine settings.
_ENGINES = (
    ("crr", {"num_betweenness_sources": 8}),
    ("bm2", {}),
    ("bm2", {"sparsify": "edcs"}),
)


def _runs():
    """24 runs: engine × graph kind × partition × workers, with p and shards mixed in.

    Every block of 3 consecutive runs covers each shard count once, and
    the p cycle is offset so each (shards, p) pair occurs.
    """
    runs = []
    for index, (engine, kind, partition, workers) in enumerate(
        itertools.product(
            range(len(_ENGINES)), ("sbm", "plc"), ("community", "contiguous"), (1, 2)
        )
    ):
        shards = _SHARDS[index % 3]
        p = _RATIOS[(index + index // 3) % 3]
        runs.append((engine, kind, partition, workers, shards, p, index))
    return runs


def _run_id(run):
    engine, kind, partition, workers, shards, p, index = run
    method, options = _ENGINES[engine]
    variant = "-edcs" if options.get("sparsify") == "edcs" else ""
    return (
        f"{index:02d}-{method}{variant}-{kind}-{partition}"
        f"-s{shards}-w{workers}-p{p}"
    )


def _graph(kind, seed):
    if kind == "sbm":
        inside, across = 0.25, 0.02
        probabilities = [[inside if a == b else across for b in range(3)] for a in range(3)]
        return stochastic_block_model([30, 30, 30], probabilities, seed=seed)
    base = powerlaw_cluster(90, 3, 0.3, seed=seed)
    order = np.random.default_rng(seed).permutation(base.num_nodes)
    label = {node: f"n{int(order[i]):02d}" for i, node in enumerate(base.nodes())}
    graph = Graph(nodes=[label[node] for node in base.nodes()])
    for u, v in base.edges():
        graph.add_edge(label[u], label[v])
    return graph


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _record(run):
    engine, kind, partition, workers, shards, p, index = run
    method, options = _ENGINES[engine]
    shedder = ShardedShedder(
        method=method,
        num_shards=shards,
        num_workers=workers,
        partition=partition,
        seed=index,
        **options,
    )
    result = shedder.reduce(_graph(kind, seed=index), p)
    stats = result.stats
    plan = stats["partition"]
    return (
        result.reduced.num_edges,
        repr(result.delta),
        repr(stats["delta_bound"]),
        stats["boundary_edges"],
        stats["boundary_admitted"],
        stats["boundary_filled"],
        stats["demoted"],
        plan["method"],
        plan["sweeps"],
        plan["converged"],
        _digest(list(result.reduced.edges())),
        _digest([entry["kept_edges"] for entry in stats["per_shard"]]),
    )


#: run id -> (|E'|, repr(Δ), repr(delta_bound), boundary edges, admitted,
#: filled, demoted, partition method, sweeps, converged, reduced-edges
#: digest, per-shard kept-count digest).
_GOLDEN = {
    '00-crr-sbm-community-s1-w1-p0.3': (
        115, '27.800000000000008', '27.799999999999983', 0, 0, 0, 0,
        'community', 0, None,
        'fa28b3885f9b2014', 'dc65bd84db846eeb',
    ),
    '01-crr-sbm-community-s2-w2-p0.5': (
        189, '28.0', '68.0', 35, 13, 4, 0,
        'community', 5, True,
        'bab1012b0ae89b65', 'd6b1a852c99b8397',
    ),
    '02-crr-sbm-contiguous-s3-w1-p0.7': (
        269, '26.000000000000007', '127.39999999999999', 71, 50, 0, 1,
        'contiguous', 0, None,
        '943cd73b5a8be033', '1947f3011537925f',
    ),
    '03-crr-sbm-contiguous-s1-w2-p0.5': (
        199, '29.0', '29.0', 0, 0, 0, 0,
        'contiguous', 0, None,
        '3bdb653c1c877b82', '75ca152b32ce4c50',
    ),
    '04-crr-plc-community-s2-w1-p0.7': (
        183, '25.000000000000007', '225.0', 140, 101, 0, 2,
        'contiguous', 2, True,
        '067190f16bb81b60', 'be26dfe380034032',
    ),
    '05-crr-plc-community-s3-w2-p0.3': (
        78, '23.400000000000016', '134.79999999999998', 174, 54, 0, 3,
        'contiguous', 13, True,
        '6d63bc02dfff6549', '1fc03be6ff4cfc8f',
    ),
    '06-crr-plc-contiguous-s1-w1-p0.7': (
        183, '23.80000000000002', '23.799999999999958', 0, 0, 0, 0,
        'contiguous', 0, None,
        'b0105df88f56455a', 'a32256b3b38e421d',
    ),
    '07-crr-plc-contiguous-s2-w2-p0.3': (
        78, '22.80000000000003', '107.19999999999999', 126, 41, 0, 3,
        'contiguous', 0, None,
        '440633e14946e203', '0583b20813224751',
    ),
    '08-bm2-sbm-community-s3-w1-p0.5': (
        171, '43.0', '85.0', 42, 17, 0, 0,
        'community', 5, True,
        '2ca7d3643d3f0987', '976496ad24102a12',
    ),
    '09-bm2-sbm-community-s1-w2-p0.3': (
        114, '27.40000000000001', '27.400000000000013', 0, 0, 0, 0,
        'community', 0, None,
        '5c9d98aa4ee468f1', '02802f66bfe7715d',
    ),
    '10-bm2-sbm-contiguous-s2-w1-p0.5': (
        188, '39.0', '149.0', 109, 48, 0, 0,
        'contiguous', 0, None,
        'a4572421d81f03a2', '49fb987e5504d4a9',
    ),
    '11-bm2-sbm-contiguous-s3-w2-p0.7': (
        265, '50.6', '162.8', 79, 50, 0, 0,
        'contiguous', 0, None,
        '6b2ecbc0f5357c9a', '8197aff25f7fbb0d',
    ),
    '12-bm2-plc-community-s1-w1-p0.5': (
        124, '37.0', '37.0', 0, 0, 0, 0,
        'community', 0, None,
        'af0fc3b9e220ac2f', 'a0e7ee310005c50a',
    ),
    '13-bm2-plc-community-s2-w2-p0.7': (
        184, '25.200000000000003', '206.79999999999998', 123, 89, 0, 0,
        'contiguous', 9, True,
        'c52c24d6839169de', '38ee564e9f9c28cb',
    ),
    '14-bm2-plc-contiguous-s3-w1-p0.3': (
        83, '23.200000000000024', '139.0', 192, 67, 0, 0,
        'contiguous', 0, None,
        'e1dce3e839ded2f4', 'f4bbf026a977fdd4',
    ),
    '15-bm2-plc-contiguous-s1-w2-p0.7': (
        183, '40.80000000000003', '40.8', 0, 0, 0, 0,
        'contiguous', 0, None,
        '6ba3a4b75eca0adc', 'a32256b3b38e421d',
    ),
    '16-bm2-edcs-sbm-community-s2-w1-p0.3': (
        111, '25.400000000000013', '48.6', 36, 8, 0, 0,
        'community', 7, True,
        '6881139d4d6ae6a5', 'f1ed142d1b1551e1',
    ),
    '17-bm2-edcs-sbm-community-s3-w2-p0.5': (
        173, '45.0', '93.0', 43, 18, 0, 0,
        'community', 4, True,
        '11ec591705d3dfea', 'd1cb83fc30a663af',
    ),
    '18-bm2-edcs-sbm-contiguous-s1-w1-p0.3': (
        121, '25.800000000000004', '25.800000000000004', 0, 0, 0, 0,
        'contiguous', 0, None,
        '439fa5934c5ea94a', 'ed6be4acfc5393a4',
    ),
    '19-bm2-edcs-sbm-contiguous-s2-w2-p0.5': (
        194, '39.0', '150.0', 104, 44, 0, 0,
        'contiguous', 0, None,
        'ec1aaff41f5cabf7', 'ae9fe210c05e7e0e',
    ),
    '20-bm2-edcs-plc-community-s3-w1-p0.7': (
        180, '45.00000000000002', '256.59999999999997', 162, 108, 0, 0,
        'contiguous', 5, True,
        'c413f6224ecf8e2d', '00df7fd2b504f756',
    ),
    '21-bm2-edcs-plc-community-s1-w2-p0.5': (
        124, '43.0', '43.0', 0, 0, 0, 0,
        'community', 0, None,
        '35382b3c02b4a364', 'a0e7ee310005c50a',
    ),
    '22-bm2-edcs-plc-contiguous-s2-w1-p0.7': (
        177, '41.60000000000003', '210.2', 122, 82, 0, 0,
        'contiguous', 0, None,
        'd9efdaa36de9cc65', '1d5efc549aabdb99',
    ),
    '23-bm2-edcs-plc-contiguous-s3-w2-p0.3': (
        76, '34.8', '131.2', 178, 54, 0, 0,
        'contiguous', 0, None,
        'c27cd7e44a317598', 'ea9b89ffc23c38bb',
    ),
}


def test_golden_covers_every_run():
    assert sorted(_GOLDEN) == sorted(_run_id(run) for run in _runs())
    assert len(_GOLDEN) >= 24


@pytest.mark.parametrize("run", _runs(), ids=_run_id)
def test_sharded_run_matches_golden(run):
    assert _record(run) == _GOLDEN[_run_id(run)]
