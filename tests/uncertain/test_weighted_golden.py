"""Golden outputs of the CRR/BM2 engines at fractional edge weights.

The degeneration tests pin the weighted engines only at all-ones weights,
and the quality tests only compare them against the weight-blind engines.
This file pins what they actually return on probabilistic inputs: for
every run, the kept edges in order, ``repr(delta)`` and the stats dict
(``*_seconds`` timings dropped, keys in order).  A refactor of the
weighted paths must reproduce them bit for bit; the stats check also
pins the weighted shedders' stats keys and their order.  The plain CRR
and BM2 runs on the same graphs pin the weight-blind engines beside them.

Graph 3 keeps the generator's continuous weights.  Graph 8 rounds them
to quarters, so exact zero gains occur and ``accept_zero_gain`` changes
the repair's selections.  The EDCS runs use ``β = 2``, small enough that
candidate pruning fires on these 160-node graphs.

Kept-edge lists and stats dicts are stored as SHA-256 prefixes of their
``repr``; the kept-edge count and ``Δ`` are stored in clear.
"""

import hashlib

import pytest

from repro.core import BM2Shedder, CRRShedder
from repro.uncertain import (
    WeightedBM2Shedder,
    WeightedCRRShedder,
    uncertain_powerlaw_cluster,
)

_GRAPH_SEEDS = (3, 8)
_RATIOS = (0.3, 0.6)


def _shedder(name):
    if name == "crr":
        return CRRShedder(seed=0, num_betweenness_sources=16)
    if name == "w-crr":
        return WeightedCRRShedder(seed=0, num_betweenness_sources=16)
    if name == "bm2":
        return BM2Shedder(seed=0)
    _, sparsify, zero = name.split(":")
    return WeightedBM2Shedder(
        seed=0,
        sparsify=sparsify,
        sparsify_beta=2 if sparsify == "edcs" else None,
        accept_zero_gain=zero == "zero",
    )


_METHODS = (
    "crr",
    "w-crr",
    "bm2",
    "w-bm2:off:nonzero",
    "w-bm2:off:zero",
    "w-bm2:edcs:nonzero",
    "w-bm2:edcs:zero",
)


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _record(result):
    kept = list(result.reduced.edges())
    stats = [
        (key, value)
        for key, value in result.stats.items()
        if not key.endswith("_seconds")
    ]
    return len(kept), _digest(kept), repr(result.delta), _digest(stats)


#: (graph seed, p, method) -> (kept edges, kept-edge digest, repr(delta),
#: stats digest).
_GOLDEN = {
    (3, 0.3, 'crr'):
        (141, '4f9e6db0c93654a5', '47.00000000000008', 'b4dbbe940723144d'),
    (3, 0.3, 'w-crr'):
        (141, '4bb8e2b75427551d', '67.40000000000006', 'd0774a25640bede7'),
    (3, 0.3, 'bm2'):
        (146, '8d580b2b0fe31e48', '50.00000000000006', 'f9c2102cec62df0f'),
    (3, 0.3, 'w-bm2:off:nonzero'):
        (147, '0b651a4d8884d280', '99.79999999999997', 'cf2d18f15a557ee5'),
    (3, 0.3, 'w-bm2:off:zero'):
        (147, '0b651a4d8884d280', '99.79999999999997', 'cf2d18f15a557ee5'),
    (3, 0.3, 'w-bm2:edcs:nonzero'):
        (145, '0f930ae1dd256d38', '100.59999999999997', '6dca9ab606c55224'),
    (3, 0.3, 'w-bm2:edcs:zero'):
        (145, '0f930ae1dd256d38', '100.59999999999997', '6dca9ab606c55224'),
    (3, 0.6, 'crr'):
        (283, 'ebb1dbd5bbbae211', '47.60000000000004', '1c905f088e76a678'),
    (3, 0.6, 'w-crr'):
        (283, 'cd2a276df6df9a91', '72.80000000000008', '69e6791afe6205b5'),
    (3, 0.6, 'bm2'):
        (265, 'a214e12c4cd80625', '87.59999999999997', 'f7c836d962418a85'),
    (3, 0.6, 'w-bm2:off:nonzero'):
        (284, '7776ff78300c0ce3', '113.19999999999999', 'e95287288f06f113'),
    (3, 0.6, 'w-bm2:off:zero'):
        (284, '7776ff78300c0ce3', '113.19999999999999', 'e95287288f06f113'),
    (3, 0.6, 'w-bm2:edcs:nonzero'):
        (283, '72897f5270874fa1', '113.2', '24915a15d2bc4848'),
    (3, 0.6, 'w-bm2:edcs:zero'):
        (283, '72897f5270874fa1', '113.2', '24915a15d2bc4848'),
    (8, 0.3, 'crr'):
        (141, '9a9f210191c71231', '48.6000000000001', 'f0e9e81f15464510'),
    (8, 0.3, 'w-crr'):
        (141, 'e5ce1f565c5ff0ab', '66.00000000000009', 'd1a3513f358aaf5d'),
    (8, 0.3, 'bm2'):
        (145, 'a67517ed05c8c03e', '56.000000000000064', '188b940d11c58158'),
    (8, 0.3, 'w-bm2:off:nonzero'):
        (133, 'd7761262726f3f75', '80.99999999999999', 'd541371a90c606bd'),
    (8, 0.3, 'w-bm2:off:zero'):
        (134, '9536b85e0b6513ba', '80.79999999999998', 'e2aa1f643e183c6e'),
    (8, 0.3, 'w-bm2:edcs:nonzero'):
        (133, 'd7761262726f3f75', '80.99999999999999', '61ed701fa58a47fa'),
    (8, 0.3, 'w-bm2:edcs:zero'):
        (134, '9536b85e0b6513ba', '80.79999999999998', '1b8815957321f647'),
    (8, 0.6, 'crr'):
        (283, '748e4cd28086970b', '47.20000000000004', '1247ff9bf1620edc'),
    (8, 0.6, 'w-crr'):
        (283, '0351d7347f755b33', '64.00000000000007', '6f5d926fe73f3f6d'),
    (8, 0.6, 'bm2'):
        (271, 'fafe2531da6348fe', '81.19999999999997', '899e3dce7cb1e2ba'),
    (8, 0.6, 'w-bm2:off:nonzero'):
        (286, '5af9da1e46357878', '110.79999999999998', 'a1c6f64531b89e2c'),
    (8, 0.6, 'w-bm2:off:zero'):
        (288, 'a5abc39d6210eeb0', '112.39999999999999', '8a6c0c5db8b704f8'),
    (8, 0.6, 'w-bm2:edcs:nonzero'):
        (286, '5af9da1e46357878', '110.79999999999998', '631d616327e6ebd6'),
    (8, 0.6, 'w-bm2:edcs:zero'):
        (288, 'a5abc39d6210eeb0', '112.39999999999999', '2ff72824b28e89ab'),
}


def _graph(seed):
    graph = uncertain_powerlaw_cluster(160, 3, 0.3, seed=seed)
    if seed == 8:
        for u, v, w in list(graph.edge_weights()):
            graph.set_edge_weight(u, v, max(0.25, round(w * 4) / 4))
    return graph


@pytest.fixture(scope="module")
def graphs():
    return {seed: _graph(seed) for seed in _GRAPH_SEEDS}


@pytest.mark.parametrize("method", _METHODS)
@pytest.mark.parametrize("p", _RATIOS)
@pytest.mark.parametrize("graph_seed", _GRAPH_SEEDS)
def test_fractional_weight_outputs_pinned(graphs, graph_seed, p, method):
    result = _shedder(method).reduce(graphs[graph_seed], p)
    assert _record(result) == _GOLDEN[(graph_seed, p, method)]
