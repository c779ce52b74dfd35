"""The churn repair pinned against its numpy-scored reference, bit for bit.

:class:`repro.dynamic.LocalRepairer` scores its few candidates per move
with scalar ``d_1``/``d_2`` expressions over the tracker's ``dis`` list.
:class:`tests.oracles.dynamic.ReferenceRepairer` makes the same moves
with the vectorized formulas over a ``float64`` copy of ``dis``, picking
with ``np.argmin`` and a stable ``np.argsort`` over id-sorted candidates.

Each example drives two maintainers through one churn stream: one as
shipped, one with the reference repairer swapped in.  The stream runs on
an Erdős–Rényi or powerlaw-cluster graph, unit or with random edge
weights, in one of the ``insert``/``sliding``/``mixed`` shapes (fresh
``("dyn", k)`` nodes included), at p in {0.3, 0.5, 0.7}, under a random
batch split and drift policy.  After every batch both must agree exactly
on ``G'`` (edges in order), the stats, ``repr(Δ)``,
``repr(approx_delta)`` and the batch's drift decision.  Candidate sets
come from sets of node labels whose order follows ``PYTHONHASHSEED``,
so CI runs this file under two hash seeds.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.dynamic import DriftMonitor, IncrementalShedder, generate_workload
from repro.graph.generators import erdos_renyi, powerlaw_cluster
from repro.uncertain import attach_random_weights
from tests.oracles.dynamic import ReferenceRepairer

#: (drift_ratio, cooldown_ops): the default policy, and one that rebuilds.
_DRIFTS = ((1.0, 0), (0.3, 5))


@st.composite
def churn_streams(draw):
    seed = draw(st.integers(0, 2**16))
    n = draw(st.integers(10, 40))
    if draw(st.sampled_from(["er", "plc"])) == "er":
        graph = erdos_renyi(n, draw(st.sampled_from([0.15, 0.3])), seed=seed)
    else:
        graph = powerlaw_cluster(n, draw(st.integers(1, 3)), 0.3, seed=seed)
    if graph.num_edges == 0:
        graph.add_edge(0, 1)
    if draw(st.booleans()):
        graph = attach_random_weights(graph, seed=seed)
    p = draw(st.sampled_from([0.3, 0.5, 0.7]))
    shape = draw(st.sampled_from(["insert", "sliding", "mixed"]))
    num_ops = draw(st.integers(1, 300))
    ops = generate_workload(shape, graph, num_ops, seed=draw(st.integers(0, 2**31 - 1)))
    cuts = draw(st.lists(st.integers(0, num_ops), max_size=6))
    bounds = [0, *sorted(cuts), num_ops]
    batches = [ops[a:b] for a, b in zip(bounds, bounds[1:])]
    drift = draw(st.sampled_from(_DRIFTS))
    return graph, p, batches, drift, seed


def _maintainer(graph, p, drift, seed):
    ratio, cooldown = drift
    monitor = DriftMonitor(p, drift_ratio=ratio, cooldown_ops=cooldown)
    return IncrementalShedder(graph.copy(), p, drift=monitor, seed=seed)


def _state(shedder, report):
    return (
        list(shedder.reduced.edges()),
        dict(shedder.stats),
        repr(shedder.delta),
        repr(shedder.tracker.approx_delta),
        repr(report),
    )


@given(churn_streams())
@settings(max_examples=60, deadline=None)
def test_repair_matches_numpy_reference(stream):
    graph, p, batches, drift, seed = stream
    shipped = _maintainer(graph, p, drift, seed)
    reference = _maintainer(graph, p, drift, seed)
    reference._repairer = ReferenceRepairer(
        reference.graph, reference.reduced, reference.tracker
    )
    assert _state(shipped, None) == _state(reference, None)
    for batch in batches:
        assert _state(shipped, shipped.apply_ops(batch)) == _state(
            reference, reference.apply_ops(batch)
        )
