"""Dynamic shedding: incremental Δ-maintenance under live edge churn.

The offline engines (:mod:`repro.core`) answer the paper's static question;
this package keeps their answer *alive* while the graph mutates.  The
division of labour:

* :class:`DynamicDegreeTracker` — growable array-native ``(deg, current,
  dis)`` state; O(1) per event, bit-identical checkpoint Δ.
* :class:`IncrementalShedder` — owns ``(G, G')``; capacity-gated
  admission on insert, eviction on delete, O(1) amortized per op.  Its
  :meth:`~IncrementalShedder.apply_ops` is the one implementation of an
  op; ``insert``/``delete``/``apply`` are one-op calls of it.
* :class:`LocalRepairer` — localized demote / promote / swap repair
  around the touched endpoints, with fixed move budgets; the maintainer
  runs it after every op unless built with ``repair=False``.
* :class:`DriftMonitor` / :class:`DriftDecision` — rebuild policy against
  the Theorem-2 envelope at the live graph size, with hysteresis.
* :mod:`~repro.dynamic.workloads` — seeded churn generators for tests,
  benchmarks and the ``dynamic`` CLI subcommand.
"""

from repro.dynamic.drift import DriftDecision, DriftMonitor
from repro.dynamic.maintainer import BatchReport, ChurnOp, IncrementalShedder
from repro.dynamic.repair import LocalRepairer
from repro.dynamic.tracker import DynamicDegreeTracker
from repro.dynamic.workloads import (
    WORKLOADS,
    generate_workload,
    insert_only_growth,
    mixed_churn,
    sliding_window,
)

__all__ = [
    "BatchReport",
    "ChurnOp",
    "DriftDecision",
    "DriftMonitor",
    "DynamicDegreeTracker",
    "IncrementalShedder",
    "LocalRepairer",
    "WORKLOADS",
    "generate_workload",
    "insert_only_growth",
    "mixed_churn",
    "sliding_window",
]
