"""Reference implementations that pin the runtime engines.

Each module holds the scalar, paper-shaped version of an algorithm whose
runtime implementation in :mod:`repro` is array-native.  Equivalence
suites under ``tests/`` and the speed gates under ``benchmarks/`` import
them from here (``from tests.oracles.core import DegreeTracker``); nothing
in ``src/`` does.

* :mod:`tests.oracles.core` — dict ``DegreeTracker``, greedy b-matching,
  the Algorithm 3 heap, and label-space CRR/BM2 shedders;
* :mod:`tests.oracles.dynamic` — the per-op churn ``insert``/``delete``
  that ``IncrementalShedder.apply_ops`` is pinned against, and the
  numpy-scored ``ReferenceRepairer`` that ``LocalRepairer`` is pinned
  against;
* :mod:`tests.oracles.graph` — dict Brandes betweenness, per-node
  label propagation with its ``Counter`` stopping check, and the
  per-edge graph constructions (line-by-line
  edge-list reader, ``add_edge`` payload replay, grouped-sort subgraph);
* :mod:`tests.oracles.embedding` — scalar node2vec walks, per-center SGNS
  and the node2vec pipeline built from them;
* :mod:`tests.oracles.uds` — the frozenset UDS merge loop.
"""
