"""Micro-benchmark: batched embedding pipeline vs its legacy scalar oracles.

This is the PR's acceptance measurement: on the seeded 2k-node/10k-edge
Erdos-Renyi graph (the same harness ``test_micro_shedding`` uses), the
batched walk generator must beat the legacy per-step scalar walker
(``tests/oracles``) by at least 5x (uniform and biased configurations) and the
mini-batched SGNS trainer must beat the legacy per-center loop by at
least 3x on the same walk corpus.  The numbers are archived as
BenchReports and written to ``BENCH_PR5.json`` at the repository root.

Engines consume the RNG differently, so there is no bitwise-equality
check here (the statistical-equivalence suite in
``tests/embedding/test_walks_statistics.py`` and the link-prediction
utility pin own correctness); the benchmark asserts only structural
invariants (corpus shape, finite embeddings) plus the wall-clock gate.
The gate follows the repository convention: batched timed
best-of-``ARRAY_ROUNDS``, legacy once, hard 2x floor, advisory
acceptance target warning.
"""

from __future__ import annotations

import json
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.bench.harness import BenchReport
from repro.embedding import generate_walk_matrix, train_skipgram
from tests.oracles.embedding import _legacy_generate_walks, legacy_train_skipgram
from repro.graph import erdos_renyi

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The acceptance graph: ~10k edges over 2k nodes, fixed seed.
ACCEPT_NODES = 2000
ACCEPT_EDGES = 10_000
ACCEPT_SEED = 42
#: Walk corpus: 2 epochs x ~2k starts x 20 steps (enough work to swamp
#: dispatch overhead while keeping the legacy side under a minute).
NUM_WALKS = 2
WALK_LENGTH = 20
#: Best-of rounds for the (cheap) batched side; the legacy side runs once.
ARRAY_ROUNDS = 3
#: Hard CI floor (noise-tolerant) vs advisory acceptance targets.
SPEEDUP_FLOOR = 2.0
WALK_TARGET, SGNS_TARGET = 5.0, 3.0


def _check_speedup(label: str, speedup: float, target: float) -> None:
    assert speedup >= SPEEDUP_FLOOR, (
        f"{label}: batched engine only {speedup:.2f}x faster than the legacy "
        f"engine (hard floor {SPEEDUP_FLOOR}x)"
    )
    if speedup < target:
        warnings.warn(
            f"{label}: speedup {speedup:.2f}x is below the {target}x "
            "acceptance target (advisory; likely a noisy runner)",
            stacklevel=2,
        )


def _record(section: str, payload: dict) -> None:
    """Merge one stage's numbers into BENCH_PR5.json (order-independent)."""
    path = REPO_ROOT / "BENCH_PR5.json"
    data = (
        json.loads(path.read_text(encoding="utf-8"))
        if path.exists()
        else {"experiment": "micro_embedding"}
    )
    data[section] = payload
    path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")


@pytest.fixture(scope="module")
def accept_graph():
    p = 2 * ACCEPT_EDGES / (ACCEPT_NODES * (ACCEPT_NODES - 1))
    graph = erdos_renyi(ACCEPT_NODES, p, seed=ACCEPT_SEED)
    graph.csr()  # warm the snapshot both engines share
    return graph


def _graph_payload(graph) -> dict:
    return {
        "generator": "erdos_renyi",
        "nodes": graph.num_nodes,
        "edges": graph.num_edges,
        "seed": ACCEPT_SEED,
    }


def _walk_payload() -> dict:
    return {"num_walks": NUM_WALKS, "walk_length": WALK_LENGTH}


@pytest.mark.parametrize(
    "label,p,q",
    [("uniform", 1.0, 1.0), ("biased", 0.25, 4.0)],
    ids=["uniform", "biased"],
)
def test_walk_engine_speedup(benchmark, accept_graph, archive_report, label, p, q):
    graph = accept_graph

    def run_batched():
        return generate_walk_matrix(
            graph, num_walks=NUM_WALKS, walk_length=WALK_LENGTH, p=p, q=q, seed=0
        )

    matrix = benchmark.pedantic(
        run_batched, rounds=ARRAY_ROUNDS, iterations=1, warmup_rounds=0
    )
    batched_seconds = benchmark.stats.stats.min

    start = time.perf_counter()
    legacy_walks = _legacy_generate_walks(
        graph, num_walks=NUM_WALKS, walk_length=WALK_LENGTH, p=p, q=q, seed=0
    )
    legacy_seconds = time.perf_counter() - start

    # Structural parity: same corpus shape, every row full length.
    assert matrix.shape == (len(legacy_walks), WALK_LENGTH)
    assert all(len(walk) == WALK_LENGTH for walk in legacy_walks)

    speedup = legacy_seconds / batched_seconds
    _check_speedup(f"walks ({label})", speedup, WALK_TARGET)

    report = BenchReport(
        experiment_id=f"micro_embedding_walks_{label}",
        title=f"Batched walk engine vs legacy scalar walker ({label})",
        headers=["graph", "walks", "legacy s", "batched s", "speedup"],
        rows=[
            [
                f"ER n={graph.num_nodes} m={graph.num_edges} seed={ACCEPT_SEED}",
                f"{matrix.shape[0]}x{WALK_LENGTH} p={p} q={q}",
                legacy_seconds,
                batched_seconds,
                speedup,
            ]
        ],
        notes=[
            "One numpy op advances all walks of an epoch one step; the "
            "legacy walker steps one node at a time in Python.",
            "Engines consume the RNG differently — statistical equivalence "
            "is pinned in tests/embedding/test_walks_statistics.py.",
        ],
    )
    archive_report(report)
    _record(
        f"walks_{label}",
        {
            "graph": _graph_payload(graph),
            **_walk_payload(),
            "p": p,
            "q": q,
            "legacy_seconds": round(legacy_seconds, 4),
            "batched_seconds": round(batched_seconds, 4),
            "speedup": round(speedup, 2),
        },
    )


def test_sgns_engine_speedup(benchmark, accept_graph, archive_report):
    graph = accept_graph
    matrix = generate_walk_matrix(
        graph, num_walks=NUM_WALKS, walk_length=WALK_LENGTH, seed=0
    )
    num_nodes = graph.num_nodes
    kwargs = dict(num_nodes=num_nodes, dimensions=32, window=5, negatives=5, epochs=1)

    def run_batched():
        return train_skipgram(matrix, seed=1, **kwargs)

    embeddings = benchmark.pedantic(
        run_batched, rounds=ARRAY_ROUNDS, iterations=1, warmup_rounds=0
    )
    batched_seconds = benchmark.stats.stats.min

    start = time.perf_counter()
    legacy_embeddings = legacy_train_skipgram(matrix, seed=1, **kwargs)
    legacy_seconds = time.perf_counter() - start

    assert embeddings.shape == legacy_embeddings.shape == (num_nodes, 32)
    assert np.isfinite(embeddings).all()
    assert np.isfinite(legacy_embeddings).all()

    speedup = legacy_seconds / batched_seconds
    _check_speedup("SGNS", speedup, SGNS_TARGET)

    report = BenchReport(
        experiment_id="micro_embedding_sgns",
        title="Mini-batched SGNS trainer vs legacy per-center loop",
        headers=["graph", "pairs source", "legacy s", "batched s", "speedup"],
        rows=[
            [
                f"ER n={graph.num_nodes} m={graph.num_edges} seed={ACCEPT_SEED}",
                f"{matrix.shape[0]}x{WALK_LENGTH} walks, window=5, neg=5",
                legacy_seconds,
                batched_seconds,
                speedup,
            ]
        ],
        notes=[
            "Batched: pair arrays built once, shuffled mini-batches, "
            "cumsum/searchsorted negative sampling, adaptive scatter.",
            "Same corpus for both engines; equivalence is statistical "
            "(update granularity differs) — pinned by the link-prediction "
            "utility test.",
        ],
    )
    archive_report(report)
    _record(
        "sgns",
        {
            "graph": _graph_payload(graph),
            **_walk_payload(),
            "dimensions": 32,
            "window": 5,
            "negatives": 5,
            "epochs": 1,
            "legacy_seconds": round(legacy_seconds, 4),
            "batched_seconds": round(batched_seconds, 4),
            "speedup": round(speedup, 2),
        },
    )
