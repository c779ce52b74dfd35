"""``file-bm2``: a 5*10^5-edge hub-skewed edge list through the CLI's path.

``read_edge_list`` -> ``make_shedder("bm2-sparse").reduce(g, 0.4)`` ->
``write_edge_list``.  p = 0.4 because p = 0.5 empties BM2's group B.
Set-up is the read; throughput counts input edges through reduce and
artifact write.  The traced replay runs the same path through the public
pieces (CSR snapshot, ``bm2_reduce_ids``, ``subgraph_from_edge_ids``,
``compute_delta``) and must write a byte-identical artifact.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from checks import check_artifact
from harness import Round, stamp, timing
from inputs import hub_skewed_edges, write_edge_file
from repro.core.bm2 import bm2_reduce_ids
from repro.core.discrepancy import compute_delta
from repro.graph.io import read_edge_list, write_edge_list
from repro.service.request import make_shedder

P = 0.4
NODES = 100_000
EDGES = 500_000
METHOD = "bm2-sparse"
NOMINAL_ROUND_S = 6.0
MIN_SPAN_COVERAGE = 0.95  # the traced replay must account for its wall clock


@dataclass
class Inputs:
    seed: int
    path: Path
    out: Path
    edge_u: np.ndarray
    edge_v: np.ndarray


def prepare(workdir: Path, seed: int, scale: float) -> Inputs:
    rng = np.random.default_rng([seed, 1])
    edge_u, edge_v = hub_skewed_edges(max(int(NODES * scale), 50), max(int(EDGES * scale), 200), rng)
    path = workdir / "hub.txt"
    write_edge_file(path, edge_u, edge_v, f"hub-skewed edge list, seed {seed}")
    return Inputs(seed, path, workdir / "hub.reduced.txt", edge_u, edge_v)


def run_round(inputs: Inputs) -> Round:
    started = stamp()
    graph = read_edge_list(inputs.path)
    loaded = stamp()
    result = make_shedder(METHOD, seed=inputs.seed).reduce(graph, P)
    write_edge_list(result.reduced, inputs.out)
    done = stamp()
    nodes_kept = set(result.reduced.nodes()) == set(graph.nodes())
    return Round(
        **timing(started, loaded, done, graph.num_edges),
        latencies=[done[0] - loaded[0]],
        avg_delta=result.average_delta,
        guards={"kept_edges": result.reduced.num_edges, "avg_delta": repr(result.average_delta)},
        keep={"delta": result.delta, "nodes_kept": nodes_kept},
    )


def check_round(inputs: Inputs, current: Round, tally, first: bool) -> None:
    problems, facts = check_artifact(
        inputs.out, inputs.edge_u, inputs.edge_v, P, current.keep["delta"]
    )
    if not current.keep["nodes_kept"]:
        problems.append("V' != V in the reduced graph")
    if facts["kept_edges"] != current.guards["kept_edges"]:
        problems.append("artifact edge count differs from the reduced graph")
    current.guards["artifact_sha256"] = facts["sha256"]
    tally.record(not problems, "; ".join(problems))


def traced(inputs: Inputs, tracer, untraced: Round):
    """Replay the path through the public pieces, one span per layer."""
    out = inputs.out.with_name("hub.traced.txt")
    stats = {}
    start = time.perf_counter()
    with tracer.span("graph.io.read"):
        graph = read_edge_list(inputs.path)
    with tracer.span("graph.csr.snapshot"):
        csr = graph.csr()
    with tracer.span("core.bm2.phases"):
        kept_u, kept_v = bm2_reduce_ids(csr, P, stats, seed=inputs.seed, sparsify="edcs")
    with tracer.span("graph.csr.materialize"):
        reduced = csr.subgraph_from_edge_ids(kept_u, kept_v)
    with tracer.span("core.discrepancy.delta"):
        delta = compute_delta(graph, reduced, P)
    with tracer.span("graph.io.write"):
        write_edge_list(reduced, out)
    end = time.perf_counter()
    problems, facts = check_artifact(out, inputs.edge_u, inputs.edge_v, P, delta)
    if facts["sha256"] != untraced.guards["artifact_sha256"]:
        problems.append("traced replay wrote a different artifact")
    layers = {
        "graph.io.read_s": tracer.total("graph.io.read"),
        "graph.csr.snapshot_s": tracer.total("graph.csr.snapshot"),
        "graph.csr.bytes": float(csr.indptr.nbytes + csr.indices.nbytes),
        "core.bm2.phases_s": tracer.total("core.bm2.phases"),
        "core.bm2.phase1_s": stats["phase1_seconds"],
        "core.bm2.phase2_s": stats["phase2_seconds"],
        "core.bm2.phase2_candidates": float(stats["candidate_edges"]),
        "core.bm2.phase2_pruned": float(stats["phase2_candidate_edges_pruned"]),
        "graph.csr.materialize_s": tracer.total("graph.csr.materialize"),
        "core.discrepancy.delta_s": tracer.total("core.discrepancy.delta"),
        "graph.io.write_s": tracer.total("graph.io.write"),
    }
    return layers, (start, end), problems
