"""``sharded-crr``: a 6*10^4-edge planted-community file through sharded CRR.

``read_edge_list`` -> ``ShardedShedder(method="crr", num_shards=2,
num_workers=2, num_betweenness_sources=64).reduce(g, 0.5)`` ->
``write_edge_list``.  The input has 8 planted communities with 95% of
edges inside one, so community partitioning finds two balanced shards
and two workers have real work; a plain hub-skewed graph partitions into
one giant shard.  Throughput counts input edges from file to artifact.

The traced replay runs the runner's stages through the public pieces
(``partition_graph``, ``crr_initial_ids``/``crr_rewire_ids`` per shard
view, ``reconcile_ids``, ``subgraph_from_edge_ids``, ``compute_delta``)
with shards run one after another, and must write a byte-identical
artifact.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from checks import check_artifact, round_half_up
from harness import Round, stamp, timing
from inputs import planted_community_edges, write_edge_file
from repro.core.crr import crr_initial_ids, crr_rewire_ids
from repro.core.discrepancy import compute_delta
from repro.core.discrepancy import round_half_up as program_round_half_up
from repro.graph.io import read_edge_list, write_edge_list
from repro.rng import ensure_rng
from repro.shard import ShardedShedder, partition_graph, reconcile_ids

P = 0.5
NODES = 12_000
EDGES = 60_000
SHARDS = 2
WORKERS = 2
SOURCES = 64
STEPS_FACTOR = 10.0  # ShardedShedder's default
NOMINAL_ROUND_S = 5.0
MIN_SPAN_COVERAGE = 0.95  # the traced replay must account for its wall clock


@dataclass
class Inputs:
    seed: int
    path: Path
    out: Path
    edge_u: np.ndarray
    edge_v: np.ndarray


def prepare(workdir: Path, seed: int, scale: float) -> Inputs:
    rng = np.random.default_rng([seed, 2])
    edge_u, edge_v = planted_community_edges(
        max(int(NODES * scale), 400), max(int(EDGES * scale), 2000), rng
    )
    path = workdir / "communities.txt"
    write_edge_file(path, edge_u, edge_v, f"planted-community edge list, seed {seed}")
    return Inputs(seed, path, workdir / "communities.reduced.txt", edge_u, edge_v)


def _shedder(seed: int) -> ShardedShedder:
    return ShardedShedder(
        method="crr",
        num_shards=SHARDS,
        num_workers=WORKERS,
        num_betweenness_sources=SOURCES,
        seed=seed,
    )


def run_round(inputs: Inputs) -> Round:
    started = stamp()
    graph = read_edge_list(inputs.path)
    loaded = stamp()
    result = _shedder(inputs.seed).reduce(graph, P)
    write_edge_list(result.reduced, inputs.out)
    done = stamp()  # the shard pool is joined inside reduce, so its CPU counts
    partition = result.stats["partition"]
    return Round(
        **timing(started, loaded, done, graph.num_edges, work_from=started),
        latencies=[done[0] - started[0]],
        avg_delta=result.average_delta,
        guards={
            "kept_edges": result.reduced.num_edges,
            "avg_delta": repr(result.average_delta),
            "partition_method": partition["method"],
            "shard_nodes": partition["shard_nodes"],
            "shard_interior_edges": partition["shard_interior_edges"],
            "boundary_edges": partition["boundary_edges"],
        },
        keep={
            "delta": result.delta,
            "input_edges": graph.num_edges,
            "nodes_kept": set(result.reduced.nodes()) == set(graph.nodes()),
            "shard_seconds": result.stats["shard_seconds"],
        },
    )


def check_round(inputs: Inputs, current: Round, tally, first: bool) -> None:
    target = round_half_up(P * current.keep["input_edges"])
    problems, facts = check_artifact(
        inputs.out, inputs.edge_u, inputs.edge_v, P, current.keep["delta"], expect_edges=target
    )
    if not current.keep["nodes_kept"]:
        problems.append("V' != V in the reduced graph")
    if current.guards["partition_method"] != "community":
        problems.append("partitioning fell back to contiguous shards")
    current.guards["artifact_sha256"] = facts["sha256"]
    tally.record(not problems, "; ".join(problems))


def traced(inputs: Inputs, tracer, untraced: Round):
    """Replay the sharded path stage by stage, shards run serially."""
    out = inputs.out.with_name("communities.traced.txt")
    seed = inputs.seed
    start = time.perf_counter()
    with tracer.span("graph.io.read"):
        graph = read_edge_list(inputs.path)
    with tracer.span("graph.csr.snapshot"):
        csr = graph.csr()
    with tracer.span("shard.partition"):
        plan = partition_graph(graph, SHARDS, method="community", seed=seed)
    kept_u, kept_v, accepted = [], [], 0
    for shard in plan.shards:
        view = shard.view
        rng = ensure_rng(seed)
        stats = {}
        target = program_round_half_up(P * view.num_edges)
        steps = program_round_half_up(STEPS_FACTOR * P * view.num_edges)
        with tracer.span("core.crr.rank", shard=shard.index):
            local_u, local_v = crr_initial_ids(view, target, "betweenness", SOURCES, rng)
        with tracer.span("core.crr.rewire", shard=shard.index):
            local_u, local_v = crr_rewire_ids(view, P, local_u, local_v, steps, rng, stats)
        accepted += stats["accepted_swaps"]
        kept_u.append(shard.node_ids[local_u])
        kept_v.append(shard.node_ids[local_v])
    with tracer.span("shard.reconcile"):
        final_u, final_v = reconcile_ids(
            plan.csr,
            P,
            np.concatenate(kept_u),
            np.concatenate(kept_v),
            plan.boundary_u,
            plan.boundary_v,
            {},
            target=program_round_half_up(P * plan.csr.num_edges),
        )
    with tracer.span("graph.csr.materialize"):
        reduced = plan.csr.subgraph_from_edge_ids(final_u, final_v)
    with tracer.span("core.discrepancy.delta"):
        delta = compute_delta(graph, reduced, P)
    with tracer.span("graph.io.write"):
        write_edge_list(reduced, out)
    end = time.perf_counter()

    problems, facts = check_artifact(
        out, inputs.edge_u, inputs.edge_v, P, delta,
        expect_edges=round_half_up(P * csr.num_edges),
    )
    if facts["sha256"] != untraced.guards["artifact_sha256"]:
        problems.append("traced replay wrote a different artifact")
    interior = [shard.interior_edges for shard in plan.shards]
    serial_shards = tracer.total("core.crr.rank") + tracer.total("core.crr.rewire")
    layers = {
        "graph.io.read_s": tracer.total("graph.io.read"),
        "graph.csr.snapshot_s": tracer.total("graph.csr.snapshot"),
        "graph.csr.bytes": float(csr.indptr.nbytes + csr.indices.nbytes),
        "shard.partition_s": tracer.total("shard.partition"),
        "shard.boundary_share": plan.num_boundary / csr.num_edges,
        "shard.edge_imbalance": max(interior) / (sum(interior) / len(interior)),
        "shard.partition_fallback": float(plan.method != "community"),
        "core.crr.rank_s": tracer.total("core.crr.rank"),
        "core.crr.rewire_s": tracer.total("core.crr.rewire"),
        "core.crr.accepted_swaps": float(accepted),
        "shard.reconcile_s": tracer.total("shard.reconcile"),
        # Serial shard time over the worker-seconds the 2-worker pool of
        # the untraced pass spent (its shard_seconds, program-reported).
        "graph.parallel.efficiency": serial_shards / (WORKERS * untraced.keep["shard_seconds"]),
        "graph.csr.materialize_s": tracer.total("graph.csr.materialize"),
        "core.discrepancy.delta_s": tracer.total("core.discrepancy.delta"),
        "graph.io.write_s": tracer.total("graph.io.write"),
    }
    return layers, (start, end), problems
