"""Command-line front end.

Subcommands::

    repro-shed reduce      --dataset ca-grqc --method bm2 --p 0.5 [--output out.txt]
    repro-shed evaluate    --dataset ca-grqc --method crr --p 0.5 [--tasks topk,degree]
    repro-shed progressive --dataset ca-grqc --method bm2 --ratios 0.8,0.5,0.2
    repro-shed stats       --dataset ca-grqc [--input edgelist.txt]
    repro-shed dynamic     --dataset ca-grqc --churn mixed --ops 5000
    repro-shed session     --dataset ca-grqc --churn mixed --ops 5000 --sessions 2
    repro-shed bench       --experiment tab8 [--full]
    repro-shed submit      --dataset ca-grqc --method crr --p 0.5 --deadline 30
    repro-shed serve       --jobs jobs.json [--workers 2 --mode thread]
    repro-shed datasets

``reduce``/``evaluate``/``progressive``/``stats`` also accept
``--input edgelist.txt`` to operate on a user-supplied graph instead of a
registry surrogate.  ``reduce``, ``evaluate``, ``stats``, ``dynamic``,
``submit`` and ``serve`` accept ``--json`` for machine-readable output.

``submit`` runs one request through the budgeted
:class:`~repro.service.SheddingService` (admission control, deadline
degradation, artifact cache); ``serve`` drains a JSON file of requests
through one service instance and reports per-job outcomes plus the
service metrics snapshot.  ``session`` drives scripted churn streams
through live :mod:`repro.sessions` streaming sessions, and
``serve --mode stream`` does the same for every job in a jobs file.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional, Tuple

from repro.bench.experiments import ALL_EXPERIMENTS
from repro.core.base import EdgeShedder, ReductionResult
from repro.datasets.registry import DATASETS, load_dataset
from repro.errors import GraphError, ReductionError, ServiceError
from repro.graph.graph import Graph
from repro.graph.io import EdgeListSummary, read_edge_list_with_summary, write_edge_list
from repro.service.request import METHODS, make_shedder
from repro.service.service import DEFAULT_EDGE_BUDGET
from repro.tasks import all_tasks

__all__ = ["main", "build_parser"]

_TASK_KEYS = {
    "degree": "Vertex degree",
    "sp": "SP distance",
    "betweenness": "Betweenness centrality",
    "clustering": "Clustering coefficient",
    "hopplot": "Hop-plot",
    "topk": "Top-k",
    "linkpred": "Link prediction",
    "connectivity": "Connectivity",
    "community": "Community",
}


def _make_shedder(args: argparse.Namespace, **options: Any) -> EdgeShedder:
    """``make_shedder`` over ``--method``/``--seed``/``--sources``; refusals exit in one line."""
    try:
        return make_shedder(args.method, seed=args.seed, num_sources=args.sources, **options)
    except (ServiceError, ValueError) as error:
        raise SystemExit(str(error)) from None


def _require_subgraph(args: argparse.Namespace) -> None:
    """Exit before any graph is loaded when ``--method``'s row keeps edges outside G."""
    spec = METHODS.get(args.method.lower())
    if spec is not None and not spec.subgraph:
        raise SystemExit(f"method {args.method!r} does not shed to a subgraph of G")


def _read_input(
    args: argparse.Namespace, weight_col: Optional[int] = None
) -> Tuple[Graph, EdgeListSummary]:
    """Read ``--input``; an unreadable or malformed file exits in one line."""
    try:
        return read_edge_list_with_summary(args.input, weight_col=weight_col)
    except GraphError as error:
        raise SystemExit(str(error)) from None
    except OSError as error:
        raise SystemExit(f"{args.input}: {error.strerror or error}") from None


def _load_graph(args: argparse.Namespace) -> Graph:
    weighted = getattr(args, "weighted", False)
    weight_col = getattr(args, "weight_col", None)
    if args.input:
        if weight_col is None and weighted:
            weight_col = 2  # the column write_edge_list emits
        return _read_input(args, weight_col)[0]
    if weight_col is not None:
        raise SystemExit("--weight-col only applies to --input edge lists")
    return load_dataset(args.dataset, scale=args.scale, seed=args.seed, weighted=weighted)


def _graph_ref(args: argparse.Namespace) -> str:
    """The service ``graph_ref`` string equivalent to :func:`_load_graph`."""
    if args.input:
        return f"file:{args.input}"
    if args.scale is not None:
        return f"dataset:{args.dataset}:{args.scale:g}"
    return f"dataset:{args.dataset}"


def _reduction_dict(result: ReductionResult) -> Dict[str, Any]:
    """JSON-friendly rendering of one reduction (shared by ``--json`` modes)."""
    payload = {
        "method": result.method,
        "p": result.p,
        "original_nodes": result.original.num_nodes,
        "original_edges": result.original.num_edges,
        "reduced_edges": result.reduced.num_edges,
        "achieved_ratio": result.achieved_ratio,
        "delta": result.delta,
        "average_delta": result.average_delta,
        "elapsed_seconds": result.elapsed_seconds,
    }
    # BM2-specific provenance: how hard the EDCS sparsifier pruned the
    # Phase-2 candidate pool.
    for key in (
        "sparsify",
        "sparsify_beta",
        "phase2_candidate_edges_pruned",
        "expected_degree_distance",
    ):
        if key in result.stats:
            payload[key] = result.stats[key]
    return payload


def _emit_json(payload: Dict[str, Any]) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True, default=str))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-shed",
        description="Selective edge shedding (ICDE 2021 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--dataset", default="ca-grqc", choices=list(DATASETS))
        p.add_argument("--input", help="edge-list file to use instead of a dataset")
        p.add_argument("--scale", type=float, default=None, help="dataset scale factor")
        p.add_argument("--method", default="bm2")
        p.add_argument("--p", type=float, default=0.5, help="edge preservation ratio")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--sources",
            type=int,
            default=None,
            help="sampled betweenness sources for CRR/UDS (default: exact)",
        )

    def add_json(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--json", action="store_true", help="emit machine-readable JSON"
        )

    reduce_parser = sub.add_parser("reduce", help="shed edges and report the result")
    add_common(reduce_parser)
    add_json(reduce_parser)
    reduce_parser.add_argument("--output", help="write the reduced edge list here")
    reduce_parser.add_argument(
        "--validate",
        action="store_true",
        help="run structural/bound validation on the result",
    )
    reduce_parser.add_argument(
        "--shards",
        type=int,
        default=None,
        help="partition into this many shards and shed per shard (methods "
        "with a sharded runner; 1 is bit-identical to the whole-graph engine)",
    )
    reduce_parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="process fan-out for --shards (default 1; identical output at any count)",
    )
    reduce_parser.add_argument(
        "--sparsify",
        default=None,
        choices=["off", "edcs"],
        help="EDCS candidate pruning for BM2's Phase 2 "
        "(bm2 defaults to off, bm2-sparse to edcs)",
    )
    reduce_parser.add_argument(
        "--sparsify-beta",
        type=int,
        default=None,
        help="per-node candidate cap for --sparsify edcs (default: EDCS beta)",
    )
    reduce_parser.add_argument(
        "--weighted",
        action="store_true",
        help="probability-aware shedding (repro.uncertain): datasets get a "
        "seeded weight field, --input files read weights from --weight-col "
        "(default column 2), and crr/bm2 run their weighted engines",
    )
    reduce_parser.add_argument(
        "--weight-col",
        type=int,
        default=None,
        help="0-based column holding edge probabilities in --input "
        "(implies nothing about the shedder; combine with --weighted)",
    )

    evaluate_parser = sub.add_parser("evaluate", help="reduce, then run evaluation tasks")
    add_common(evaluate_parser)
    add_json(evaluate_parser)
    evaluate_parser.add_argument(
        "--tasks",
        default="degree,topk",
        help=f"comma-separated task keys: {','.join(_TASK_KEYS)}",
    )
    evaluate_parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="parallel walk workers for the link-prediction embedding "
        "(bit-identical to serial)",
    )

    estimate_parser = sub.add_parser(
        "estimate", help="reduce, then estimate original-graph statistics"
    )
    add_common(estimate_parser)

    progressive_parser = sub.add_parser(
        "progressive", help="nested reductions at several ratios"
    )
    add_common(progressive_parser)
    progressive_parser.add_argument(
        "--ratios",
        default="0.8,0.5,0.2",
        help="comma-separated, strictly decreasing ratios in (0, 1)",
    )

    stats_parser = sub.add_parser("stats", help="structural summary of a graph")
    add_common(stats_parser)
    add_json(stats_parser)

    dynamic_parser = sub.add_parser(
        "dynamic", help="incremental maintenance under a churn workload"
    )
    add_common(dynamic_parser)
    add_json(dynamic_parser)
    dynamic_parser.add_argument(
        "--churn",
        default="mixed",
        choices=["insert", "sliding", "mixed"],
        help="churn workload shape (see repro.dynamic.workloads)",
    )
    dynamic_parser.add_argument(
        "--ops", type=int, default=5000, help="number of churn operations to replay"
    )
    dynamic_parser.add_argument(
        "--drift-ratio",
        type=float,
        default=1.0,
        help="rebuild trigger as a multiple of the Theorem-2 envelope",
    )

    session_parser = sub.add_parser(
        "session", help="drive a scripted churn stream through a live session"
    )
    add_common(session_parser)
    add_json(session_parser)
    session_parser.add_argument(
        "--churn",
        default="mixed",
        choices=["insert", "sliding", "mixed"],
        help="churn workload shape (see repro.dynamic.workloads)",
    )
    session_parser.add_argument(
        "--ops", type=int, default=5000, help="churn operations per session"
    )
    session_parser.add_argument(
        "--sessions",
        type=int,
        default=1,
        help="concurrent sessions (each on its own copy of the graph)",
    )
    session_parser.add_argument(
        "--batch",
        type=int,
        default=512,
        help="client submit-chunk size (the drain quantum is batch_ops)",
    )
    session_parser.add_argument(
        "--inbox", type=int, default=4096, help="per-session op inbox capacity"
    )
    session_parser.add_argument(
        "--shed-watermark",
        type=float,
        default=0.75,
        help="inbox fill fraction at which inserts shed",
    )
    session_parser.add_argument(
        "--apply-watermark",
        type=float,
        default=0.5,
        help="fill fraction at which backpressure releases (hysteresis)",
    )
    session_parser.add_argument(
        "--drift-ratio",
        type=float,
        default=1.0,
        help="rebuild trigger as a multiple of the Theorem-2 envelope",
    )
    session_parser.add_argument(
        "--edge-budget",
        type=int,
        default=DEFAULT_EDGE_BUDGET,
        help="shared resident-edge budget across sessions",
    )
    session_parser.add_argument(
        "--workers", type=int, default=2, help="manager drain workers"
    )

    bench_parser = sub.add_parser("bench", help="run a paper table/figure experiment")
    bench_parser.add_argument(
        "--experiment", required=True, choices=sorted(ALL_EXPERIMENTS)
    )
    bench_parser.add_argument("--full", action="store_true", help="full (slow) profile")
    bench_parser.add_argument("--seed", type=int, default=0)

    def add_service(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--cache-dir", help="persist artifacts here (warm restarts hit the cache)"
        )
        p.add_argument("--workers", type=int, default=2, help="worker pool size")
        p.add_argument(
            "--mode",
            default="inline",
            choices=["inline", "thread", "process", "sharded", "stream"],
            help="execution mode (inline is deterministic and single-threaded; "
            "sharded partitions jobs with a sharded runner; stream drives "
            "each serve job as a live churn session — serve only)",
        )
        p.add_argument(
            "--shards",
            type=int,
            default=None,
            help="shard count for --mode sharded (default: --workers)",
        )
        p.add_argument(
            "--edge-budget",
            type=int,
            default=DEFAULT_EDGE_BUDGET,
            help="global resident-edge budget",
        )

    submit_parser = sub.add_parser(
        "submit", help="run one request through the budgeted shedding service"
    )
    add_common(submit_parser)
    add_json(submit_parser)
    add_service(submit_parser)
    submit_parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="wall-clock budget in seconds (degrades the method under pressure)",
    )
    submit_parser.add_argument(
        "--priority", type=int, default=0, help="higher runs first"
    )

    serve_parser = sub.add_parser(
        "serve", help="drain a JSON file of requests through one service"
    )
    serve_parser.add_argument(
        "--jobs", required=True, help="JSON file: list of request objects"
    )
    add_json(serve_parser)
    add_service(serve_parser)
    serve_parser.add_argument("--seed", type=int, default=0)
    serve_parser.add_argument(
        "--timeout",
        type=float,
        default=600.0,
        help="overall wait for all jobs to finish",
    )

    sub.add_parser("datasets", help="list the dataset registry")
    return parser


def _shard_stats_dict(stats: Dict[str, Any]) -> Dict[str, Any]:
    """The sharding slice of ``reduction.stats`` for ``--json`` output."""
    return {
        "num_shards": stats["num_shards"],
        "num_workers": stats["num_workers"],
        "partition": stats["partition"],
        "boundary_edges": stats["boundary_edges"],
        "boundary_admitted": stats["boundary_admitted"],
        "boundary_filled": stats["boundary_filled"],
        "interior_filled": stats["interior_filled"],
        "demoted": stats["demoted"],
        "boundary_candidates_pruned": stats.get("boundary_candidates_pruned", 0),
        "delta_bound": stats["delta_bound"],
        "partition_seconds": stats["partition_seconds"],
        "shard_seconds": stats["shard_seconds"],
        "reconcile_seconds": stats["reconcile_seconds"],
        "per_shard": stats["per_shard"],
    }


def _cmd_reduce(args: argparse.Namespace) -> int:
    if args.workers is not None and args.shards is None:
        raise SystemExit("--workers requires --shards")
    graph = _load_graph(args)
    if args.shards is not None and args.weighted:
        raise SystemExit("--weighted cannot combine with --shards "
                         "(the sharded runner is weight-blind)")
    shedder = _make_shedder(
        args,
        sparsify=args.sparsify,
        sparsify_beta=args.sparsify_beta,
        weighted=args.weighted,
        num_shards=args.shards,
        num_workers=1 if args.workers is None else args.workers,
    )
    result = shedder.reduce(graph, args.p)
    validation_ok = True
    validation_text = None
    if args.validate:
        from repro.core.validation import validate_reduction

        report = validate_reduction(result)
        validation_ok = report.ok
        validation_text = report.describe()
    if args.output:
        write_edge_list(result.reduced, args.output, header=f"{result.method} p={result.p}")
    sharded = args.shards is not None
    if args.json:
        payload = _reduction_dict(result)
        if sharded:
            payload["sharding"] = _shard_stats_dict(result.stats)
        if validation_text is not None:
            payload["validation_ok"] = validation_ok
        if args.output:
            payload["output"] = args.output
        _emit_json(payload)
    else:
        print(result.summary())
        if sharded:
            stats = result.stats
            partition = stats["partition"]
            planned = partition["method"]
            if partition["sweeps"]:
                planned += f", {partition['sweeps']} label-propagation sweeps"
                if not partition["converged"]:
                    planned += " (cap hit, not converged)"
            print(
                f"sharding: {stats['num_shards']} shards "
                f"({planned}), {stats['num_workers']} workers, "
                f"{stats['boundary_edges']} boundary edges "
                f"(admitted={stats['boundary_admitted']} "
                f"filled={stats['boundary_filled']} demoted={stats['demoted']}"
                f" interior_filled={stats['interior_filled']})"
            )
            for shard in stats["per_shard"]:
                print(
                    f"  shard {shard['shard']}: {shard['nodes']} nodes, "
                    f"{shard['interior_edges']} interior edges, "
                    f"kept {shard['kept_edges']}, {shard['seconds']:.3f}s"
                )
        if validation_text is not None:
            print(validation_text)
        if args.output:
            print(f"wrote reduced edge list to {args.output}")
    return 0 if validation_ok else 1


def _cmd_evaluate(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    shedder = _make_shedder(args)
    result = shedder.reduce(graph, args.p)

    requested = [key.strip() for key in args.tasks.split(",") if key.strip()]
    unknown = [key for key in requested if key not in _TASK_KEYS]
    if unknown:
        raise SystemExit(f"unknown task keys: {', '.join(unknown)}")
    wanted_names = {_TASK_KEYS[key] for key in requested}
    workers = getattr(args, "workers", None)
    battery = [
        t
        for t in all_tasks(seed=args.seed, num_sources=args.sources, workers=workers)
        if t.name in wanted_names
    ]
    if "Connectivity" in wanted_names:
        from repro.tasks.connectivity import ConnectivityTask

        battery.append(ConnectivityTask())
    if "Community" in wanted_names:
        from repro.tasks.community import CommunityTask

        battery.append(CommunityTask(seed=args.seed))
    evaluations = [(task, task.evaluate(graph, result)) for task in battery]
    # Embedding-stage wall-clock (walks vs SGNS) per node2vec run, in call
    # order (original graph first, then the reduction).
    embedding_timings = [
        timing
        for task, _ in evaluations
        for timing in getattr(task, "embedding_timings", [])
    ]
    if args.json:
        payload = {
            "reduction": _reduction_dict(result),
            "tasks": [
                {
                    "name": task.name,
                    "utility": evaluation.utility,
                    "original_seconds": evaluation.original.elapsed_seconds,
                    "reduced_seconds": evaluation.reduced.elapsed_seconds,
                }
                for task, evaluation in evaluations
            ],
        }
        if embedding_timings:
            payload["embedding_timings"] = embedding_timings
        _emit_json(payload)
        return 0
    print(result.summary())
    for task, evaluation in evaluations:
        print(
            f"{task.name}: utility={evaluation.utility:.3f} "
            f"(original {evaluation.original.elapsed_seconds:.3f}s, "
            f"reduced {evaluation.reduced.elapsed_seconds:.3f}s)"
        )
    for timing in embedding_timings:
        print(
            f"embedding (n={timing['nodes']:.0f}, m={timing['edges']:.0f}): "
            f"walks {timing['walk_seconds']:.3f}s, "
            f"sgns {timing['sgns_seconds']:.3f}s"
        )
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    from repro.analysis.estimation import estimation_report

    graph = _load_graph(args)
    shedder = _make_shedder(args)
    result = shedder.reduce(graph, args.p)
    print(result.summary())
    report = estimation_report(graph, result.reduced, args.p)
    rows = [
        ("edges", report.true_num_edges, report.estimated_num_edges),
        ("average degree", report.true_average_degree, report.estimated_average_degree),
        ("triangles", report.true_triangles, report.estimated_triangles),
        ("global clustering", report.true_global_clustering, report.estimated_global_clustering),
    ]
    errors = report.relative_errors()
    keys = ["num_edges", "average_degree", "triangles", "global_clustering"]
    for (label, true_value, estimate), key in zip(rows, keys):
        print(
            f"{label}: true={true_value:.4g} estimated={estimate:.4g}"
            f" (relative error {errors[key]:.1%})"
        )
    return 0


def _cmd_progressive(args: argparse.Namespace) -> int:
    from repro.core.progressive import progressive_reduce

    _require_subgraph(args)
    graph = _load_graph(args)
    shedder = _make_shedder(args)
    try:
        ratios = [float(token) for token in args.ratios.split(",") if token.strip()]
    except ValueError:
        raise SystemExit(f"could not parse ratios {args.ratios!r}")
    try:
        results = progressive_reduce(shedder, graph, ratios)
    except ReductionError as error:
        raise SystemExit(str(error)) from None
    for result in results:
        print(result.summary())
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from dataclasses import asdict

    from repro.analysis.stats import graph_stats

    summary = None
    if args.input:
        graph, summary = _read_input(args)
    else:
        graph = _load_graph(args)
    stats = graph_stats(graph, seed=args.seed)
    if args.json:
        payload: Dict[str, Any] = asdict(stats)
        if summary is not None:
            payload["parse"] = asdict(summary)
            payload["parse"]["skipped"] = summary.skipped
        _emit_json(payload)
        return 0
    if summary is not None:
        print(summary.describe())
    print(stats.describe())
    return 0


def _cmd_dynamic(args: argparse.Namespace) -> int:
    import time

    from repro.dynamic import DriftMonitor, IncrementalShedder, generate_workload
    from repro.service.metrics import (
        Histogram,
        OP_LATENCY_BOUNDS,
        latency_us_summary,
    )

    _require_subgraph(args)
    graph = _load_graph(args)
    shedder = _make_shedder(args)
    ops = generate_workload(args.churn, graph, args.ops, seed=args.seed)
    try:
        maintainer = IncrementalShedder(
            graph, args.p, shedder, drift=DriftMonitor(args.p, drift_ratio=args.drift_ratio)
        )
    except ReductionError as error:
        raise SystemExit(str(error)) from None
    seed_delta = maintainer.delta
    if not args.json:
        print(
            f"seed reduction: {graph.num_nodes} nodes / {graph.num_edges} edges, "
            f"delta={seed_delta:.1f}"
        )
    op_hist = Histogram("op_seconds", OP_LATENCY_BOUNDS)
    for op in ops:
        started = time.perf_counter()
        maintainer.apply(op)
        op_hist.observe(time.perf_counter() - started)
    latency_us = latency_us_summary(op_hist)
    live_delta = maintainer.delta
    stats = maintainer.stats
    offline = _make_shedder(args)
    offline_result = offline.reduce(maintainer.graph, args.p)
    envelope = maintainer.monitor.envelope(
        maintainer.graph.num_nodes, maintainer.graph.num_edges
    )
    if args.json:
        _emit_json(
            {
                "seed": {
                    "nodes": graph.num_nodes,
                    "edges": graph.num_edges,
                    "delta": seed_delta,
                },
                "final": {
                    "nodes": maintainer.graph.num_nodes,
                    "edges": maintainer.graph.num_edges,
                    "live_delta": live_delta,
                    "offline_delta": offline_result.delta,
                    "offline_method": offline_result.method,
                    "envelope": envelope,
                },
                "churn": dict(stats),
                "latency_us": latency_us,
            }
        )
        return 0
    print(
        f"replayed {stats['ops']} ops ({stats['inserts']} inserts, "
        f"{stats['deletes']} deletes) -> {maintainer.graph.num_nodes} nodes / "
        f"{maintainer.graph.num_edges} edges"
    )
    print(
        "per-op latency: "
        f"p50={latency_us['p50']:.1f}us "
        f"p90={latency_us['p90']:.1f}us "
        f"p99={latency_us['p99']:.1f}us "
        f"max={latency_us['max']:.1f}us"
    )
    print(
        f"admitted={stats['admitted']} rejected={stats['rejected']} "
        f"evicted={stats['evicted']} promoted={stats['promoted']} "
        f"demoted={stats['demoted']} "
        f"rebuilds={stats['rebuilds']}"
    )
    print(
        f"final delta: live={live_delta:.1f} vs offline {offline_result.method}="
        f"{offline_result.delta:.1f} (Theorem-2 envelope {envelope:.1f})"
    )
    return 0


async def _drive_stream(session, ops: List[Any], batch: int) -> Dict[str, int]:
    """Submit ``ops`` in client-side chunks, then wait for full drain.

    Backpressure is surfaced, not retried: shed/rejected ops are counted
    in the returned dict (and in the session's own telemetry).  A session
    that dies mid-stream is reported as failed rather than raising out of
    the driver, so sibling sessions keep running.
    """
    import asyncio

    from repro.errors import SessionError

    counts = {"shed": 0, "rejected": 0}
    try:
        for start in range(0, len(ops), batch):
            receipt = session.submit(ops[start : start + batch])
            counts["shed"] += receipt.shed
            counts["rejected"] += receipt.rejected
            # Yield so the manager's workers drain between submissions.
            await asyncio.sleep(0)
        await session.flush()
    except SessionError:
        pass  # session.failed carries the reason into telemetry
    return counts


def _print_session_summary(telemetry: Dict[str, Any]) -> None:
    ops = telemetry["ops"]
    latency = telemetry["latency_us"]
    backpressure = telemetry["backpressure"]
    drift = telemetry["drift"]
    label = telemetry["label"] or telemetry["session_id"]
    status = f"failed: {telemetry['failed']}" if telemetry["failed"] else "ok"
    print(
        f"{telemetry['session_id']} [{label}] {status}: "
        f"applied={ops['applied']} "
        f"shed={ops['shed_backpressure'] + ops['shed_budget']} "
        f"rejected={ops['rejected']} stale={ops['skipped_stale']} "
        f"rebuilds={drift['rebuilds']}"
    )
    print(
        f"  latency p50={latency['p50']:.1f}us p99={latency['p99']:.1f}us  "
        f"throughput={telemetry['throughput_ops_per_s']:.0f} ops/s  "
        f"backpressure={backpressure['state']} "
        f"(transitions={backpressure['transitions']})"
    )
    if "delta" in drift:
        print(
            f"  delta live={drift['delta']:.1f} "
            f"(Theorem-2 envelope {drift['envelope']:.1f})"
        )


def _cmd_session(args: argparse.Namespace) -> int:
    import asyncio

    from repro.dynamic import generate_workload
    from repro.graph.io import graph_from_payload, graph_to_payload
    from repro.sessions import SessionConfig, SessionManager

    if args.sessions < 1:
        raise SystemExit(f"--sessions must be >= 1, got {args.sessions}")
    if args.batch < 1:
        raise SystemExit(f"--batch must be >= 1, got {args.batch}")
    base = _load_graph(args)
    config = SessionConfig(
        p=args.p,
        method=args.method,
        seed=args.seed,
        drift_ratio=args.drift_ratio,
        inbox_capacity=args.inbox,
        shed_watermark=args.shed_watermark,
        apply_watermark=args.apply_watermark,
    )

    async def run() -> Dict[str, Any]:
        async with SessionManager(
            max_resident_edges=args.edge_budget, num_workers=args.workers
        ) as manager:
            payload = graph_to_payload(base)
            opened = []
            for index in range(args.sessions):
                # Each session owns its graph; the workload seed varies so
                # concurrent sessions exercise distinct churn streams.
                graph = graph_from_payload(payload)
                ops = generate_workload(
                    args.churn, graph, args.ops, seed=args.seed + index
                )
                session = await manager.open(config=config, graph=graph)
                opened.append((session, ops))
            results = await asyncio.gather(
                *(_drive_stream(session, ops, args.batch) for session, ops in opened)
            )
            summaries = []
            for (session, _), counts in zip(opened, results):
                telemetry = await manager.close_session(session)
                telemetry["submit"] = counts
                summaries.append(telemetry)
            return {"manager": manager.telemetry(), "sessions": summaries}

    try:
        report = asyncio.run(run())
    except ServiceError as error:  # SessionError included
        raise SystemExit(str(error)) from None
    failed = sum(1 for t in report["sessions"] if t["failed"])
    if args.json:
        _emit_json(
            {
                "seed": {"nodes": base.num_nodes, "edges": base.num_edges},
                "sessions": report["sessions"],
                "budget": report["manager"]["budget"],
                "failed": failed,
            }
        )
        return 0 if failed == 0 else 1
    print(
        f"{args.sessions} session(s) on {base.num_nodes} nodes / "
        f"{base.num_edges} edges, p={args.p} method={args.method} "
        f"churn={args.churn} ops={args.ops}"
    )
    for telemetry in report["sessions"]:
        _print_session_summary(telemetry)
    budget = report["manager"]["budget"]
    print(
        f"budget: {budget['in_use_edges']}/{budget['capacity_edges']} "
        f"resident edges in use after close"
    )
    return 0 if failed == 0 else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    runner = ALL_EXPERIMENTS[args.experiment]
    report = runner(quick=not args.full, seed=args.seed)
    print(report.render())
    return 0


def _make_service(args: argparse.Namespace):
    from repro.service import SheddingService

    if args.mode == "stream":
        raise SystemExit("--mode stream applies to `serve` only")
    try:
        return SheddingService(
            max_resident_edges=args.edge_budget,
            num_workers=args.workers,
            mode=args.mode,
            cache_dir=args.cache_dir,
            num_shards=getattr(args, "shards", None),
        )
    except ServiceError as error:
        raise SystemExit(str(error)) from None


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service import ReductionRequest

    request = ReductionRequest(
        p=args.p,
        method=args.method,
        graph_ref=_graph_ref(args),
        seed=args.seed,
        num_sources=args.sources,
        priority=args.priority,
        deadline_seconds=args.deadline,
    )
    with _make_service(args) as service:
        handle = service.submit(request)
        result = handle.result(timeout=600.0)
        snapshot = service.metrics_snapshot()
    if args.json:
        payload = result.to_dict()
        payload["metrics"] = snapshot
        _emit_json(payload)
    else:
        print(result.summary())
    return 0 if result.status.value == "completed" else 1


def _spec_graph_ref(spec: Dict[str, Any]) -> str:
    """The service ``graph_ref`` for one jobs-file entry."""
    if "graph_ref" in spec:
        return spec["graph_ref"]
    if "input" in spec:
        return f"file:{spec['input']}"
    dataset = spec.get("dataset", "ca-grqc")
    scale = spec.get("scale")
    if scale is not None:
        return f"dataset:{dataset}:{float(scale):g}"
    return f"dataset:{dataset}"


def _whole(value: Any) -> int:
    """``int(value)``, refusing values that are not whole numbers."""
    number = int(value)
    if number != float(value):
        raise ValueError(f"{value!r} is not a whole number")
    return number


#: Jobs-file knobs and the conversion the commands apply to each.
_JOB_KNOBS = (
    ("p", float),
    ("seed", int),
    ("scale", float),
    ("priority", _whole),
    ("deadline_seconds", float),
    ("sources", _whole),
)
_STREAM_JOB_KNOBS = (("ops", _whole), ("batch", _whole))


def _load_job_specs(args: argparse.Namespace) -> List[Dict[str, Any]]:
    """Read the jobs file; exit before any job runs if one is malformed."""
    try:
        with open(args.jobs, "r", encoding="utf-8") as handle:
            specs = json.load(handle)
    except (OSError, ValueError) as error:
        raise SystemExit(f"could not read jobs file {args.jobs!r}: {error}")
    if not isinstance(specs, list):
        raise SystemExit(f"jobs file {args.jobs!r} must hold a JSON list")
    stream = args.mode == "stream"
    knobs = _JOB_KNOBS + (_STREAM_JOB_KNOBS if stream else ())
    for index, spec in enumerate(specs):
        if not isinstance(spec, dict) or "p" not in spec:
            raise SystemExit(f"job #{index} must be an object with at least a 'p' key")
        for key, convert in knobs:
            try:
                if key in spec:
                    convert(spec[key])
            except (TypeError, ValueError):
                kind = "a whole number" if convert is _whole else "a number"
                raise SystemExit(
                    f"job #{index}: {key!r} must be {kind}, got {spec[key]!r}"
                ) from None
        if stream:
            from repro.dynamic import WORKLOADS

            if _whole(spec.get("batch", 512)) < 1:
                raise SystemExit(f"job #{index}: 'batch' must be >= 1, got {spec['batch']!r}")
            if spec.get("churn", "mixed") not in sorted(WORKLOADS):
                raise SystemExit(
                    f"job #{index}: unknown churn shape {spec['churn']!r} "
                    f"(choose from {', '.join(sorted(WORKLOADS))})"
                )
    return specs


def _cmd_serve_stream(args: argparse.Namespace, specs: List[Dict[str, Any]]) -> int:
    """``serve --mode stream``: each job is a live churn session.

    Job objects reuse the one-shot grammar (``p``/``method``/``seed``/
    ``graph_ref``/``input``/``dataset``+``scale``/``label``) plus the
    stream-only keys ``churn`` (workload shape), ``ops`` (churn length)
    and ``batch`` (client submit-chunk size).
    """
    import asyncio

    from repro.dynamic import generate_workload
    from repro.errors import SessionError
    from repro.sessions import SessionConfig, SessionManager

    jobs = []
    for index, spec in enumerate(specs):
        jobs.append(
            {
                "ref": _spec_graph_ref(spec),
                "config": SessionConfig(
                    p=float(spec["p"]),
                    method=spec.get("method", "bm2"),
                    seed=int(spec.get("seed", args.seed)),
                    label=spec.get("label", f"job-{index}"),
                ),
                "churn": spec.get("churn", "mixed"),
                "ops": _whole(spec.get("ops", 2000)),
                "batch": _whole(spec.get("batch", 512)),
            }
        )

    async def run() -> List[Dict[str, Any]]:
        async with SessionManager(
            max_resident_edges=args.edge_budget, num_workers=args.workers
        ) as manager:

            async def one(job: Dict[str, Any]) -> Dict[str, Any]:
                config = job["config"]
                try:
                    session = await manager.open(config=config, graph_ref=job["ref"])
                except SessionError as error:
                    return {
                        "label": config.label,
                        "failed": str(error),
                        "graph_ref": job["ref"],
                    }
                ops = generate_workload(
                    job["churn"], session.shedder.graph, job["ops"], seed=config.seed
                )
                counts = await _drive_stream(session, ops, job["batch"])
                telemetry = await manager.close_session(session)
                telemetry["submit"] = counts
                telemetry["graph_ref"] = job["ref"]
                return telemetry

            return list(await asyncio.gather(*(one(job) for job in jobs)))

    try:
        results = asyncio.run(run())
    except ServiceError as error:  # the manager refused its budget or workers
        raise SystemExit(str(error)) from None
    failed = sum(1 for telemetry in results if telemetry["failed"])
    if args.json:
        _emit_json({"mode": "stream", "jobs": results, "failed": failed})
        return 0 if failed == 0 else 1
    for telemetry in results:
        if "session_id" not in telemetry:
            print(f"[{telemetry['label']}] open failed: {telemetry['failed']}")
            continue
        _print_session_summary(telemetry)
    print(f"served {len(results)} streaming jobs ({failed} failed)")
    return 0 if failed == 0 else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import ReductionRequest

    specs = _load_job_specs(args)
    if args.mode == "stream":
        return _cmd_serve_stream(args, specs)

    requests = []
    for index, spec in enumerate(specs):
        ref = _spec_graph_ref(spec)
        requests.append(
            ReductionRequest(
                p=float(spec["p"]),
                method=spec.get("method", "bm2"),
                graph_ref=ref,
                seed=int(spec.get("seed", args.seed)),
                num_sources=_whole(spec["sources"]) if "sources" in spec else None,
                priority=_whole(spec.get("priority", 0)),
                deadline_seconds=(
                    float(spec["deadline_seconds"]) if "deadline_seconds" in spec else None
                ),
                label=spec.get("label", f"job-{index}"),
            )
        )

    with _make_service(args) as service:
        handles = service.submit_all(requests)
        results = [handle.result(timeout=args.timeout) for handle in handles]
        snapshot = service.metrics_snapshot()

    failed = sum(1 for result in results if result.status.value != "completed")
    if args.json:
        _emit_json(
            {
                "jobs": [result.to_dict() for result in results],
                "metrics": snapshot,
                "failed": failed,
            }
        )
    else:
        for result in results:
            print(result.summary())
        counters = snapshot["counters"]
        print(
            f"served {len(results)} jobs ({failed} not completed): "
            f"executed={counters.get('jobs_executed', 0)} "
            f"cache_hits={counters.get('cache_hits_memory', 0) + counters.get('cache_hits_disk', 0)} "
            f"degraded={counters.get('admission_degraded', 0)} "
            f"rejected={counters.get('rejected', 0)}"
        )
    return 0 if failed == 0 else 1


def _cmd_datasets() -> int:
    for name, spec in DATASETS.items():
        print(
            f"{name}: {spec.description} — paper size {spec.paper_nodes} nodes /"
            f" {spec.paper_edges} edges, default scale {spec.default_scale}"
        )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "reduce":
        return _cmd_reduce(args)
    if args.command == "evaluate":
        return _cmd_evaluate(args)
    if args.command == "estimate":
        return _cmd_estimate(args)
    if args.command == "progressive":
        return _cmd_progressive(args)
    if args.command == "stats":
        return _cmd_stats(args)
    if args.command == "dynamic":
        return _cmd_dynamic(args)
    if args.command == "session":
        return _cmd_session(args)
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "submit":
        return _cmd_submit(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "datasets":
        return _cmd_datasets()
    raise SystemExit(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
