"""repro — Selective Edge Shedding in Large Graphs Under Resource Constraints.

A complete reproduction of Zeng, Song & Ge (ICDE 2021): two vertex-degree
preserving edge-shedding algorithms (CRR and BM2), the UDS summarization
baseline they compare against, the seven graph-analysis evaluation tasks,
and the benchmark harness that regenerates every table and figure of the
paper's evaluation.

Quickstart::

    from repro import load_dataset, CRRShedder, BM2Shedder, all_tasks

    graph = load_dataset("ca-grqc")
    result = BM2Shedder(seed=0).reduce(graph, p=0.5)
    print(result.summary())
    for task in all_tasks(seed=0, num_sources=64):
        print(task.name, task.evaluate(graph, result).utility)
"""

from repro.analysis import GraphStats, estimation_report, graph_stats
from repro.baselines import GraphSummary, UDSSummarizer
from repro.core import (
    BM2Shedder,
    CoreShedder,
    CRRShedder,
    DegreeProportionalShedder,
    EdgeShedder,
    JaccardShedder,
    LocalDegreeShedder,
    RandomShedder,
    ReductionResult,
    bm2_average_delta_bound,
    bm2_bound_for_graph,
    compute_delta,
    crr_average_delta_bound,
    crr_bound_for_graph,
    progressive_reduce,
    round_half_up,
)
from repro.datasets import available_datasets, dataset_spec, load_dataset
from repro.errors import (
    BenchError,
    DatasetError,
    EdgeNotFoundError,
    EmbeddingError,
    GraphError,
    InvalidRatioError,
    NodeNotFoundError,
    ReductionError,
    ReproError,
    SelfLoopError,
    TaskError,
)
from repro.graph import Graph
from repro.shard import ShardedShedder, ShardPlan, partition_graph
from repro.tasks import (
    BetweennessCentralityTask,
    ClusteringCoefficientTask,
    DegreeDistributionTask,
    GraphTask,
    HopPlotTask,
    LinkPredictionTask,
    ShortestPathDistanceTask,
    TaskEvaluation,
    TopKQueryTask,
    WeightedDegreeDistributionTask,
    all_tasks,
)
from repro.uncertain import (
    WeightedBM2Shedder,
    WeightedCRRShedder,
    expected_degree_distance,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # graph
    "Graph",
    # core algorithms
    "EdgeShedder",
    "ReductionResult",
    "CRRShedder",
    "BM2Shedder",
    "RandomShedder",
    "DegreeProportionalShedder",
    "CoreShedder",
    "LocalDegreeShedder",
    "JaccardShedder",
    "progressive_reduce",
    "GraphStats",
    "graph_stats",
    "estimation_report",
    "compute_delta",
    "round_half_up",
    "crr_average_delta_bound",
    "bm2_average_delta_bound",
    "crr_bound_for_graph",
    "bm2_bound_for_graph",
    # baseline
    "UDSSummarizer",
    "GraphSummary",
    # sharded shedding
    "ShardedShedder",
    "ShardPlan",
    "partition_graph",
    # uncertain/weighted shedding
    "WeightedCRRShedder",
    "WeightedBM2Shedder",
    "expected_degree_distance",
    # datasets
    "load_dataset",
    "available_datasets",
    "dataset_spec",
    # tasks
    "GraphTask",
    "TaskEvaluation",
    "all_tasks",
    "DegreeDistributionTask",
    "WeightedDegreeDistributionTask",
    "ShortestPathDistanceTask",
    "BetweennessCentralityTask",
    "ClusteringCoefficientTask",
    "HopPlotTask",
    "TopKQueryTask",
    "LinkPredictionTask",
    # errors
    "ReproError",
    "GraphError",
    "NodeNotFoundError",
    "EdgeNotFoundError",
    "SelfLoopError",
    "ReductionError",
    "InvalidRatioError",
    "DatasetError",
    "EmbeddingError",
    "TaskError",
    "BenchError",
]
