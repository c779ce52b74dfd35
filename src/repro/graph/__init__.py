"""Graph substrate: data structure, algorithms, generators, and I/O.

This package is a self-contained replacement for the SNAP library the paper
used: an undirected simple :class:`Graph` plus every graph-analysis primitive
the algorithms and the seven evaluation tasks require.
"""

from repro.graph.assortativity import degree_assortativity
from repro.graph.builders import (
    from_adjacency,
    from_degree_sequence_havel_hakimi,
    from_edges,
    relabel_to_integers,
)
from repro.graph.centrality import (
    edge_betweenness,
    node_betweenness,
    top_edges_by_betweenness,
)
from repro.graph.clustering import (
    average_clustering,
    clustering_by_degree,
    clustering_coefficients,
    local_clustering,
    triangle_count,
)
from repro.graph.centrality_extra import closeness_centrality, eigenvector_centrality
from repro.graph.communities import (
    label_propagation,
    modularity,
    normalized_mutual_information,
    partition_sizes,
)
from repro.graph.cores import core_numbers, edge_core_numbers, k_core
from repro.graph.csr import CSRAdjacency
from repro.graph.degree import (
    degree_array,
    degree_ccdf,
    degree_distribution,
    degree_histogram,
    estimate_powerlaw_exponent,
    max_degree,
)
from repro.graph.generators import (
    barabasi_albert,
    chung_lu,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    paper_figure1_graph,
    path_graph,
    powerlaw_cluster,
    star_graph,
    stochastic_block_model,
    watts_strogatz,
)
from repro.graph.graph import Edge, Graph, Node
from repro.graph.hopplot import hop_plot, reachable_pair_fraction
from repro.graph.kernels import (
    bfs_distance_array,
    bfs_level_sizes,
    brandes_accumulate,
    component_ids,
    distance_histogram,
)
from repro.graph.sampling import select_source_ids, select_sources
from repro.graph.io import (
    EdgeListSummary,
    graph_from_payload,
    graph_to_payload,
    read_edge_list,
    read_edge_list_with_summary,
    read_json,
    write_edge_list,
    write_json,
)
from repro.graph.matching import (
    greedy_b_matching_ids,
    is_b_matching,
    is_maximal_b_matching,
)
from repro.graph.pagerank import pagerank, top_k_nodes
from repro.graph.parallel import parallel_edge_betweenness, parallel_node_betweenness
from repro.graph.shortest_paths import (
    average_shortest_path_length,
    distance_distribution,
    effective_diameter,
    pairwise_distance_counts,
    single_source_distances,
)
from repro.graph.traversal import (
    bfs_distances,
    bfs_layers,
    bfs_order,
    connected_components,
    is_connected,
    largest_component,
    num_connected_components,
)

__all__ = [
    "Graph",
    "Node",
    "Edge",
    "CSRAdjacency",
    # array kernels + shared source sampling
    "brandes_accumulate",
    "bfs_distance_array",
    "bfs_level_sizes",
    "distance_histogram",
    "component_ids",
    "select_source_ids",
    "select_sources",
    # builders
    "from_edges",
    "from_adjacency",
    "from_degree_sequence_havel_hakimi",
    "relabel_to_integers",
    # traversal
    "bfs_distances",
    "bfs_layers",
    "bfs_order",
    "connected_components",
    "largest_component",
    "num_connected_components",
    "is_connected",
    # shortest paths
    "single_source_distances",
    "pairwise_distance_counts",
    "distance_distribution",
    "average_shortest_path_length",
    "effective_diameter",
    # centrality
    "node_betweenness",
    "edge_betweenness",
    "top_edges_by_betweenness",
    "parallel_edge_betweenness",
    "parallel_node_betweenness",
    "closeness_centrality",
    "eigenvector_centrality",
    # communities
    "label_propagation",
    "modularity",
    "normalized_mutual_information",
    "partition_sizes",
    # clustering
    "local_clustering",
    "clustering_coefficients",
    "average_clustering",
    "clustering_by_degree",
    "triangle_count",
    # pagerank
    "pagerank",
    "top_k_nodes",
    # hop plot
    "hop_plot",
    "reachable_pair_fraction",
    # assortativity and cores
    "degree_assortativity",
    "core_numbers",
    "k_core",
    "edge_core_numbers",
    # degree
    "degree_array",
    "degree_histogram",
    "degree_distribution",
    "degree_ccdf",
    "max_degree",
    "estimate_powerlaw_exponent",
    # matching
    "greedy_b_matching_ids",
    "is_b_matching",
    "is_maximal_b_matching",
    # generators
    "erdos_renyi",
    "barabasi_albert",
    "watts_strogatz",
    "powerlaw_cluster",
    "chung_lu",
    "stochastic_block_model",
    "path_graph",
    "cycle_graph",
    "star_graph",
    "complete_graph",
    "paper_figure1_graph",
    # io
    "EdgeListSummary",
    "graph_from_payload",
    "graph_to_payload",
    "read_edge_list",
    "read_edge_list_with_summary",
    "write_edge_list",
    "read_json",
    "write_json",
]
