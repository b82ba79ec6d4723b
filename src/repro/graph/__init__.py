"""Graph substrate: the undirected simple graph and its primitives.

Everything the paper's Section 2 assumes about ``G = (V, E)`` lives here:
the adjacency-set :class:`~repro.graph.graph.Graph`, ego-network
extraction (Definition 1), triangle listing, traversal, bitmap adjacency
for the GCT fast path, IO, and statistics.
"""

from repro.graph.graph import Graph, Vertex, Edge
from repro.graph.builder import GraphBuilder
from repro.graph.egonet import (
    ego_network,
    ego_edge_count,
    all_ego_networks,
    iter_ego_edge_lists,
)
from repro.graph.traversal import (
    bfs_order,
    bfs_layers,
    connected_components,
    components_of_edges,
    count_components_of_edges,
    is_connected,
    largest_component,
)
from repro.graph.triangles import (
    iter_triangles,
    triangle_count,
    edge_supports,
    local_triangle_counts,
    global_clustering_coefficient,
    approx_triangle_count,
)
from repro.graph.bitmap import BitmapAdjacency
from repro.graph.arboricity import (
    degeneracy,
    arboricity_upper_bound,
    arboricity_lower_bound,
)
from repro.graph.stats import GraphStats, compute_stats, max_ego_trussness
from repro.graph.io import (
    read_edge_list,
    write_edge_list,
    iter_edge_list,
    read_json_graph,
    write_json_graph,
    edges_from_pairs,
)

__all__ = [
    "Graph",
    "Vertex",
    "Edge",
    "GraphBuilder",
    "ego_network",
    "ego_edge_count",
    "all_ego_networks",
    "iter_ego_edge_lists",
    "bfs_order",
    "bfs_layers",
    "connected_components",
    "components_of_edges",
    "count_components_of_edges",
    "is_connected",
    "largest_component",
    "iter_triangles",
    "triangle_count",
    "edge_supports",
    "local_triangle_counts",
    "global_clustering_coefficient",
    "approx_triangle_count",
    "BitmapAdjacency",
    "degeneracy",
    "arboricity_upper_bound",
    "arboricity_lower_bound",
    "GraphStats",
    "compute_stats",
    "max_ego_trussness",
    "read_edge_list",
    "write_edge_list",
    "iter_edge_list",
    "read_json_graph",
    "write_json_graph",
    "edges_from_pairs",
]
