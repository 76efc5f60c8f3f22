"""Spatial-network substrate: graph model, shortest paths, expansion, generators."""

from repro.network.builder import GraphBuilder
from repro.network.dijkstra import (
    distance_matrix,
    distances_to_targets,
    shortest_path,
    shortest_path_length,
    single_source_distances,
)
from repro.network.expansion import IncrementalExpansion
from repro.network.generators import (
    grid_network,
    random_geometric_network,
    ring_radial_network,
)
from repro.network.graph import SpatialNetwork
from repro.network.io import load_edge_list, load_json, save_edge_list, save_json
from repro.network.landmarks import LandmarkIndex
from repro.network.stats import characteristic_distance

__all__ = [
    "SpatialNetwork",
    "GraphBuilder",
    "IncrementalExpansion",
    "LandmarkIndex",
    "characteristic_distance",
    "distance_matrix",
    "distances_to_targets",
    "grid_network",
    "load_edge_list",
    "load_json",
    "random_geometric_network",
    "ring_radial_network",
    "save_edge_list",
    "save_json",
    "shortest_path",
    "shortest_path_length",
    "single_source_distances",
]
