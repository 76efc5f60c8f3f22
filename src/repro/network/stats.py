"""Descriptive statistics of spatial networks.

Used by the benchmark harness to report dataset characteristics alongside
results (the paper reports |V|, |E| for both road networks) and by the
similarity layer to choose a characteristic distance scale ``sigma``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from repro.errors import GraphError
from repro.network.csr import sssp_arrays_batch
from repro.network.dijkstra import eccentricity
from repro.network.graph import SpatialNetwork

__all__ = [
    "PHASE1_RADIUS_SIGMAS",
    "NetworkStats",
    "network_stats",
    "estimate_diameter",
    "characteristic_distance",
]

#: The bounded-Dijkstra radius in units of sigma, shared by the ``scan``
#: engine's phase 1 and the result cache's add-survival proof: settle every
#: vertex within ``r = PHASE1_RADIUS_SIGMAS * sigma`` and cap everything
#: unreached at ``exp(-r / sigma)``.  At paper scale one round at 2 sigma
#: already answers 64 of 100 cold queries; 3/4/6/8/12 sigma answer
#: 66/72/77/80/91 while the bounded rows alone climb from 1.2 to 18.6 ms,
#: so a larger radius buys little (DESIGN §7).
PHASE1_RADIUS_SIGMAS = 2.0


@dataclass(frozen=True)
class NetworkStats:
    """Summary of a spatial network."""

    num_vertices: int
    num_edges: int
    total_weight: float
    avg_degree: float
    avg_edge_weight: float
    diameter_lower_bound: float

    def describe(self) -> str:
        """Single-line human-readable summary."""
        return (
            f"|V|={self.num_vertices} |E|={self.num_edges} "
            f"avg_deg={self.avg_degree:.2f} avg_w={self.avg_edge_weight:.1f} "
            f"diam>={self.diameter_lower_bound:.1f}"
        )


def network_stats(graph: SpatialNetwork) -> NetworkStats:
    """Compute :class:`NetworkStats` for ``graph``."""
    if graph.num_vertices == 0:
        raise GraphError("statistics of an empty graph are undefined")
    num_edges = graph.num_edges
    return NetworkStats(
        num_vertices=graph.num_vertices,
        num_edges=num_edges,
        total_weight=graph.total_weight,
        avg_degree=2.0 * num_edges / graph.num_vertices,
        avg_edge_weight=(graph.total_weight / num_edges) if num_edges else 0.0,
        diameter_lower_bound=estimate_diameter(graph),
    )


def estimate_diameter(graph: SpatialNetwork, sweeps: int = 2, seed: int = 0) -> float:
    """Double-sweep lower bound on the network diameter.

    Starts from a random vertex, repeatedly jumps to the farthest vertex
    found; the final eccentricity lower-bounds the true diameter and is
    usually within a few percent on road networks.
    """
    if graph.num_vertices == 0:
        raise GraphError("diameter of an empty graph is undefined")
    rng = random.Random(seed)
    vertex = rng.randrange(graph.num_vertices)
    best = 0.0
    for __ in range(max(1, sweeps)):
        vertex, distance = eccentricity(graph, vertex)
        best = max(best, distance)
    return best


def characteristic_distance(graph: SpatialNetwork, samples: int = 16, seed: int = 0) -> float:
    """Median network distance between random vertex pairs.

    This is the default scale ``sigma`` for the exponential distance decay in
    the similarity functions: with ``sigma`` near the typical inter-point
    distance, ``exp(-d / sigma)`` spreads usefully over (0, 1] instead of
    collapsing to 0 or 1.
    """
    if graph.num_vertices < 2:
        raise GraphError("characteristic distance needs at least two vertices")
    rng = random.Random(seed)
    sources = [rng.randrange(graph.num_vertices) for __ in range(max(1, samples))]
    rows = sssp_arrays_batch(graph.csr, sources)
    reached = [row[np.isfinite(row) & (row > 0.0)] for row in rows]
    medians = np.array([_upper_median(row) for row in reached if row.size])
    if not medians.size:
        raise GraphError("graph has no reachable vertex pairs")
    return float(_upper_median(medians))


def _upper_median(values: np.ndarray) -> float:
    """The element a sort would put at ``len(values) // 2``."""
    k = values.size // 2
    return np.partition(values, k)[k]
