"""The network's characteristic distance scale ``sigma``.

The similarity layer decays distances as ``exp(-d / sigma)``; this module
chooses ``sigma`` and the phase-1 radius measured in it.
"""

from __future__ import annotations

import random

import numpy as np

from repro.errors import GraphError
from repro.network.csr import sssp_arrays_batch
from repro.network.graph import SpatialNetwork

__all__ = ["PHASE1_RADIUS_SIGMAS", "characteristic_distance"]

#: The bounded-Dijkstra radius in units of sigma, shared by the ``scan``
#: engine's phase 1 and the result cache's add-survival proof: settle every
#: vertex within ``r = PHASE1_RADIUS_SIGMAS * sigma`` and cap everything
#: unreached at ``exp(-r / sigma)``.  At paper scale one round at 2 sigma
#: already answers 64 of 100 cold queries; 3/4/6/8/12 sigma answer
#: 66/72/77/80/91 while the bounded rows alone climb from 1.2 to 18.6 ms,
#: so a larger radius buys little (DESIGN §7).
PHASE1_RADIUS_SIGMAS = 2.0


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
