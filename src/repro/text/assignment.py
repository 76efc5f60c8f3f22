"""Keyword assignment: give vertices POI annotations and trajectories text.

Real trajectory annotations come from the POIs a trip passes.  We reproduce
that generative process: a fraction of network vertices become POI sites
carrying a category-coherent keyword burst, and each trajectory inherits
(a sample of) the keywords of the POI vertices it visits.  The result is the
skewed, spatially correlated text distribution UOTS exploits.
"""

from __future__ import annotations

import random

from repro.errors import DatasetError
from repro.network.graph import SpatialNetwork
from repro.text.vocabulary import Vocabulary
from repro.trajectory.model import TrajectorySet

__all__ = ["assign_vertex_keywords", "annotate_trajectories"]


def assign_vertex_keywords(
    graph: SpatialNetwork,
    vocabulary: Vocabulary,
    poi_fraction: float = 0.15,
    burst_size: int = 3,
    seed: int | None = None,
) -> dict[int, frozenset[str]]:
    """Annotate a random ``poi_fraction`` of vertices with keyword bursts.

    Each POI vertex receives up to ``burst_size`` keywords biased toward a
    single category (see :meth:`Vocabulary.sample_category_burst`).
    Returns a mapping only for annotated vertices.
    """
    if not (0.0 < poi_fraction <= 1.0):
        raise DatasetError(f"poi_fraction must be in (0, 1], got {poi_fraction}")
    if burst_size < 1:
        raise DatasetError("burst_size must be >= 1")
    rng = random.Random(seed)
    num_pois = max(1, int(graph.num_vertices * poi_fraction))
    poi_vertices = rng.sample(range(graph.num_vertices), num_pois)
    return {
        vertex: frozenset(
            vocabulary.sample_category_burst(rng.randint(1, burst_size), rng)
        )
        for vertex in poi_vertices
    }


def annotate_trajectories(
    trajectories: TrajectorySet,
    vertex_keywords: dict[int, frozenset[str]],
    max_keywords: int = 8,
    seed: int | None = None,
) -> TrajectorySet:
    """Attach inherited keywords to every trajectory.

    A trajectory collects the keywords of every annotated vertex it visits;
    when that exceeds ``max_keywords``, a random subset is kept (real
    annotations are never exhaustive).  Trajectories visiting no POI keep an
    empty keyword set — the realistic cold-start case the search must handle.
    """
    if max_keywords < 1:
        raise DatasetError("max_keywords must be >= 1")
    rng = random.Random(seed)
    annotated = TrajectorySet()
    for trajectory in trajectories:
        collected: set[str] = set()
        for vertex in trajectory.vertices():
            collected.update(vertex_keywords.get(vertex, ()))
        if len(collected) > max_keywords:
            collected = set(rng.sample(sorted(collected), max_keywords))
        annotated.add(trajectory.with_keywords(collected))
    return annotated
