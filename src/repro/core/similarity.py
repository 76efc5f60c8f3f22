"""Exact UOTS similarity evaluation.

Implements the reconstructed similarity model (see DESIGN.md section 1):

``Sim(q, tau) = lam * SimS(q.O, tau) + (1 - lam) * SimT(q.T, tau.T)`` with

``SimS(q.O, tau) = (1/|O|) * sum_{o in O} exp(-d(o, tau) / sigma)`` and
``d(o, tau) = min_{p in tau} sd(o, p)`` (network distance from the intended
place to the trajectory).  Both components live in ``[0, 1]``, so the
combined score does too — which is what makes the upper-bound algebra in
:mod:`repro.core.bounds` composable.
"""

from __future__ import annotations

import heapq
import math
from typing import Iterable, Mapping

from repro.index.database import TrajectoryDatabase
from repro.network.graph import SpatialNetwork
from repro.text.similarity import TextMeasure, get_measure
from repro.trajectory.model import Trajectory

from repro.core.query import UOTSQuery
from repro.core.results import ScoredTrajectory

__all__ = [
    "distance_transform",
    "nearest_trajectory_distance",
    "trajectory_to_locations_distances",
    "spatial_similarity",
    "text_similarity",
    "combine",
    "ExactScorer",
]

_INF = float("inf")


def distance_transform(
    graph: SpatialNetwork, vertex_set: frozenset[int] | set[int]
) -> dict[int, float]:
    """Network distance from every reachable vertex to the vertex set.

    One multi-source Dijkstra seeded with all of ``vertex_set`` at distance
    zero: the settled distance of any vertex ``v`` is
    ``min over p in vertex_set of sd(v, p)``.  This is the refinement
    primitive — it prices *all* query locations against one trajectory in a
    single traversal: one SciPy ``min_only`` call.
    """
    from repro.network.csr import array_to_distance_dict, sssp_array

    for vertex in vertex_set:
        graph._check_vertex(vertex)
    if not vertex_set:
        return {}
    return array_to_distance_dict(sssp_array(graph.csr, vertex_set))


def trajectory_to_locations_distances(
    graph: SpatialNetwork,
    vertex_set: frozenset[int] | set[int],
    locations: tuple[int, ...],
) -> list[float]:
    """``d(o, tau)`` for each query location, in one bounded traversal.

    A multi-source Dijkstra from the trajectory's vertices that stops as
    soon as every query location is settled — the cheap form of the
    refinement primitive when only a handful of locations need pricing.
    Unreachable locations come back as ``inf``.
    """
    from repro.network.csr import targets_array

    for location in locations:
        graph._check_vertex(location)
    for vertex in vertex_set:
        graph._check_vertex(vertex)
    if not vertex_set:
        return [_INF] * len(locations)
    unique = list(dict.fromkeys(locations))
    found = dict(zip(unique, targets_array(graph.csr, vertex_set, unique)))
    return [found[location] for location in locations]


def nearest_trajectory_distance(
    graph: SpatialNetwork, source: int, vertex_set: frozenset[int] | set[int]
) -> float:
    """``d(source, tau) = min`` network distance from ``source`` to any vertex
    of the trajectory.

    A Dijkstra that stops at the *first* settled trajectory vertex (Dijkstra
    settles in distance order, so the first hit is the minimum).  Returns
    ``inf`` when the trajectory is unreachable.
    """
    graph._check_vertex(source)
    if source in vertex_set:
        return 0.0
    csr = graph.csr
    n = csr.num_vertices
    dist = [_INF] * n
    dist[source] = 0.0
    settled = bytearray(n)
    heap: list[tuple[float, int]] = [(0.0, source)]
    indptr = csr.indptr_list
    indices = csr.indices_list
    weights = csr.weights_list
    pop = heapq.heappop
    push = heapq.heappush
    while heap:
        d, u = pop(heap)
        if settled[u]:
            continue
        settled[u] = 1
        if u in vertex_set:
            return d
        for k in range(indptr[u], indptr[u + 1]):
            v = indices[k]
            nd = d + weights[k]
            if nd < dist[v]:
                dist[v] = nd
                push(heap, (nd, v))
    return _INF


def spatial_similarity(
    distances: Iterable[float], num_locations: int, sigma: float
) -> float:
    """``(1/|O|) * sum exp(-d / sigma)`` over per-location distances.

    Infinite distances (unreachable locations) contribute zero.
    """
    total = 0.0
    for d in distances:
        if d != _INF:
            total += math.exp(-d / sigma)
    return total / num_locations


def text_similarity(query: UOTSQuery, trajectory: Trajectory) -> float:
    """The query's textual similarity to a trajectory's keywords."""
    return get_measure(query.text_measure)(query.keywords, trajectory.keywords)


def combine(lam: float, spatial: float, textual: float) -> float:
    """The linear combination ``lam * SimS + (1 - lam) * SimT``."""
    return lam * spatial + (1.0 - lam) * textual


class ExactScorer:
    """Exact scoring of individual trajectories against one query.

    Used by the brute-force oracle, by refinement steps, and by tests.  Two
    spatial strategies are offered:

    - :meth:`score` runs one bounded Dijkstra per query location per call
      (cheap for a handful of trajectories);
    - :meth:`score_all` runs one *full* Dijkstra per query location and
      reuses the distance arrays across every trajectory (the right shape
      for scoring the whole database).
    """

    def __init__(self, database: TrajectoryDatabase, query: UOTSQuery):
        query.validate_against(database.graph)
        self._database = database
        self._query = query
        self._measure: TextMeasure = get_measure(query.text_measure)
        self._full_distances: list[Mapping[int, float]] | None = None

    # ------------------------------------------------------------ one-shot
    def score(self, trajectory: Trajectory) -> ScoredTrajectory:
        """Exact score of one trajectory (per-call Dijkstras)."""
        graph = self._database.graph
        query = self._query
        distances = (
            nearest_trajectory_distance(graph, location, trajectory.vertex_set)
            for location in query.locations
        )
        spatial = spatial_similarity(
            distances, query.num_locations, self._database.sigma
        )
        textual = self._measure(query.keywords, trajectory.keywords)
        return ScoredTrajectory(
            trajectory_id=trajectory.id,
            score=combine(query.lam, spatial, textual),
            spatial_similarity=spatial,
            text_similarity=textual,
        )

    # ------------------------------------------------------------ database
    def _ensure_full_distances(self) -> list[Mapping[int, float]]:
        if self._full_distances is None:
            from repro.network.dijkstra import single_source_distances

            self._full_distances = [
                single_source_distances(self._database.graph, location)
                for location in self._query.locations
            ]
        return self._full_distances

    def score_with_shared_distances(self, trajectory: Trajectory) -> ScoredTrajectory:
        """Exact score using the shared full-Dijkstra distance maps."""
        tables = self._ensure_full_distances()
        query = self._query
        distances = []
        for table in tables:
            best = _INF
            for vertex in trajectory.vertex_set:
                d = table.get(vertex)
                if d is not None and d < best:
                    best = d
            distances.append(best)
        spatial = spatial_similarity(
            distances, query.num_locations, self._database.sigma
        )
        textual = self._measure(query.keywords, trajectory.keywords)
        return ScoredTrajectory(
            trajectory_id=trajectory.id,
            score=combine(query.lam, spatial, textual),
            spatial_similarity=spatial,
            text_similarity=textual,
        )

    def score_all(self) -> list[ScoredTrajectory]:
        """Exact scores for every trajectory in the database, best first."""
        scored = [
            self.score_with_shared_distances(trajectory)
            for trajectory in self._database.trajectories
        ]
        scored.sort()
        return scored
