"""Personalized trajectory matching (PTM) — spatio-temporal extension.

The paper's future-work direction (realised by the same group in the PTM
paper, VLDB J. 2014): the query is itself a *trajectory* — e.g. the
commuter's intended trip with timestamps — and the answer is the data
trajectory (or top-k) most similar to it in the spatial and temporal
domains:

``V(q, tau) = lam * SimS(q, tau) + (1 - lam) * SimT_time(q, tau)``

with both components averaged over the query's sample points, exactly the
directional similarity of :mod:`repro.matching.engine`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from repro.core.results import ScoredTrajectory, SearchResult, SearchStats, TopK
from repro.errors import QueryError
from repro.index.database import TrajectoryDatabase
from repro.matching.engine import DirectionalSearchEngine
from repro.matching.temporal import TimestampIndex, min_time_gap
from repro.network.dijkstra import single_source_distances
from repro.trajectory.model import Trajectory

__all__ = ["PTMQuery", "PTMMatcher", "BruteForcePTMMatcher"]

_INF = float("inf")


@dataclass(frozen=True)
class PTMQuery:
    """A personalized trajectory matching query.

    ``trajectory`` is the traveler's intended trip (vertices + timestamps);
    ``lam`` weighs the spatial against the temporal domain; ``k`` is the
    number of matches to return.
    """

    trajectory: Trajectory
    lam: float = 0.5
    k: int = 1

    def __post_init__(self):
        if not (0.0 <= self.lam <= 1.0):
            raise QueryError(f"lam must be in [0, 1], got {self.lam}")
        if self.k < 1:
            raise QueryError(f"k must be >= 1, got {self.k}")

    @property
    def points(self) -> list[tuple[int, float]]:
        """The query's ``(vertex, timestamp)`` pairs."""
        return self.trajectory.samples()


class PTMMatcher:
    """Expansion-based top-k trajectory matching."""

    def __init__(
        self,
        database: TrajectoryDatabase,
        sigma_t: float = 1800.0,
        engine: DirectionalSearchEngine | None = None,
    ):
        self._database = database
        self._engine = engine or DirectionalSearchEngine(database, sigma_t=sigma_t)

    @property
    def engine(self) -> DirectionalSearchEngine:
        """The underlying directional search engine (shared, reusable)."""
        return self._engine

    def match(self, query: PTMQuery, exclude_self: bool = True) -> SearchResult:
        """Top-k trajectories by spatio-temporal similarity to the query.

        ``exclude_self`` skips a stored trajectory with the query's id (the
        natural semantics when matching a trajectory already in the
        database against the rest).
        """
        exclude = query.trajectory.id if exclude_self else None
        return self._engine.topk_search(
            query.points, query.lam, query.k, exclude_id=exclude
        )


class BruteForcePTMMatcher:
    """Exact exhaustive matching — the oracle for :class:`PTMMatcher`."""

    def __init__(self, database: TrajectoryDatabase, sigma_t: float = 1800.0):
        self._database = database
        self._sigma_t = sigma_t
        self._timestamp_index = TimestampIndex.build(database.trajectories)

    def match(self, query: PTMQuery, exclude_self: bool = True) -> SearchResult:
        """Score every trajectory exactly; return the top-k."""
        started = time.perf_counter()
        database = self._database
        points = query.points
        m = len(points)
        sigma = database.sigma
        sigma_t = self._sigma_t

        distance_tables = [
            single_source_distances(database.graph, vertex) for vertex, __ in points
        ]
        topk = TopK(query.k)
        count = 0
        for trajectory in database.trajectories:
            if exclude_self and trajectory.id == query.trajectory.id:
                continue
            count += 1
            spatial = 0.0
            for table in distance_tables:
                best = _INF
                for vertex in trajectory.vertex_set:
                    d = table.get(vertex)
                    if d is not None and d < best:
                        best = d
                if best != _INF:
                    spatial += math.exp(-best / sigma)
            temporal = 0.0
            stamps = self._timestamp_index.trajectory_timestamps(trajectory.id)
            for __, timestamp in points:
                gap = min_time_gap(timestamp, stamps)
                if gap != _INF:
                    temporal += math.exp(-gap / sigma_t)
            value = (query.lam * spatial + (1.0 - query.lam) * temporal) / m
            topk.offer(
                ScoredTrajectory(trajectory.id, value, spatial / m, temporal / m)
            )
        stats = SearchStats(
            visited_trajectories=count,
            expanded_vertices=m * database.graph.num_vertices,
            similarity_evaluations=count,
            elapsed_seconds=time.perf_counter() - started,
        )
        return SearchResult(items=topk.ranked(), stats=stats)
