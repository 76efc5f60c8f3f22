"""Exact pairwise trajectory similarity.

The join's symmetric score is

``SimST(t1, t2) = V(t1, t2) + V(t2, t1)``          (range [0, 2])

with the directional ``V`` of :mod:`repro.matching.engine`.  This module
computes it exactly, amortising the expensive spatial part with cached
*distance transforms*: one multi-source Dijkstra per trajectory gives the
network distance from every vertex to that trajectory, after which any
pair's spatial terms are array lookups.  (This is the role the pre-computed
all-pair distances play for the accelerated temporal-first baseline.)
"""

from __future__ import annotations

import math

from repro.core.similarity import distance_transform
from repro.index.database import TrajectoryDatabase
from repro.matching.temporal import min_time_gap
from repro.trajectory.model import Trajectory

__all__ = ["PairwiseScorer"]

_INF = float("inf")


class PairwiseScorer:
    """Exact ``SimST`` with per-trajectory caches.

    Caches a distance transform and a sorted timestamp list per trajectory;
    both are built lazily on first use, so only trajectories that survive
    cheaper pruning pay the Dijkstra.
    """

    def __init__(
        self,
        database: TrajectoryDatabase,
        lam: float = 0.5,
        sigma_t: float = 1800.0,
        other: TrajectoryDatabase | None = None,
    ):
        """``other`` supplies the second side of a non-self join; it must
        share the same spatial network."""
        self._database = database
        self._other = other or database
        self._lam = lam
        self._sigma = database.sigma
        self._sigma_t = sigma_t
        self._transforms: dict[tuple[bool, int], dict[int, float]] = {}
        self._stamps: dict[tuple[bool, int], list[float]] = {}
        self.transforms_built = 0  # exposed for benchmark accounting

    def _lookup(self, from_other: bool, trajectory_id: int) -> Trajectory:
        side = self._other if from_other else self._database
        return side.get(trajectory_id)

    def _transform(self, from_other: bool, trajectory_id: int) -> dict[int, float]:
        key = (from_other, trajectory_id)
        cached = self._transforms.get(key)
        if cached is None:
            trajectory = self._lookup(from_other, trajectory_id)
            cached = distance_transform(self._database.graph, trajectory.vertex_set)
            self._transforms[key] = cached
            self.transforms_built += 1
        return cached

    def _timestamps(self, from_other: bool, trajectory_id: int) -> list[float]:
        key = (from_other, trajectory_id)
        cached = self._stamps.get(key)
        if cached is None:
            cached = sorted(self._lookup(from_other, trajectory_id).timestamps())
            self._stamps[key] = cached
        return cached

    # -------------------------------------------------------------- scoring
    def directional(
        self, t1: Trajectory, t2_id: int, t2_from_other: bool = False
    ) -> float:
        """Exact ``V(t1, t2)``: averages over ``t1``'s sample points."""
        transform = self._transform(t2_from_other, t2_id)
        stamps = self._timestamps(t2_from_other, t2_id)
        spatial = 0.0
        temporal = 0.0
        for vertex, timestamp in t1.samples():
            d = transform.get(vertex)
            if d is not None:
                spatial += math.exp(-d / self._sigma)
            gap = min_time_gap(timestamp, stamps)
            if gap != _INF:
                temporal += math.exp(-gap / self._sigma_t)
        m = len(t1)
        return (self._lam * spatial + (1.0 - self._lam) * temporal) / m

    def similarity(self, id1: int, id2: int, id2_from_other: bool = False) -> float:
        """Exact symmetric ``SimST(t1, t2) = V(t1, t2) + V(t2, t1)``."""
        t1 = self._database.get(id1)
        t2 = self._lookup(id2_from_other, id2)
        return self.directional(t1, id2, id2_from_other) + self.directional(
            t2, id1, False
        )
