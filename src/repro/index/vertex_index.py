"""Vertex-to-trajectory inverted index.

The expansion search needs to answer, for every vertex it settles, "which
trajectories pass through here?".  This index stores, per network vertex,
the sorted posting list of trajectory ids covering it — the in-memory
analogue of the per-vertex ArrayLists the paper describes for its
disk-resident variant.  The owning database validates vertex ids before a
trajectory reaches this index (see
:func:`~repro.index.database.check_vertices`).
"""

from __future__ import annotations

from bisect import insort

from repro.errors import TrajectoryIndexError, VertexNotFoundError
from repro.network.graph import SpatialNetwork
from repro.trajectory.model import Trajectory, TrajectorySet

__all__ = ["VertexTrajectoryIndex"]

_EMPTY: tuple[int, ...] = ()


class VertexTrajectoryIndex:
    """Per-vertex posting lists of the trajectories covering each vertex."""

    def __init__(self, graph: SpatialNetwork):
        self._graph = graph
        self._postings: list[list[int]] = [[] for __ in range(graph.num_vertices)]
        self._indexed: dict[int, frozenset[int]] = {}

    @classmethod
    def build(cls, graph: SpatialNetwork, trajectories: TrajectorySet) -> "VertexTrajectoryIndex":
        """Index every trajectory in ``trajectories``."""
        index = cls(graph)
        for trajectory in trajectories:
            index.add(trajectory)
        return index

    # ------------------------------------------------------------- mutation
    def add(self, trajectory: Trajectory) -> None:
        """Index one trajectory (vertices already validated); rejects
        duplicates."""
        if trajectory.id in self._indexed:
            raise TrajectoryIndexError(f"trajectory {trajectory.id} already indexed")
        self._indexed[trajectory.id] = trajectory.vertex_set
        for vertex in trajectory.vertex_set:
            insort(self._postings[vertex], trajectory.id)

    def remove(self, trajectory_id: int) -> None:
        """Remove a trajectory from all posting lists."""
        vertex_set = self._indexed.pop(trajectory_id, None)
        if vertex_set is None:
            raise TrajectoryIndexError(f"trajectory {trajectory_id} is not indexed")
        for vertex in vertex_set:
            self._postings[vertex].remove(trajectory_id)

    # -------------------------------------------------------------- queries
    def trajectories_at(self, vertex: int) -> list[int]:
        """Sorted ids of trajectories covering ``vertex`` (live view; do not mutate)."""
        if not (0 <= vertex < self._graph.num_vertices):
            raise VertexNotFoundError(vertex, self._graph.num_vertices)
        return self._postings[vertex]

    def vertices_of(self, trajectory_id: int) -> frozenset[int]:
        """The indexed vertex set of a trajectory."""
        try:
            return self._indexed[trajectory_id]
        except KeyError:
            raise TrajectoryIndexError(f"trajectory {trajectory_id} is not indexed") from None

    @property
    def num_trajectories(self) -> int:
        """How many trajectories are indexed."""
        return len(self._indexed)

    def __contains__(self, trajectory_id: int) -> bool:
        return trajectory_id in self._indexed

    def covered_vertices(self) -> list[int]:
        """Vertices covered by at least one trajectory."""
        return [v for v, posting in enumerate(self._postings) if posting]

    def __repr__(self) -> str:
        return (
            f"VertexTrajectoryIndex(trajectories={len(self._indexed)}, "
            f"covered_vertices={len(self.covered_vertices())})"
        )
