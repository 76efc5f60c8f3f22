"""Spatial partitioning of a trajectory set into shards.

The default :class:`GridPartitioner` lays a uniform grid over the graph's
bounding box and assigns each trajectory to the cell containing the center
of its own bounding box — trajectories that run close together land in the
same shard, which is what makes per-shard distance summaries tight.  Any
object satisfying :class:`Partitioner` (e.g. a METIS-style graph
partitioner mapping each trajectory to its dominant component) can be
plugged into :class:`~repro.shard.searcher.ShardedSearcher` instead; the
shard layer only needs the trajectory-id -> group labeling.
"""

from __future__ import annotations

import math
from typing import Protocol, runtime_checkable

import numpy as np

from repro.errors import DatasetError
from repro.network.graph import SpatialNetwork
from repro.trajectory.model import Trajectory, TrajectorySet

__all__ = ["Partitioner", "GridPartitioner", "trajectory_center"]


def trajectory_center(graph: SpatialNetwork, trajectory: Trajectory) -> tuple[float, float]:
    """Center of the trajectory's vertex bounding box (its shard locus)."""
    vertices = trajectory.vertex_array
    xs = graph.xs[vertices]
    ys = graph.ys[vertices]
    return (
        (float(xs.min()) + float(xs.max())) / 2.0,
        (float(ys.min()) + float(ys.max())) / 2.0,
    )


@runtime_checkable
class Partitioner(Protocol):
    """The contract a shard partitioner satisfies.

    ``assign`` maps every trajectory id to an arbitrary integer group
    label; the shard collection turns the distinct labels (in sorted
    order, so shard numbering is deterministic) into shards.
    """

    def assign(
        self, graph: SpatialNetwork, trajectories: TrajectorySet
    ) -> dict[int, int]:
        """Trajectory id -> group label."""
        ...  # pragma: no cover - protocol


class GridPartitioner:
    """Uniform grid over the graph bounding box, ``about`` cells.

    ``shards`` is a target, not a guarantee: the grid is ``ceil(sqrt(S))``
    columns by ``ceil(S / cols)`` rows, and only non-empty cells become
    shards, so skewed data may produce fewer.
    """

    def __init__(self, shards: int):
        if shards < 1:
            raise DatasetError(f"shards must be >= 1, got {shards}")
        self._shards = shards

    def assign(
        self, graph: SpatialNetwork, trajectories: TrajectorySet
    ) -> dict[int, int]:
        """Label each trajectory with the grid cell of its bbox center."""
        cols = max(1, math.ceil(math.sqrt(self._shards)))
        rows = max(1, math.ceil(self._shards / cols))
        min_x, min_y, max_x, max_y = graph.bounding_box()
        width = max(max_x - min_x, 1e-12)
        height = max(max_y - min_y, 1e-12)
        labels: dict[int, int] = {}
        for trajectory in trajectories:
            cx, cy = trajectory_center(graph, trajectory)
            col = min(cols - 1, int((cx - min_x) / width * cols))
            row = min(rows - 1, int((cy - min_y) / height * rows))
            labels[trajectory.id] = row * cols + col
        return labels
