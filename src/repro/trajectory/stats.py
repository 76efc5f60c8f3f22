"""Descriptive statistics of trajectory datasets.

The benchmark harness prints these next to every experiment so a reader can
compare the synthetic data's shape against the paper's reported statistics
(average trajectory length ~72 samples for BRN, ~80 for NRN).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.errors import DatasetError
from repro.trajectory.model import TrajectorySet

__all__ = ["TrajectoryStats", "trajectory_stats"]


@dataclass(frozen=True)
class TrajectoryStats:
    """Summary of a trajectory dataset."""

    count: int
    avg_points: float
    min_points: int
    max_points: int
    avg_duration: float
    distinct_vertices: int
    avg_keywords: float
    distinct_keywords: int

    def describe(self) -> str:
        """Single-line human-readable summary."""
        return (
            f"|P|={self.count} avg_len={self.avg_points:.1f} "
            f"len_range=[{self.min_points}, {self.max_points}] "
            f"avg_dur={self.avg_duration / 60.0:.1f}min "
            f"coverage={self.distinct_vertices} vertices "
            f"avg_kw={self.avg_keywords:.1f}/{self.distinct_keywords} distinct"
        )


def trajectory_stats(trajectories: TrajectorySet) -> TrajectoryStats:
    """Compute :class:`TrajectoryStats`; rejects an empty set."""
    if len(trajectories) == 0:
        raise DatasetError("statistics of an empty trajectory set are undefined")
    lengths = []
    durations = []
    vertices: set[int] = set()
    keyword_counts = []
    keyword_universe: Counter[str] = Counter()
    for trajectory in trajectories:
        lengths.append(len(trajectory))
        durations.append(trajectory.duration)
        vertices.update(trajectory.vertices())
        keyword_counts.append(len(trajectory.keywords))
        keyword_universe.update(trajectory.keywords)
    count = len(lengths)
    return TrajectoryStats(
        count=count,
        avg_points=sum(lengths) / count,
        min_points=min(lengths),
        max_points=max(lengths),
        avg_duration=sum(durations) / count,
        distinct_vertices=len(vertices),
        avg_keywords=sum(keyword_counts) / count,
        distinct_keywords=len(keyword_universe),
    )
