"""Trajectory data model.

A trajectory is a finite, time-ordered sequence of map-matched sample points
``(vertex, timestamp)``; timestamps live on a 24-hour axis (seconds in
``[0, 86400)``) because, as in the paper family, most urban movements repeat
daily and the date is not modelled.  Each trajectory additionally carries a
set of *textual attributes* — keywords describing the activities and places
along the trip — which is what makes the UOTS query user-oriented.

A :class:`Trajectory` stores its samples as two read-only arrays (integer
vertices, float64 timestamps), so a loaded dataset is a few thousand small
arrays rather than half a million point objects.  :class:`TrajectoryPoint`
values and the distinct-vertex ``frozenset`` are built only for the callers
that ask for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, NoReturn

import numpy as np

from repro.errors import TrajectoryError

__all__ = ["DAY_SECONDS", "TrajectoryPoint", "Trajectory", "TrajectorySet"]

DAY_SECONDS = 86_400.0


@dataclass(frozen=True, slots=True)
class TrajectoryPoint:
    """One map-matched sample: a network vertex at a time of day (seconds)."""

    vertex: int
    timestamp: float

    def __post_init__(self):
        if self.vertex < 0:
            raise TrajectoryError(f"negative vertex id {self.vertex}")
        if not (0.0 <= self.timestamp < DAY_SECONDS):
            raise TrajectoryError(
                f"timestamp {self.timestamp} outside the 24-hour axis [0, {DAY_SECONDS})"
            )


def _validate(trajectory_id: int, vertices: np.ndarray, timestamps: np.ndarray) -> None:
    if trajectory_id < 0:
        raise TrajectoryError(f"negative trajectory id {trajectory_id}")
    if vertices.ndim != 1 or vertices.shape != timestamps.shape:
        raise TrajectoryError(
            f"trajectory {trajectory_id} needs one timestamp per vertex, got "
            f"shapes {vertices.shape} and {timestamps.shape}"
        )
    if not vertices.size:
        raise TrajectoryError(f"trajectory {trajectory_id} has no sample points")
    # Non-decreasing timestamps whose ends lie on the axis are all on it,
    # and NaN fails every comparison, so four reductions cover every check.
    if not (
        vertices.min() >= 0
        and timestamps[0] >= 0.0
        and timestamps[-1] < DAY_SECONDS
        and (timestamps[1:] >= timestamps[:-1]).all()
    ):
        _reject(trajectory_id, vertices, timestamps)


def _reject(trajectory_id: int, vertices: np.ndarray, timestamps: np.ndarray) -> NoReturn:
    """Raise the error the first offending sample earns, in the order the
    per-point checks report them: a bad point before any decrease."""
    on_axis = (timestamps >= 0.0) & (timestamps < DAY_SECONDS)
    bad = np.flatnonzero((vertices < 0) | ~on_axis)
    if bad.size:
        i = bad[0]
        if vertices[i] < 0:
            raise TrajectoryError(f"negative vertex id {int(vertices[i])}")
        raise TrajectoryError(
            f"timestamp {float(timestamps[i])} outside the 24-hour axis [0, {DAY_SECONDS})"
        )
    i = np.flatnonzero(timestamps[1:] < timestamps[:-1])[0]
    raise TrajectoryError(
        f"trajectory {trajectory_id} timestamps decrease: "
        f"{float(timestamps[i])} -> {float(timestamps[i + 1])}"
    )


class Trajectory:
    """An immutable trajectory with an id, sample points and keywords.

    Parameters
    ----------
    trajectory_id:
        Unique non-negative identifier within a :class:`TrajectorySet`.
    points:
        Time-ordered samples.  Must be non-empty; timestamps must be
        non-decreasing (several samples may share a timestamp after map
        matching snaps them to the same minute).
    keywords:
        Textual attributes of the trip (may be empty).

    :meth:`from_arrays` builds the same trajectory from a vertex array and a
    timestamp array without any :class:`TrajectoryPoint`.
    """

    __slots__ = ("_id", "_vertices", "_timestamps", "_keywords", "_vertex_set", "_distinct")

    def __init__(
        self,
        trajectory_id: int,
        points: Iterable[TrajectoryPoint],
        keywords: Iterable[str] = (),
    ):
        points = tuple(points)
        count = len(points)
        self._init(
            trajectory_id,
            np.fromiter((p.vertex for p in points), dtype=np.intp, count=count),
            np.fromiter((p.timestamp for p in points), dtype=np.float64, count=count),
            frozenset(k.lower() for k in keywords),
        )

    @classmethod
    def from_arrays(
        cls,
        trajectory_id: int,
        vertices,
        timestamps,
        keywords: Iterable[str] = (),
    ) -> "Trajectory":
        """The trajectory sampling ``vertices[i]`` at ``timestamps[i]``
        (seconds); both are copied, and checked as the point form is."""
        trajectory = cls.__new__(cls)
        trajectory._init(
            trajectory_id,
            np.array(vertices, dtype=np.intp),
            np.array(timestamps, dtype=np.float64),
            frozenset(k.lower() for k in keywords),
        )
        return trajectory

    def _init(
        self,
        trajectory_id: int,
        vertices: np.ndarray,
        timestamps: np.ndarray,
        keywords: frozenset[str],
    ) -> None:
        """Adopt two private arrays (validated here, then frozen)."""
        _validate(trajectory_id, vertices, timestamps)
        vertices.flags.writeable = False
        timestamps.flags.writeable = False
        self._id = trajectory_id
        self._vertices = vertices
        self._timestamps = timestamps
        self._keywords = keywords
        self._vertex_set: frozenset[int] | None = None
        self._distinct: np.ndarray | None = None

    def __reduce__(self):
        # Unpickled arrays come back writeable; rebuilding re-freezes them.
        return (
            type(self).from_arrays,
            (self._id, self._vertices, self._timestamps, self._keywords),
        )

    # ------------------------------------------------------------ accessors
    @property
    def id(self) -> int:
        """The trajectory's identifier."""
        return self._id

    @property
    def points(self) -> tuple[TrajectoryPoint, ...]:
        """The time-ordered sample points, built on each access."""
        return tuple(
            map(TrajectoryPoint, self._vertices.tolist(), self._timestamps.tolist())
        )

    @property
    def vertex_array(self) -> np.ndarray:
        """Sample-point vertices in visit order (read-only ``intp``)."""
        return self._vertices

    @property
    def timestamp_array(self) -> np.ndarray:
        """Sample-point timestamps in order (read-only ``float64``)."""
        return self._timestamps

    @property
    def keywords(self) -> frozenset[str]:
        """The textual attributes (lower-cased)."""
        return self._keywords

    @property
    def distinct_vertices(self) -> np.ndarray:
        """The distinct vertices the trajectory covers, ascending (read-only
        ``intp``, built on first access)."""
        distinct = self._distinct
        if distinct is None:
            distinct = np.unique(self._vertices)
            distinct.flags.writeable = False
            self._distinct = distinct
        return distinct

    @property
    def vertex_set(self) -> frozenset[int]:
        """The distinct vertices the trajectory covers, as a set built on
        first access (array consumers read :attr:`distinct_vertices`)."""
        vertex_set = self._vertex_set
        if vertex_set is None:
            vertex_set = self._vertex_set = frozenset(self._vertices.tolist())
        return vertex_set

    def samples(self) -> list[tuple[int, float]]:
        """The sample points as ``(vertex, timestamp)`` pairs, in order."""
        return list(zip(self._vertices.tolist(), self._timestamps.tolist()))

    def vertices(self) -> list[int]:
        """Sample-point vertices in visit order (with repeats)."""
        return self._vertices.tolist()

    def timestamps(self) -> list[float]:
        """Sample-point timestamps in order."""
        return self._timestamps.tolist()

    @property
    def time_range(self) -> tuple[float, float]:
        """``(departure, arrival)`` timestamps."""
        return (float(self._timestamps[0]), float(self._timestamps[-1]))

    @property
    def duration(self) -> float:
        """Travel time in seconds (arrival minus departure)."""
        start, end = self.time_range
        return end - start

    def __len__(self) -> int:
        return self._vertices.size

    def __iter__(self) -> Iterator[TrajectoryPoint]:
        return iter(self.points)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trajectory):
            return NotImplemented
        return (
            self._id == other._id
            and self._keywords == other._keywords
            and np.array_equal(self._vertices, other._vertices)
            and np.array_equal(self._timestamps, other._timestamps)
        )

    def __hash__(self) -> int:
        return hash((self._id, self._vertices.tobytes(), self._keywords))

    def __repr__(self) -> str:
        start, end = self.time_range
        return (
            f"Trajectory(id={self._id}, points={len(self)}, "
            f"range=[{start:.0f}s, {end:.0f}s], keywords={sorted(self._keywords)!r})"
        )

    # ------------------------------------------------------------- variants
    def _variant(self, trajectory_id: int, keywords: frozenset[str]) -> "Trajectory":
        """A copy sharing this trajectory's (read-only) arrays."""
        variant = type(self).__new__(type(self))
        variant._init(trajectory_id, self._vertices, self._timestamps, keywords)
        return variant

    def with_keywords(self, keywords: Iterable[str]) -> "Trajectory":
        """A copy of this trajectory carrying ``keywords`` instead."""
        return self._variant(self._id, frozenset(k.lower() for k in keywords))

    def with_id(self, trajectory_id: int) -> "Trajectory":
        """A copy of this trajectory under a different id."""
        return self._variant(trajectory_id, self._keywords)


class TrajectorySet:
    """A collection of trajectories with unique ids and fast id lookup."""

    def __init__(self, trajectories: Iterable[Trajectory] = ()):
        self._by_id: dict[int, Trajectory] = {}
        for trajectory in trajectories:
            self.add(trajectory)

    def add(self, trajectory: Trajectory) -> None:
        """Add a trajectory; rejects duplicate ids."""
        if trajectory.id in self._by_id:
            raise TrajectoryError(f"duplicate trajectory id {trajectory.id}")
        self._by_id[trajectory.id] = trajectory

    def remove(self, trajectory_id: int) -> Trajectory:
        """Remove and return the trajectory with ``trajectory_id``."""
        try:
            return self._by_id.pop(trajectory_id)
        except KeyError:
            raise TrajectoryError(f"unknown trajectory id {trajectory_id}") from None

    def get(self, trajectory_id: int) -> Trajectory:
        """The trajectory with ``trajectory_id``; raises if absent."""
        try:
            return self._by_id[trajectory_id]
        except KeyError:
            raise TrajectoryError(f"unknown trajectory id {trajectory_id}") from None

    def __contains__(self, trajectory_id: int) -> bool:
        return trajectory_id in self._by_id

    def __len__(self) -> int:
        return len(self._by_id)

    def __iter__(self) -> Iterator[Trajectory]:
        return iter(self._by_id.values())

    def ids(self) -> list[int]:
        """All trajectory ids (insertion order)."""
        return list(self._by_id)

    def as_mapping(self) -> Mapping[int, Trajectory]:
        """Read-only view of the id -> trajectory mapping."""
        return self._by_id

    def __repr__(self) -> str:
        return f"TrajectorySet(size={len(self._by_id)})"
