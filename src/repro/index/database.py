"""The trajectory database: network + trajectories + indexes in one handle.

Every searcher in :mod:`repro.core` operates on a
:class:`TrajectoryDatabase`, which bundles the spatial network, the
trajectory set, the vertex->trajectory and keyword->trajectory inverted
indexes, and the distance scale ``sigma`` used by the exponential similarity
decay.  Building the database once and sharing it across queries mirrors the
paper's memory-resident setup.

Two structures are built on first access, so a process that never reads
them never pays for them: the vertex->trajectory index (read only by the
collaborative expansion and the matching engine; the serving ``scan``
keeps its own flat arrays) and the ALT landmark index
(:class:`~repro.network.landmarks.LandmarkIndex`, ``None`` on disconnected
graphs, where the triangle-inequality bound has no single table).  The
cross-query caches (:class:`~repro.perf.QueryCaches`) are shared by every
searcher on this database.  Mutation (``add``/``remove``) keeps a built
vertex index current and invalidates affected cache entries; the landmark
table only depends on the immutable graph and survives trajectory churn.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable

import numpy as np

from repro.errors import (
    DatasetError,
    GraphError,
    MutationDispatchError,
    VertexNotFoundError,
)
from repro.index.events import MutationEvent
from repro.index.vertex_index import VertexTrajectoryIndex
from repro.network.graph import SpatialNetwork
from repro.network.landmarks import LandmarkIndex
from repro.network.stats import characteristic_distance
from repro.perf import QueryCaches
from repro.text.index import InvertedKeywordIndex
from repro.trajectory.model import Trajectory, TrajectorySet

__all__ = ["TrajectoryDatabase"]

_UNSET = object()

#: Landmarks precomputed for ALT pruning (capped by the graph size).
DEFAULT_NUM_LANDMARKS = 8


def check_vertices(graph: SpatialNetwork, trajectories: Iterable[Trajectory]) -> None:
    """Reject any trajectory on a vertex the graph lacks (vertex ids are
    non-negative by construction), before anything is indexed."""
    num_vertices = graph.num_vertices
    samples = [trajectory.vertex_array for trajectory in trajectories]
    if not samples or np.concatenate(samples).max() < num_vertices:
        return
    for vertices in samples:  # name the first offender
        top = int(vertices.max())
        if top >= num_vertices:
            raise VertexNotFoundError(top, num_vertices)


class TrajectoryDatabase:
    """Indexed view over a trajectory set on a spatial network."""

    def __init__(
        self,
        graph: SpatialNetwork,
        trajectories: TrajectorySet,
        sigma: float | None = None,
        cache_size: int | None = None,
        num_landmarks: int = DEFAULT_NUM_LANDMARKS,
    ):
        """``cache_size`` bounds the cross-query caches (``0`` disables,
        ``None`` keeps the defaults); ``num_landmarks`` sizes the lazily
        built ALT table."""
        if len(trajectories) == 0:
            raise DatasetError("a trajectory database needs at least one trajectory")
        check_vertices(graph, trajectories)
        self._graph = graph
        self._trajectories = trajectories
        self._vertex_index: VertexTrajectoryIndex | None = None
        self._index_lock = threading.Lock()
        self._keyword_index = InvertedKeywordIndex.build(trajectories)
        if sigma is None:
            # The exponential decay must separate "a few blocks away" from
            # "across town" for the bounds to prune; one eighth of the median
            # pairwise distance puts cross-town trajectories at e^-8 ~ 3e-4
            # while keeping genuinely nearby ones in the meaningful range.
            sigma = characteristic_distance(graph) / 8.0
        if sigma <= 0:
            raise DatasetError(f"sigma must be positive, got {sigma}")
        self._sigma = float(sigma)
        self._caches = QueryCaches(capacity=cache_size)
        self._num_landmarks = num_landmarks
        self._landmark_index: LandmarkIndex | None | object = _UNSET
        self._mutation_listeners: list[Callable[[MutationEvent], None]] = []

    # ------------------------------------------------------------ accessors
    @property
    def graph(self) -> SpatialNetwork:
        """The underlying spatial network."""
        return self._graph

    @property
    def trajectories(self) -> TrajectorySet:
        """The stored trajectory set."""
        return self._trajectories

    @property
    def vertex_index(self) -> VertexTrajectoryIndex:
        """Vertex -> trajectory-id posting lists, built on first access
        (0.17 s and 6.5 MB of Python lists at paper scale)."""
        index = self._vertex_index
        if index is None:
            with self._index_lock:
                index = self._vertex_index
                if index is None:
                    index = VertexTrajectoryIndex.build(self._graph, self._trajectories)
                    self._vertex_index = index
        return index

    @property
    def keyword_index(self) -> InvertedKeywordIndex:
        """Keyword -> trajectory-id posting lists."""
        return self._keyword_index

    @property
    def sigma(self) -> float:
        """Distance scale of the exponential spatial similarity decay."""
        return self._sigma

    @property
    def caches(self) -> QueryCaches:
        """The cross-query caches shared by every searcher on this database."""
        return self._caches

    @property
    def landmark_index(self) -> LandmarkIndex | None:
        """The ALT landmark index, built on first access.

        ``None`` when the graph is disconnected (a single landmark table
        cannot bound distances across components) or has no vertices; the
        outcome, either way, is computed once and cached.
        """
        if self._landmark_index is _UNSET:
            try:
                self._landmark_index = LandmarkIndex.build(
                    self._graph,
                    num_landmarks=min(
                        self._num_landmarks, max(1, self._graph.num_vertices)
                    ),
                    seed=0,
                )
            except GraphError:
                self._landmark_index = None
        return self._landmark_index

    def adopt_landmark_index(self, index: LandmarkIndex | None) -> None:
        """Share a landmark table built by another database on the same graph.

        The ALT table depends only on the immutable graph, so a view over a
        subset of the trajectories (a shard) can reuse its parent's table
        instead of re-running the landmark Dijkstras per shard.  Passing
        ``None`` (the parent's graph is disconnected) pins the outcome so
        the view does not attempt its own build either.
        """
        self._landmark_index = index

    def vertex_array(self, trajectory_id: int) -> np.ndarray:
        """The trajectory's distinct vertices as an integer array (what the
        vectorised ALT bound indexes the landmark table with)."""
        return self._trajectories.get(trajectory_id).distinct_vertices

    def __len__(self) -> int:
        return len(self._trajectories)

    def get(self, trajectory_id: int) -> Trajectory:
        """Look up a trajectory by id."""
        return self._trajectories.get(trajectory_id)

    # ------------------------------------------------------------- mutation
    def add(self, trajectory: Trajectory) -> None:
        """Insert a trajectory into the set and the indexes (the vertex
        index only once built); a vertex outside the graph is rejected
        before anything changes."""
        check_vertices(self._graph, (trajectory,))
        # The lock orders writes against a first-access vertex index build,
        # which reads the set: the index then holds each id exactly once.
        with self._index_lock:
            self._trajectories.add(trajectory)
            try:
                if self._vertex_index is not None:
                    self._vertex_index.add(trajectory)
                self._keyword_index.add(trajectory)
            except Exception:
                # Keep the structures consistent on partial failure.  No
                # event fires for a rolled-back add: nothing changed.
                self._trajectories.remove(trajectory.id)
                index = self._vertex_index
                if index is not None and trajectory.id in index:
                    index.remove(trajectory.id)
                raise
        self._dispatch(self._event("add", trajectory))

    def remove(self, trajectory_id: int) -> Trajectory:
        """Remove a trajectory from the set and the indexes."""
        with self._index_lock:
            trajectory = self._trajectories.remove(trajectory_id)
            if self._vertex_index is not None:
                self._vertex_index.remove(trajectory_id)
            self._keyword_index.remove(trajectory_id)
        self._dispatch(self._event("remove", trajectory))
        return trajectory

    def add_mutation_listener(self, listener: Callable[[MutationEvent], None]) -> None:
        """Register a callback fired with a typed event on every mutation.

        The listener receives the :class:`~repro.index.events.MutationEvent`
        (kind, trajectory id, keyword set, vertex array) through the same
        hook that scrubs the database's own cross-query caches — this is
        how derived caches living *above* the database (the service-level
        :class:`~repro.perf.result_cache.ResultCache`, the shard mirror)
        stay consistent without the database knowing about those layers.
        Listeners live as long as the database; register per long-lived
        cache, not per query.  Every listener runs on every mutation even
        when an earlier one raises — failures are aggregated into one
        :class:`~repro.errors.MutationDispatchError` after full dispatch.
        """
        self._mutation_listeners.append(listener)

    def remove_mutation_listener(self, listener: Callable[[MutationEvent], None]) -> None:
        """Unregister a mutation listener (a no-op when it is not registered)."""
        if listener in self._mutation_listeners:
            self._mutation_listeners.remove(listener)

    def _event(self, kind: str, trajectory: Trajectory) -> MutationEvent:
        """Build the scoped event for a just-applied mutation (its vertex
        array is the trajectory's own distinct-vertex array)."""
        return MutationEvent(
            kind=kind,
            trajectory_id=trajectory.id,
            keywords=trajectory.keywords,
            vertices=trajectory.distinct_vertices,
        )

    def _dispatch(self, event: MutationEvent) -> None:
        """Scrub own caches, then fan the event out to every listener.

        Dispatch never stops early: a raising listener would otherwise
        leave later caches stale relative to the already-mutated indexes.
        Collected failures surface together as
        :class:`~repro.errors.MutationDispatchError`.
        """
        self._caches.on_event(event)
        failures: list[BaseException] = []
        for listener in self._mutation_listeners:
            try:
                listener(event)
            except Exception as exc:  # noqa: BLE001 - aggregated below
                failures.append(exc)
        if failures:
            raise MutationDispatchError(event, failures)

    def __repr__(self) -> str:
        return (
            f"TrajectoryDatabase(|P|={len(self._trajectories)}, "
            f"graph={self._graph!r}, sigma={self._sigma:.1f})"
        )
