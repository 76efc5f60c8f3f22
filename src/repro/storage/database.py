"""Disk-resident trajectory database.

The paper's disk configuration: indexes (vertex postings, keyword postings,
the id directory) stay memory-resident, but trajectory payloads live on
disk behind an LRU buffer.  :class:`DiskTrajectoryDatabase` exposes the same
interface as the in-memory :class:`~repro.index.database.TrajectoryDatabase`
(every searcher accepts either), so the disk experiment is a drop-in swap.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.errors import DatasetError, GraphError
from repro.index.database import check_vertices
from repro.index.vertex_index import VertexTrajectoryIndex
from repro.network.graph import SpatialNetwork
from repro.network.landmarks import LandmarkIndex
from repro.network.stats import characteristic_distance
from repro.perf import QueryCaches
from repro.storage.pages import DEFAULT_PAGE_SIZE
from repro.storage.store import DiskTrajectoryStore
from repro.text.index import InvertedKeywordIndex
from repro.trajectory.model import Trajectory, TrajectorySet

__all__ = ["DiskTrajectoryDatabase"]

_UNSET = object()


class _DiskBackedSet:
    """A TrajectorySet-shaped view over the disk store (read only)."""

    def __init__(self, store: DiskTrajectoryStore):
        self._store = store

    def get(self, trajectory_id: int) -> Trajectory:
        return self._store.get(trajectory_id)

    def ids(self) -> list[int]:
        return self._store.ids()

    def __contains__(self, trajectory_id: int) -> bool:
        return trajectory_id in self._store

    def __len__(self) -> int:
        return len(self._store)

    def __iter__(self):
        return iter(self._store)


class DiskTrajectoryDatabase:
    """Searcher-compatible database with disk-resident trajectory payloads."""

    def __init__(
        self,
        graph: SpatialNetwork,
        store: DiskTrajectoryStore,
        vertex_index: VertexTrajectoryIndex,
        keyword_index: InvertedKeywordIndex,
        sigma: float,
    ):
        self._graph = graph
        self._store = store
        self._vertex_index = vertex_index
        self._keyword_index = keyword_index
        self._sigma = sigma
        self._view = _DiskBackedSet(store)
        self._caches = QueryCaches()
        self._landmark_index: LandmarkIndex | None | object = _UNSET
        self._vertex_arrays: dict[int, np.ndarray] = {}

    @classmethod
    def build(
        cls,
        path: str | Path,
        graph: SpatialNetwork,
        trajectories: TrajectorySet,
        sigma: float | None = None,
        page_size: int = DEFAULT_PAGE_SIZE,
        buffer_capacity: int = 256,
        retry=None,
        checksum: bool = True,
    ) -> "DiskTrajectoryDatabase":
        """Materialise the store on disk and build the in-memory indexes.

        ``retry`` is an optional :class:`~repro.resilience.retry.RetryPolicy`
        absorbing transient disk faults; ``checksum=False`` drops the
        per-page CRC32 (legacy format, benchmark baseline).
        """
        if len(trajectories) == 0:
            raise DatasetError("a trajectory database needs at least one trajectory")
        check_vertices(graph, trajectories)
        store = DiskTrajectoryStore.build(
            path, trajectories, page_size=page_size,
            buffer_capacity=buffer_capacity, retry=retry, checksum=checksum,
        )
        vertex_index = VertexTrajectoryIndex.build(graph, trajectories)
        keyword_index = InvertedKeywordIndex.build(trajectories)
        if sigma is None:
            sigma = characteristic_distance(graph) / 8.0
        return cls(graph, store, vertex_index, keyword_index, sigma)

    # ------------------------------------------------ database interface
    @property
    def graph(self) -> SpatialNetwork:
        """The underlying spatial network."""
        return self._graph

    @property
    def trajectories(self) -> _DiskBackedSet:
        """Iterable, id-addressable view over the stored trajectories."""
        return self._view

    @property
    def vertex_index(self) -> VertexTrajectoryIndex:
        """Vertex -> trajectory-id posting lists (memory-resident)."""
        return self._vertex_index

    @property
    def keyword_index(self) -> InvertedKeywordIndex:
        """Keyword -> trajectory-id posting lists (memory-resident)."""
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
        """The ALT landmark index, built on first access (memory-resident).

        ``None`` on disconnected graphs; the outcome is computed once.
        """
        if self._landmark_index is _UNSET:
            try:
                self._landmark_index = LandmarkIndex.build(
                    self._graph,
                    num_landmarks=min(8, max(1, self._graph.num_vertices)),
                    seed=0,
                )
            except GraphError:
                self._landmark_index = None
        return self._landmark_index

    def vertex_array(self, trajectory_id: int) -> np.ndarray:
        """The trajectory's distinct vertices as a cached integer array (for
        ALT), kept so a query does not re-read the record from disk."""
        array = self._vertex_arrays.get(trajectory_id)
        if array is None:
            array = self._store.get(trajectory_id).distinct_vertices
            self._vertex_arrays[trajectory_id] = array
        return array

    def get(self, trajectory_id: int) -> Trajectory:
        """Read a trajectory from disk (through the LRU buffer)."""
        return self._store.get(trajectory_id)

    def __len__(self) -> int:
        return len(self._store)

    # --------------------------------------------------------- disk extras
    @property
    def store(self) -> DiskTrajectoryStore:
        """The underlying page store (buffer stats live on it)."""
        return self._store

    def close(self) -> None:
        """Close the backing page file."""
        self._store.close()

    def __repr__(self) -> str:
        return (
            f"DiskTrajectoryDatabase(|P|={len(self._store)}, "
            f"pages={self._store.num_pages}, "
            f"buffer={self._store.buffer.capacity})"
        )
