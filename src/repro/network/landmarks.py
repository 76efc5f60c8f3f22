"""ALT (A*, Landmarks, Triangle inequality) distance lower bounds.

A set of landmark vertices is chosen with the classic farthest-point
heuristic; single-source distances from each landmark are precomputed.  The
triangle inequality then gives, for any pair ``(u, v)``,

    sd(u, v) >= |sd(l, u) - sd(l, v)|      for every landmark l,

and the maximum over landmarks is a (often tight) lower bound, a cheap
pre-filter before running an exact search.  The vectorised
:meth:`LandmarkIndex.lower_bounds_to_set` extends the bound to
point-to-set distances (``min over p in P of sd(o, p)``), which is what
the collaborative search needs to cap a blocked trajectory's frontier
contribution before paying for its refinement Dijkstra.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import GraphError
from repro.network.csr import sssp_arrays_batch
from repro.network.graph import SpatialNetwork

__all__ = ["LandmarkIndex", "clamp_events"]

# Process-wide count of builds that asked for more landmarks than the graph
# has vertices and were clamped.
_clamp_events = 0


def clamp_events() -> int:
    """How many :meth:`LandmarkIndex.build` calls clamped ``num_landmarks``."""
    return _clamp_events


class LandmarkIndex:
    """Precomputed landmark distances over a connected spatial network."""

    def __init__(self, graph: SpatialNetwork, landmarks: Sequence[int], table: np.ndarray):
        self._graph = graph
        self._landmarks = list(landmarks)
        self._table = table  # shape (num_landmarks, num_vertices)

    @classmethod
    def build(
        cls,
        graph: SpatialNetwork,
        num_landmarks: int = 8,
        seed: int | np.random.Generator | None = None,
    ) -> "LandmarkIndex":
        """Select landmarks by farthest-point traversal and precompute distances.

        The first landmark is random (``seed`` is anything
        :func:`numpy.random.default_rng` accepts — an int, a ``Generator``,
        or ``None`` — consistent with the rest of the codebase; no
        module-level random state is touched).  Each subsequent landmark is
        the vertex maximizing the minimum distance to the already chosen
        ones, which spreads landmarks to the periphery where ALT bounds are
        tightest.

        ``num_landmarks`` larger than the vertex count is clamped to the
        vertex count (every vertex becomes a landmark) rather than raised:
        small shard subgraphs and tiny test graphs still get ALT bounds.
        Each clamp bumps the process-wide :func:`clamp_events` counter.

        Raises :class:`GraphError` when the graph is empty or disconnected,
        or when ``num_landmarks < 1``.
        """
        if graph.num_vertices == 0:
            raise GraphError("cannot build landmarks on an empty graph")
        if num_landmarks < 1:
            raise GraphError(f"num_landmarks must be >= 1, got {num_landmarks}")
        if num_landmarks > graph.num_vertices:
            global _clamp_events
            _clamp_events += 1
            num_landmarks = graph.num_vertices
        if not graph.is_connected():
            raise GraphError("LandmarkIndex requires a connected graph")
        rng = np.random.default_rng(seed)
        first = int(rng.integers(graph.num_vertices))

        landmarks = [first]
        rows = [_distance_row(graph, first)]
        min_dist = rows[0].copy()
        while len(landmarks) < num_landmarks:
            candidate = int(np.argmax(min_dist))
            if min_dist[candidate] <= 0.0:
                break  # every vertex is already a landmark
            landmarks.append(candidate)
            row = _distance_row(graph, candidate)
            rows.append(row)
            np.minimum(min_dist, row, out=min_dist)
        return cls(graph, landmarks, np.vstack(rows))

    # -------------------------------------------------------------- queries
    @property
    def landmarks(self) -> list[int]:
        """The selected landmark vertex ids."""
        return list(self._landmarks)

    def lower_bound(self, u: int, v: int) -> float:
        """A lower bound on ``sd(u, v)`` from the triangle inequality."""
        self._graph._check_vertex(u)
        self._graph._check_vertex(v)
        if u == v:
            return 0.0
        column_u = self._table[:, u]
        column_v = self._table[:, v]
        return float(np.max(np.abs(column_u - column_v)))

    def lower_bounds_to_set(
        self, sources: np.ndarray, vertices: np.ndarray
    ) -> np.ndarray:
        """Per-source lower bounds on the point-to-set network distance.

        Entry ``i`` lower-bounds ``min over p in vertices of
        sd(sources[i], p)``: the ALT pair bound, maximised over landmarks
        and minimised over the vertex set, fully vectorised — one call
        prices every query location against one trajectory's vertex set.
        """
        table = self._table
        # (L, m, 1) - (L, 1, P) -> (L, m, P): |sd(l, o) - sd(l, p)|
        diff = np.abs(
            table[:, sources][:, :, None] - table[:, vertices][:, None, :]
        )
        return diff.max(axis=0).min(axis=1)


def _distance_row(graph: SpatialNetwork, source: int) -> np.ndarray:
    return sssp_arrays_batch(graph.csr, (source,))[0]
