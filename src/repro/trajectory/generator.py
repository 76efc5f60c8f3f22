"""Synthetic trip generation.

The paper's trajectory data (T-Drive taxi logs for Beijing, NYC taxi trips)
cannot be redistributed, so this module generates trips with the same
statistics that drive the algorithms under test:

- trips follow shortest paths between origin/destination pairs, optionally
  with a detour through an intermediate waypoint (taxis rarely drive
  optimally),
- origins and waypoints are drawn from a pool of *hubs* (railway stations,
  business districts), giving the spatial clustering real taxi data
  exhibits; destinations are arbitrary,
- departure times follow a bimodal rush-hour distribution on the 24-hour
  axis, and travel speed varies per trip,
- point counts land in the paper's range (~72-80 samples on average) by
  subsampling the path to a target count.

Routing cost is amortised with a shortest-path-tree cache: one Dijkstra per
pool vertex serves every trip leaving it, so generating tens of thousands of
trips on a 30k-vertex network takes seconds, not hours.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass

from repro.errors import DatasetError
from repro.network.graph import SpatialNetwork
from repro.trajectory.model import DAY_SECONDS, Trajectory, TrajectorySet

__all__ = ["TripConfig", "TripGenerator", "generate_trips"]

_INF = float("inf")


@dataclass(frozen=True)
class TripConfig:
    """Parameters of the synthetic trip distribution."""

    num_origins: int = 48  # size of the origin/waypoint pool (trip "hubs")
    detour_probability: float = 0.35
    min_points: int = 8
    max_points: int = 120
    target_points: int = 40  # typical samples per trip before clamping
    speed_low: float = 5.0  # metres/second (~18 km/h congested)
    speed_high: float = 17.0  # metres/second (~61 km/h free flow)
    rush_hours: tuple[float, float] = (8.0, 18.0)  # peak departure hours
    rush_std_hours: float = 1.6
    rush_weight: float = 0.8  # share of trips departing in a rush peak

    def __post_init__(self):
        if self.num_origins < 1:
            raise DatasetError("num_origins must be >= 1")
        if not (0.0 <= self.detour_probability <= 1.0):
            raise DatasetError("detour_probability must be in [0, 1]")
        if self.min_points < 2 or self.max_points < self.min_points:
            raise DatasetError("need max_points >= min_points >= 2")
        if self.speed_low <= 0 or self.speed_high < self.speed_low:
            raise DatasetError("need speed_high >= speed_low > 0")


class _PathOracle:
    """Cached full shortest-path trees for a pool of origin vertices."""

    def __init__(self, graph: SpatialNetwork):
        self._graph = graph
        # Private list copies of the CSR: the generated graph keeps no
        # interpreted-kernel mirrors once generation is done.
        csr = graph.csr
        self._arcs = (csr.indptr.tolist(), csr.indices.tolist(), csr.weights.tolist())
        self._trees: dict[int, tuple[list[float], list[int]]] = {}

    def tree(self, origin: int) -> tuple[list[float], list[int]]:
        """``(distances, parents)`` arrays of the origin's shortest-path tree."""
        cached = self._trees.get(origin)
        if cached is not None:
            return cached
        n = self._graph.num_vertices
        dist = [_INF] * n
        parent = [-1] * n
        dist[origin] = 0.0
        heap = [(0.0, origin)]
        settled = [False] * n
        indptr, indices, weights = self._arcs
        while heap:
            d, u = heapq.heappop(heap)
            if settled[u]:
                continue
            settled[u] = True
            for k in range(indptr[u], indptr[u + 1]):
                v = indices[k]
                nd = d + weights[k]
                if not settled[v] and nd < dist[v]:
                    dist[v] = nd
                    parent[v] = u
                    heapq.heappush(heap, (nd, v))
        self._trees[origin] = (dist, parent)
        return dist, parent

    def path(self, origin: int, destination: int) -> list[int] | None:
        """Shortest path as a vertex list, or ``None`` when unreachable."""
        dist, parent = self.tree(origin)
        if dist[destination] == _INF:
            return None
        path = [destination]
        while path[-1] != origin:
            path.append(parent[path[-1]])
        path.reverse()
        return path


class TripGenerator:
    """Seeded generator of taxi-trip-like trajectories on a network."""

    def __init__(
        self,
        graph: SpatialNetwork,
        config: TripConfig | None = None,
        seed: int | None = None,
    ):
        if graph.num_vertices < 2:
            raise DatasetError("trip generation needs a graph with >= 2 vertices")
        self._graph = graph
        self._config = config or TripConfig()
        self._rng = random.Random(seed)
        self._oracle = _PathOracle(graph)
        pool_size = min(self._config.num_origins, graph.num_vertices)
        self._origin_pool = self._rng.sample(range(graph.num_vertices), pool_size)

    # ----------------------------------------------------------- sampling
    def _sample_departure(self) -> float:
        config = self._config
        rng = self._rng
        if rng.random() < config.rush_weight:
            peak = rng.choice(config.rush_hours)
            hour = rng.gauss(peak, config.rush_std_hours)
        else:
            hour = rng.uniform(0.0, 24.0)
        return (hour % 24.0) * 3600.0

    def _route(self) -> list[int] | None:
        """One origin-pool routed path, optionally via a waypoint; reversed
        half the time so trips flow both toward and away from hubs."""
        rng = self._rng
        origin = rng.choice(self._origin_pool)
        destination = self._rng.randrange(self._graph.num_vertices)
        if origin == destination:
            return None
        if rng.random() < self._config.detour_probability and len(self._origin_pool) > 1:
            waypoint = rng.choice(self._origin_pool)
            if waypoint not in (origin, destination):
                first = self._oracle.path(origin, waypoint)
                second = self._oracle.path(waypoint, destination)
                if first is None or second is None:
                    return None
                path = first + second[1:]
            else:
                path = self._oracle.path(origin, destination)
        else:
            path = self._oracle.path(origin, destination)
        if path is None or len(path) < 2:
            return None
        if rng.random() < 0.5:
            path = path[::-1]
        return path

    # ----------------------------------------------------------- generation
    def generate(self, trajectory_id: int) -> Trajectory:
        """Generate one trajectory (retrying unreachable endpoint pairs)."""
        graph = self._graph
        config = self._config
        rng = self._rng
        for __ in range(64):
            path = self._route()
            if path is None:
                continue
            path = self._subsample(path)
            if len(path) < 2:
                continue
            departure = self._sample_departure()
            speed = rng.uniform(config.speed_low, config.speed_high)
            stamps = []
            t = departure
            previous = path[0]
            for vertex in path:
                if vertex != previous:
                    t += graph.euclidean(previous, vertex) / speed
                stamps.append(t % DAY_SECONDS)
                previous = vertex
            # Shift trips that cross midnight back to 0:00 so timestamps
            # stay non-decreasing, as the trajectory model requires.
            if any(b < a for a, b in zip(stamps, stamps[1:])):
                shift = DAY_SECONDS - departure
                stamps = [(stamp + shift) % DAY_SECONDS for stamp in stamps]
            return Trajectory.from_arrays(trajectory_id, path, stamps)
        raise DatasetError("could not generate a trip (graph too fragmented?)")

    def _subsample(self, path: list[int]) -> list[int]:
        """Reduce a dense vertex path to a realistic GPS sample count."""
        config = self._config
        target = max(
            config.min_points,
            min(config.max_points, int(self._rng.gauss(config.target_points, 10))),
        )
        if len(path) > target:
            step = (len(path) - 1) / (target - 1)
            indices = sorted({round(i * step) for i in range(target)})
            if indices[-1] != len(path) - 1:
                indices.append(len(path) - 1)
            path = [path[i] for i in indices]
        # A detour path can revisit a vertex; subsampling may then make the
        # two visits adjacent.  Collapse such runs.
        collapsed = [path[0]]
        for vertex in path[1:]:
            if vertex != collapsed[-1]:
                collapsed.append(vertex)
        return collapsed

    def generate_set(self, count: int, start_id: int = 0) -> TrajectorySet:
        """Generate ``count`` trajectories with ids ``start_id..``."""
        return TrajectorySet(self.generate(start_id + i) for i in range(count))


def generate_trips(
    graph: SpatialNetwork,
    count: int,
    seed: int | None = None,
    config: TripConfig | None = None,
    start_id: int = 0,
) -> TrajectorySet:
    """Convenience wrapper: seeded :class:`TripGenerator` + ``generate_set``."""
    return TripGenerator(graph, config, seed).generate_set(count, start_id)
