"""Map matching: raw GPS fixes -> network-constrained trajectory.

The paper assumes trajectories are already map matched (it cites
Brakatsoulas et al. and Wenk et al.); this module supplies that substrate.
Two matchers are provided:

- :func:`snap_match` — nearest-vertex snapping with consecutive-duplicate
  collapsing: fast, adequate for dense fixes,
- :class:`HmmMatcher` — a small Viterbi matcher that balances emission
  likelihood (fix-to-vertex distance) against transition likelihood (network
  distance vs. straight-line displacement), which resists the outliers that
  defeat per-point snapping.
"""

from __future__ import annotations

import math

from repro.errors import DatasetError
from repro.network.dijkstra import distances_to_targets
from repro.network.graph import SpatialNetwork
from repro.trajectory.model import Trajectory
from repro.trajectory.noise import RawFix

__all__ = ["snap_match", "HmmMatcher", "VertexGrid"]


class VertexGrid:
    """Uniform cell grid over the network's vertices for radius queries."""

    def __init__(self, graph: SpatialNetwork, cell_size: float | None = None):
        if graph.num_vertices == 0:
            raise DatasetError("cannot index an empty graph")
        self._graph = graph
        min_x, min_y, max_x, max_y = graph.bounding_box()
        extent = max(max_x - min_x, max_y - min_y, 1.0)
        self._cell = cell_size or extent / max(1.0, math.sqrt(graph.num_vertices))
        self._origin = (min_x, min_y)
        # Occupied cells span (0, 0) .. _last; `within` never looks outside.
        self._last = self._key(max_x, max_y)
        self._cells: dict[tuple[int, int], list[int]] = {}
        for v in graph.vertices():
            self._cells.setdefault(self._key(*graph.position(v)), []).append(v)

    def _key(self, x: float, y: float) -> tuple[int, int]:
        ox, oy = self._origin
        return (int((x - ox) // self._cell), int((y - oy) // self._cell))

    def nearest(self, x: float, y: float) -> tuple[int, float]:
        """Closest vertex to ``(x, y)`` and its Euclidean distance."""
        candidates = self.within(x, y, self._cell)
        ring = 2
        while not candidates:
            candidates = self.within(x, y, ring * self._cell)
            ring *= 2
        xs, ys = self._graph.xs, self._graph.ys
        best = min(candidates, key=lambda v: (xs[v] - x) ** 2 + (ys[v] - y) ** 2)
        return best, math.hypot(xs[best] - x, ys[best] - y)

    def within(self, x: float, y: float, radius: float) -> list[int]:
        """All vertices within Euclidean ``radius`` of ``(x, y)``; the cell
        window is clamped to the occupied extent, so a far point costs O(grid)."""
        cx, cy = self._key(x, y)
        reach = int(radius // self._cell) + 1
        last_x, last_y = self._last
        xs, ys = self._graph.xs, self._graph.ys
        r2 = radius * radius
        found = []
        for gx in range(max(cx - reach, 0), min(cx + reach, last_x) + 1):
            for gy in range(max(cy - reach, 0), min(cy + reach, last_y) + 1):
                for v in self._cells.get((gx, gy), ()):
                    if (xs[v] - x) ** 2 + (ys[v] - y) ** 2 <= r2:
                        found.append(v)
        return found


def snap_match(
    graph: SpatialNetwork,
    fixes: list[RawFix],
    trajectory_id: int = 0,
    grid: VertexGrid | None = None,
) -> Trajectory:
    """Match by snapping each fix to its nearest vertex.

    Consecutive fixes snapping to the same vertex are collapsed (keeping the
    first timestamp), mirroring how repeated idling samples are cleaned in
    real pipelines.
    """
    if not fixes:
        raise DatasetError("cannot map match an empty fix list")
    grid = grid or VertexGrid(graph)
    return _collapse(trajectory_id, fixes, (grid.nearest(f.x, f.y)[0] for f in fixes))


class HmmMatcher:
    """Viterbi map matcher over candidate vertices per fix.

    Emission: Gaussian in the fix-to-vertex distance.  Transition: exponential
    in the absolute difference between network distance and straight-line
    displacement (a fix sequence should advance along the road about as fast
    as it advances on the map).
    """

    def __init__(
        self,
        graph: SpatialNetwork,
        candidate_radius: float = 80.0,
        max_candidates: int = 6,
        emission_std: float = 25.0,
        transition_beta: float = 60.0,
    ):
        if candidate_radius <= 0 or emission_std <= 0 or transition_beta <= 0:
            raise DatasetError("matcher parameters must be positive")
        self._graph = graph
        self._grid = VertexGrid(graph)
        self._radius = candidate_radius
        self._max_candidates = max_candidates
        self._emission_std = emission_std
        self._beta = transition_beta

    def _candidates(self, fix: RawFix) -> list[tuple[int, float]]:
        xs, ys = self._graph.xs, self._graph.ys
        found = self._grid.within(fix.x, fix.y, self._radius)
        if not found:
            found = [self._grid.nearest(fix.x, fix.y)[0]]
        scored = sorted(
            (math.hypot(xs[v] - fix.x, ys[v] - fix.y), v) for v in set(found)
        )
        return [(v, d) for d, v in scored[: self._max_candidates]]

    def match(self, fixes: list[RawFix], trajectory_id: int = 0) -> Trajectory:
        """Run Viterbi decoding over the fix sequence."""
        if not fixes:
            raise DatasetError("cannot map match an empty fix list")
        emission_var = 2.0 * self._emission_std**2

        layers: list[list[tuple[int, float]]] = [self._candidates(f) for f in fixes]
        # score[i][j] = best log-likelihood ending at candidate j of fix i
        scores: list[list[float]] = [[-(d * d) / emission_var for __, d in layers[0]]]
        parents: list[list[int]] = [[-1] * len(layers[0])]

        for i in range(1, len(fixes)):
            prev_layer, layer = layers[i - 1], layers[i]
            straight = math.hypot(
                fixes[i].x - fixes[i - 1].x, fixes[i].y - fixes[i - 1].y
            )
            row_scores: list[float] = []
            row_parents: list[int] = []
            # Network distances from each previous candidate to all current.
            target_set = [v for v, __ in layer]
            network_d: list[dict[int, float]] = [
                distances_to_targets(
                    self._graph, pv, target_set, cutoff=straight + 8.0 * self._radius
                )
                for pv, __ in prev_layer
            ]
            for j, (v, d_emit) in enumerate(layer):
                best_score, best_parent = -math.inf, -1
                for p, (pv, __) in enumerate(prev_layer):
                    nd = network_d[p].get(v)
                    if nd is None:
                        continue
                    transition = -abs(nd - straight) / self._beta
                    candidate = scores[i - 1][p] + transition
                    if candidate > best_score:
                        best_score, best_parent = candidate, p
                if best_parent < 0:  # all transitions pruned; restart chain
                    best_score = max(scores[i - 1])
                    best_parent = scores[i - 1].index(best_score)
                row_scores.append(best_score - (d_emit * d_emit) / emission_var)
                row_parents.append(best_parent)
            scores.append(row_scores)
            parents.append(row_parents)

        # Backtrack the best chain.
        j = scores[-1].index(max(scores[-1]))
        chain: list[int] = []
        for i in range(len(fixes) - 1, -1, -1):
            chain.append(layers[i][j][0])
            j = parents[i][j]
        chain.reverse()
        return _collapse(trajectory_id, fixes, chain)


def _collapse(trajectory_id: int, fixes: list[RawFix], matched) -> Trajectory:
    """The trajectory of the fixes' matched vertices: a run on one vertex
    keeps its first fix, and a timestamp behind the previous one (clock
    jitter) is clamped to it."""
    vertices: list[int] = []
    stamps: list[float] = []
    for fix, vertex in zip(fixes, matched):
        if vertices and vertices[-1] == vertex:
            continue
        vertices.append(vertex)
        stamps.append(max(fix.timestamp, stamps[-1]) if stamps else fix.timestamp)
    return Trajectory.from_arrays(trajectory_id, vertices, stamps)
