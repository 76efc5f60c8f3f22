"""Bidirectional Dijkstra search.

Runs two simultaneous expansions, one from the source and one from the
target, alternating by frontier distance, and stops when the sum of the two
frontier radii exceeds the best meeting-point distance found so far.  On
road-like networks this roughly halves the settled vertex count relative to
unidirectional Dijkstra.
"""

from __future__ import annotations

import heapq

from repro.errors import DisconnectedError
from repro.network.graph import SpatialNetwork

__all__ = ["bidirectional_path_length", "bidirectional_path"]

_INF = float("inf")


def bidirectional_path_length(graph: SpatialNetwork, source: int, target: int) -> float:
    """Network distance computed with bidirectional Dijkstra."""
    __, length = bidirectional_path(graph, source, target)
    return length


def bidirectional_path(
    graph: SpatialNetwork, source: int, target: int
) -> tuple[list[int], float]:
    """Shortest path as ``(vertex sequence, length)`` via bidirectional search.

    Raises :class:`DisconnectedError` when no path exists.
    """
    graph._check_vertex(source)
    graph._check_vertex(target)
    if source == target:
        return [source], 0.0

    csr = graph.csr
    indptr, indices, weights = csr.indptr_list, csr.indices_list, csr.weights_list
    # Index 0 = forward search, index 1 = backward search.
    dists: list[dict[int, float]] = [{source: 0.0}, {target: 0.0}]
    parents: list[dict[int, int]] = [{}, {}]
    settled: list[set[int]] = [set(), set()]
    heaps: list[list[tuple[float, int]]] = [[(0.0, source)], [(0.0, target)]]
    radii = [0.0, 0.0]

    best = _INF
    meeting = -1
    while heaps[0] and heaps[1]:
        side = 0 if heaps[0][0][0] <= heaps[1][0][0] else 1
        d, u = heapq.heappop(heaps[side])
        if u in settled[side]:
            continue
        settled[side].add(u)
        radii[side] = d
        if radii[0] + radii[1] >= best:
            break
        other = 1 - side
        for k in range(indptr[u], indptr[u + 1]):
            v = indices[k]
            nd = d + weights[k]
            if v not in settled[side] and nd < dists[side].get(v, _INF):
                dists[side][v] = nd
                parents[side][v] = u
                heapq.heappush(heaps[side], (nd, v))
            via = dists[other].get(v)
            if via is not None:
                total = nd + via
                if total < best:
                    best = total
                    meeting = v

    if meeting < 0:
        # The searches never met: u itself may be the meeting vertex when a
        # frontier settles a vertex the other side already reached.
        for v in dists[0]:
            via = dists[1].get(v)
            if via is not None and dists[0][v] + via < best:
                best = dists[0][v] + via
                meeting = v
    if meeting < 0 or best == _INF:
        raise DisconnectedError(source, target)

    forward = [meeting]
    while forward[-1] != source:
        forward.append(parents[0][forward[-1]])
    forward.reverse()
    backward = []
    v = meeting
    while v != target:
        v = parents[1][v]
        backward.append(v)
    return forward + backward, best
