"""Shortest-path primitives on spatial networks.

Graph-level wrappers over the multi-source Dijkstra of
:mod:`repro.network.csr` (SciPy ``csgraph`` rows, and its one interpreted
kernel where a search can stop early): single-target search with early
exit, bounded exploration (``cutoff``), multi-target search that stops
once all targets are settled, and dense all-pairs matrices for small
graphs.

Two heap loops of their own remain here, each for a stated reason:
:func:`shortest_path` is the one search that tracks parents, and
:func:`dict_reference_sssp` is the historical dict-based kernel, kept as
the executable specification the property tests compare against.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Sequence

import numpy as np

from repro.errors import DisconnectedError
from repro.network.csr import (
    array_to_distance_dict,
    sssp_array,
    sssp_arrays_batch,
    targets_array,
)
from repro.network.graph import SpatialNetwork

__all__ = [
    "shortest_path_length",
    "shortest_path",
    "single_source_distances",
    "distances_to_targets",
    "distance_matrix",
    "dict_reference_sssp",
]

_INF = float("inf")


def shortest_path_length(graph: SpatialNetwork, source: int, target: int) -> float:
    """Network distance ``sd(source, target)``.

    Raises :class:`DisconnectedError` when no path exists.
    """
    graph._check_vertex(source)
    graph._check_vertex(target)
    if source == target:
        return 0.0
    dist = sssp_array(graph.csr, (source,), target=target)
    if dist[target] == _INF:
        raise DisconnectedError(source, target)
    return float(dist[target])


def shortest_path(
    graph: SpatialNetwork, source: int, target: int
) -> tuple[list[int], float]:
    """Shortest path as ``(vertex sequence, length)``.

    Raises :class:`DisconnectedError` when no path exists.
    """
    graph._check_vertex(source)
    graph._check_vertex(target)
    if source == target:
        return [source], 0.0
    csr = graph.csr
    n = csr.num_vertices
    dist = [_INF] * n
    dist[source] = 0.0
    parent = [-1] * n
    settled = bytearray(n)
    heap: list[tuple[float, int]] = [(0.0, source)]
    indptr = csr.indptr_list
    indices = csr.indices_list
    weights = csr.weights_list
    pop = heapq.heappop
    push = heapq.heappush
    while heap:
        d, u = pop(heap)
        if settled[u]:
            continue
        settled[u] = 1
        if u == target:
            path = [target]
            while path[-1] != source:
                path.append(parent[path[-1]])
            path.reverse()
            return path, d
        for k in range(indptr[u], indptr[u + 1]):
            v = indices[k]
            nd = d + weights[k]
            if nd < dist[v]:
                dist[v] = nd
                parent[v] = u
                push(heap, (nd, v))
    raise DisconnectedError(source, target)


def single_source_distances(
    graph: SpatialNetwork, source: int, cutoff: float | None = None
) -> dict[int, float]:
    """Distances from ``source`` to every vertex within ``cutoff``.

    With ``cutoff=None`` the whole reachable component is explored.
    """
    graph._check_vertex(source)
    return array_to_distance_dict(sssp_array(graph.csr, (source,), cutoff=cutoff))


def distances_to_targets(
    graph: SpatialNetwork,
    source: int,
    targets: Iterable[int],
    cutoff: float | None = None,
) -> dict[int, float]:
    """Distances from ``source`` to each vertex in ``targets``.

    The search stops as soon as every target is settled (or the cutoff is
    reached); unreachable targets are simply absent from the result.
    """
    graph._check_vertex(source)
    target_list = list(dict.fromkeys(targets))
    for t in target_list:
        graph._check_vertex(t)
    if not target_list:
        return {}
    found = targets_array(graph.csr, (source,), target_list, cutoff=cutoff)
    return {t: d for t, d in zip(target_list, found) if d != _INF}


def distance_matrix(
    graph: SpatialNetwork, sources: Sequence[int] | None = None
) -> np.ndarray:
    """Dense matrix of pairwise network distances.

    ``sources`` defaults to all vertices; rows follow ``sources`` and columns
    are all vertex ids.  Unreachable pairs are ``inf``.  One batched SciPy
    call.  Intended for small graphs (the all-pairs pre-computation the TF
    baseline of the paper family relies on).
    """
    if sources is None:
        sources = range(graph.num_vertices)
    return sssp_arrays_batch(graph.csr, list(sources))


# -------------------------------------------------------------- reference
def dict_reference_sssp(
    graph: SpatialNetwork,
    sources: Iterable[int],
    target: int | None = None,
    cutoff: float | None = None,
) -> dict[int, float]:
    """The historical dict-based multi-source Dijkstra (reference kernel).

    Kept as the executable specification: the property tests and the P1
    kernel benchmark compare the CSR kernels against this implementation.
    Semantics are identical to the array kernels — settled distances for
    every vertex within ``cutoff``, early exit at ``target``.
    """
    dist: dict[int, float] = {}
    heap: list[tuple[float, int]] = []
    for s in sources:
        dist[s] = 0.0
        heap.append((0.0, s))
    heapq.heapify(heap)
    settled: dict[int, float] = {}
    csr = graph.csr
    indptr, indices, weights = csr.indptr_list, csr.indices_list, csr.weights_list
    while heap:
        d, u = heapq.heappop(heap)
        if u in settled:
            continue
        if cutoff is not None and d > cutoff:
            break
        settled[u] = d
        if u == target:
            break
        for k in range(indptr[u], indptr[u + 1]):
            v = indices[k]
            nd = d + weights[k]
            if v not in settled and nd < dist.get(v, _INF):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return settled
