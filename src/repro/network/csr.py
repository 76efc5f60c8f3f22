"""Flat CSR adjacency and array-backed shortest-path kernels.

A network's only adjacency structure is one ``indptr``/``indices``/
``weights`` triple (the classic compressed-sparse-row layout) built once
per graph from its edge columns.  This module holds it, plus the
shortest-path kernels written against it and the connected components.

Every full or cutoff-bounded multi-source shortest-path call in the
package is one SciPy ``scipy.sparse.csgraph.dijkstra`` call.  SciPy cannot
stop once a target is settled, so one interpreted kernel, ``_sssp_python``,
serves the early-exit searches (``sssp_array(target=...)``, and
``targets_array`` on small graphs), where stopping early beats a compiled
full row.  It walks Python-list mirrors of the CSR arrays (scalar indexing
on lists is several times faster than on NumPy arrays inside interpreted
loops).

SciPy is imported *lazily*, on the first kernel call — importing this
module (and therefore ``repro.core.search`` and the serving layer above
it) never pays the scipy import, keeping service cold-start light.

All kernels return dense ``float64`` distance arrays with ``inf`` marking
vertices that were not settled (unreachable, or beyond the cutoff), which
callers convert to the historical dict form where needed.
"""

from __future__ import annotations

import functools
import heapq
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "CSRAdjacency",
    "component_labels",
    "sssp_array",
    "sssp_arrays_batch",
    "targets_array",
    "array_to_distance_dict",
]

_INF = float("inf")


@functools.cache
def _scipy_kernels() -> tuple:
    """SciPy's ``(csr_matrix, dijkstra)``, imported on first use."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    return csr_matrix, dijkstra


class CSRAdjacency:
    """Compressed-sparse-row view of an undirected spatial network.

    ``indices[indptr[u]:indptr[u + 1]]`` are the neighbours of ``u`` and
    ``weights[...]`` the matching edge weights; both directions of every
    undirected edge are materialised, so the arrays describe a symmetric
    directed graph.  Immutable once built (like the graph it mirrors).

    The NumPy arrays serve vectorised consumers (SciPy, landmark tables);
    the ``*_list`` mirrors serve the interpreted early-exit kernel, where
    Python-list scalar indexing avoids a NumPy-scalar box per access.  The
    mirrors are built on that kernel's first access: a process that only
    runs full or bounded rows (the serving default) never boxes them.
    """

    __slots__ = ("num_vertices", "indptr", "indices", "weights", "_lists", "_matrix")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, weights: np.ndarray):
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        self.num_vertices = len(indptr) - 1
        self._lists: tuple[list[int], list[int], list[float]] | None = None
        self._matrix = None

    def _mirrors(self) -> tuple[list[int], list[int], list[float]]:
        if self._lists is None:
            self._lists = (
                self.indptr.tolist(), self.indices.tolist(), self.weights.tolist()
            )
        return self._lists

    @property
    def indptr_list(self) -> list[int]:
        return self._mirrors()[0]

    @property
    def indices_list(self) -> list[int]:
        return self._mirrors()[1]

    @property
    def weights_list(self) -> list[float]:
        return self._mirrors()[2]

    @classmethod
    def from_arrays(
        cls, num_vertices: int, us: np.ndarray, vs: np.ndarray, ws: np.ndarray
    ) -> "CSRAdjacency":
        """Build from undirected edge columns (each edge once): a vertex's
        row lists the edges where it is ``u``, then those where it is ``v``,
        each in edge order."""
        heads = np.concatenate([us, vs]).astype(np.int64, copy=False)
        order = np.argsort(heads, kind="stable")
        indptr = np.zeros(num_vertices + 1, dtype=np.int64)
        np.cumsum(np.bincount(heads, minlength=num_vertices), out=indptr[1:])
        tails = np.concatenate([vs, us]).astype(np.int64, copy=False)
        return cls(indptr, tails[order], np.concatenate([ws, ws])[order])

    def matrix(self):
        """The SciPy CSR matrix (cached)."""
        if self._matrix is None:
            csr_matrix = _scipy_kernels()[0]
            n = self.num_vertices
            self._matrix = csr_matrix(
                (self.weights, self.indices, self.indptr), shape=(n, n)
            )
        return self._matrix

    def __repr__(self) -> str:
        return (
            f"CSRAdjacency(|V|={self.num_vertices}, "
            f"arcs={len(self.indices)}, scipy={self._matrix is not None})"
        )


# ------------------------------------------------------------------ kernels
def component_labels(csr: CSRAdjacency) -> np.ndarray:
    """The connected-component label of every vertex (SciPy's
    ``connected_components``).  Vertices share a label exactly when they
    are connected."""
    from scipy.sparse.csgraph import connected_components

    return connected_components(csr.matrix(), directed=False)[1]


def _sssp_python(
    csr: CSRAdjacency,
    sources: Iterable[int],
    cutoff: float | None,
    stop: set[int] | None,
) -> np.ndarray:
    """Interpreted multi-source Dijkstra over the CSR list mirrors.

    The only heap loop of this module, and the only kernel that can stop
    early.  Settles vertices in distance order until the frontier passes
    ``cutoff`` or every member of ``stop`` is settled (``None``: explore
    the whole component); unsettled entries are ``inf``.
    """
    n = csr.num_vertices
    dist = [_INF] * n
    heap: list[tuple[float, int]] = []
    for s in sources:
        dist[s] = 0.0
        heap.append((0.0, s))
    heapq.heapify(heap)
    settled = bytearray(n)
    remaining = len(stop) if stop else 0
    indptr = csr.indptr_list
    indices = csr.indices_list
    weights = csr.weights_list
    pop = heapq.heappop
    push = heapq.heappush
    while heap:
        d, u = pop(heap)
        if settled[u]:
            continue
        if cutoff is not None and d > cutoff:
            break
        settled[u] = 1
        if remaining and u in stop:
            remaining -= 1
            if not remaining:
                break
        start = indptr[u]
        end = indptr[u + 1]
        for k in range(start, end):
            v = indices[k]
            nd = d + weights[k]
            if nd < dist[v]:
                dist[v] = nd
                push(heap, (nd, v))
    out = np.array(dist)
    out[np.frombuffer(settled, dtype=np.uint8) == 0] = np.inf
    return out


def sssp_array(
    csr: CSRAdjacency,
    sources: Iterable[int],
    cutoff: float | None = None,
    target: int | None = None,
) -> np.ndarray:
    """Multi-source shortest-path distances as a dense array.

    Entry ``v`` is the exact distance ``min over sources s of sd(s, v)``
    when that distance is ``<= cutoff`` (every distance with
    ``cutoff=None``) and ``inf`` otherwise.  ``target`` requests an early
    exit: only the target's entry (plus whatever was settled on the way)
    is guaranteed.  Full and cutoff-bounded explorations are one SciPy
    call; targeted searches run the interpreted kernel, which can actually
    stop early.
    """
    source_list = list(sources)
    if target is not None:
        return _sssp_python(csr, source_list, cutoff, {target})
    dijkstra = _scipy_kernels()[1]
    limit = np.inf if cutoff is None else float(cutoff)
    if len(source_list) == 1:
        return dijkstra(
            csr.matrix(), directed=True, indices=source_list[0], limit=limit
        )
    return dijkstra(
        csr.matrix(), directed=True, indices=source_list, limit=limit, min_only=True
    )


def sssp_arrays_batch(
    csr: CSRAdjacency, sources: Sequence[int], limit: float | None = None
) -> np.ndarray:
    """Distances from each source: shape ``(len(sources), |V|)``.

    Full rows by default; with ``limit``, entries farther than it are
    ``inf``.  One vectorised SciPy call (the all-pairs / landmark-table
    shape).
    """
    if not len(sources):
        return np.empty((0, csr.num_vertices))
    dijkstra = _scipy_kernels()[1]
    bound = np.inf if limit is None else float(limit)
    return np.atleast_2d(
        dijkstra(csr.matrix(), directed=True, indices=list(sources), limit=bound)
    )


# Above this vertex count a full C-speed sweep beats the interpreted
# early-exit search even when the targets happen to be nearby.
_SCIPY_TARGETS_MIN_VERTICES = 512


def targets_array(
    csr: CSRAdjacency,
    sources: Iterable[int],
    targets: Sequence[int],
    cutoff: float | None = None,
) -> list[float]:
    """Distances from the source set to each target, stopping early.

    The interpreted kernel with the targets as its stop set: the search ends
    as soon as every target is settled (or the frontier passes ``cutoff``).
    Unreached targets, and targets beyond ``cutoff``, come back as ``inf``,
    in ``targets`` order.  On large graphs the early exit cannot outrun
    SciPy's compiled sweep, so one SciPy row serves past
    ``_SCIPY_TARGETS_MIN_VERTICES`` vertices.
    """
    sources = list(sources)
    if sources and csr.num_vertices >= _SCIPY_TARGETS_MIN_VERTICES:
        row = sssp_array(csr, sources, cutoff=cutoff)
    else:
        row = _sssp_python(csr, sources, cutoff, set(targets))
    return [float(row[t]) for t in targets]


def array_to_distance_dict(distances: np.ndarray) -> dict[int, float]:
    """The historical ``{vertex: distance}`` form of a dense distance row."""
    reached = np.flatnonzero(np.isfinite(distances))
    return dict(zip(reached.tolist(), distances[reached].tolist()))
