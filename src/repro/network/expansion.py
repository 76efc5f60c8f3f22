"""Incremental network expansion — the core search primitive.

The UOTS search explores the network *incrementally* from every query
location: each expansion step settles one more vertex, in non-decreasing
distance order, and the caller interleaves steps from several expansions
under the control of a scheduler.  This module provides that resumable
Dijkstra, backed by the graph's flat CSR arrays with a dense ``dist`` list
and a ``settled`` byte mask (no dicts on the hot path).

The key guarantee (Dijkstra's invariant) used throughout the paper family:
if the expansion from ``source`` first reaches a vertex belonging to
trajectory ``tau`` at distance ``d``, then ``d == d(source, tau)``, the exact
network distance from the source to the trajectory; and :attr:`radius` is a
lower bound on the distance to everything not yet settled.

:meth:`expand_steps` settles up to ``n`` vertices in one call so a caller
expanding in batches pays one Python call per batch, not per vertex —
callers must check :attr:`exhausted` (not the radius) to detect a source
running dry mid-batch.
"""

from __future__ import annotations

import heapq

from repro.network.graph import SpatialNetwork

__all__ = ["IncrementalExpansion"]

_INF = float("inf")


class IncrementalExpansion:
    """A resumable single-source Dijkstra over a spatial network.

    Parameters
    ----------
    graph:
        The network to explore.
    source:
        Vertex the expansion starts from.

    Notes
    -----
    ``expand()`` settles and returns one vertex per call (``expand_steps``
    settles a batch); vertices come out in non-decreasing distance order.
    :attr:`radius` is the distance of the most recently settled vertex and
    therefore lower-bounds the distance of every vertex not settled yet.
    """

    __slots__ = (
        "_graph",
        "_source",
        "_heap",
        "_dist",
        "_settled",
        "_order",
        "_radius",
        "_indptr",
        "_indices",
        "_weights",
    )

    def __init__(self, graph: SpatialNetwork, source: int):
        graph._check_vertex(source)
        self._graph = graph
        self._source = source
        csr = graph.csr
        self._indptr = csr.indptr_list
        self._indices = csr.indices_list
        self._weights = csr.weights_list
        n = graph.num_vertices
        self._heap: list[tuple[float, int]] = [(0.0, source)]
        self._dist: list[float] = [_INF] * n
        self._dist[source] = 0.0
        self._settled = bytearray(n)
        self._order: list[tuple[int, float]] = []
        self._radius = 0.0

    # ------------------------------------------------------------ properties
    @property
    def source(self) -> int:
        """The expansion's start vertex."""
        return self._source

    @property
    def radius(self) -> float:
        """Distance of the last settled vertex.

        Monotonically non-decreasing; a valid lower bound on the distance
        of every unsettled vertex.  Stays at the last settled distance once
        the component is exhausted — an exhausted source can reach nothing
        further, so callers that zero out exhausted frontiers must check
        :attr:`exhausted` rather than wait for an infinite radius (which a
        mid-batch exhaustion never produces).
        """
        return self._radius

    @property
    def exhausted(self) -> bool:
        """Whether the whole reachable component has been settled."""
        return not self._heap

    # ------------------------------------------------------------- stepping
    def expand(self) -> tuple[int, float] | None:
        """Settle the next-closest vertex.

        Returns ``(vertex, distance)`` or ``None`` when the reachable
        component is exhausted.
        """
        steps = self.expand_steps(1)
        return steps[0] if steps else None

    def expand_steps(self, max_steps: int) -> list[tuple[int, float]]:
        """Settle up to ``max_steps`` next-closest vertices in one call.

        Returns the settled ``(vertex, distance)`` pairs in settle order;
        fewer than ``max_steps`` entries (possibly none) means the
        reachable component ran out mid-batch — :attr:`exhausted` is then
        true and :attr:`radius` keeps its last settled value.
        """
        out: list[tuple[int, float]] = []
        heap = self._heap
        if not heap:
            return out
        settled = self._settled
        dist = self._dist
        indptr = self._indptr
        indices = self._indices
        weights = self._weights
        pop = heapq.heappop
        push = heapq.heappush
        while heap and len(out) < max_steps:
            d, u = pop(heap)
            if settled[u]:
                continue  # stale heap entry (lazy deletion)
            settled[u] = 1
            self._radius = d
            for k in range(indptr[u], indptr[u + 1]):
                v = indices[k]
                nd = d + weights[k]
                if nd < dist[v]:
                    dist[v] = nd
                    push(heap, (nd, v))
            out.append((u, d))
        if out:
            self._order.extend(out)
        # Drain trailing stale entries so `exhausted` flips as soon as the
        # last real vertex is settled, not one call later.
        while heap and settled[heap[0][1]]:
            pop(heap)
        return out

    # --------------------------------------------------------------- lookup
    def settled_vertices(self) -> dict[int, float]:
        """All settled ``vertex -> distance`` entries (snapshot)."""
        return dict(self._order)

    def __repr__(self) -> str:
        return (
            f"IncrementalExpansion(source={self._source}, "
            f"settled={len(self._order)}, radius={self._radius:.3f}, "
            f"exhausted={self.exhausted})"
        )
