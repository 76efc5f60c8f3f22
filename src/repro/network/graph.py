"""Spatial network model.

A spatial network is a connected, undirected graph ``G = (V, E, W)`` in which
vertices carry planar coordinates (road intersections) and edge weights are
positive road-segment lengths.  Vertices are dense integer ids ``0..n-1``.

The network is held as arrays only: the coordinates, the edges as three
columns in input order, and the CSR adjacency built once from them
(:class:`repro.network.csr.CSRAdjacency`).  Every per-vertex view
(neighbours, degree, edge lookup, components) reads the CSR; no Python
object is kept per vertex or per edge.

The class is immutable after construction; use
:class:`repro.network.builder.GraphBuilder` to assemble one incrementally.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import GraphError, VertexNotFoundError
from repro.network.csr import CSRAdjacency, component_labels

__all__ = ["SpatialNetwork"]


class SpatialNetwork:
    """An immutable, undirected, weighted graph with vertex coordinates.

    Parameters
    ----------
    xs, ys:
        Vertex coordinates, one entry per vertex.
    edges:
        Iterable of ``(u, v, weight)`` triples.  Each undirected edge is
        given once; parallel edges and self-loops are rejected.
        :meth:`from_arrays` takes the same edges as three columns.
    validate:
        When true (the default), reject malformed input (negative weights,
        out-of-range or non-integral endpoints, duplicates).
    """

    __slots__ = ("_xs", "_ys", "_us", "_vs", "_ws", "_csr")

    def __init__(
        self,
        xs: Sequence[float],
        ys: Sequence[float],
        edges: Iterable[tuple[int, int, float]],
        validate: bool = True,
    ):
        columns = np.array(list(edges), dtype=np.float64).reshape(-1, 3)
        self._set(xs, ys, columns[:, 0], columns[:, 1], columns[:, 2], validate)

    @classmethod
    def from_arrays(
        cls,
        xs: Sequence[float],
        ys: Sequence[float],
        us: Sequence[int],
        vs: Sequence[int],
        ws: Sequence[float],
        validate: bool = True,
    ) -> "SpatialNetwork":
        """The network whose ``i``-th edge is ``(us[i], vs[i], ws[i])``."""
        graph = cls.__new__(cls)
        graph._set(xs, ys, us, vs, ws, validate)
        return graph

    def _set(self, xs, ys, us, vs, ws, validate: bool) -> None:
        if len(xs) != len(ys):
            raise GraphError(f"coordinate arrays differ in length: {len(xs)} != {len(ys)}")
        self._xs = np.asarray(xs, dtype=np.float64)
        self._ys = np.asarray(ys, dtype=np.float64)
        n = len(self._xs)
        us, vs = np.asarray(us), np.asarray(vs)
        self._us = us.astype(np.int64)
        self._vs = vs.astype(np.int64)
        self._ws = np.ascontiguousarray(ws, dtype=np.float64)
        if not (len(self._us) == len(self._vs) == len(self._ws)):
            raise GraphError("edge columns differ in length")
        if validate:
            _validate(n, us, vs, self._us, self._vs, self._ws)
        self._csr = CSRAdjacency.from_arrays(n, self._us, self._vs, self._ws)

    # ------------------------------------------------------------------ size
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``|V|``."""
        return len(self._xs)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``|E|``."""
        return len(self._ws)

    @property
    def total_weight(self) -> float:
        """Sum of all edge weights (total road length), added left to right
        in edge order."""
        return float(np.cumsum(self._ws)[-1]) if len(self._ws) else 0.0

    def __len__(self) -> int:
        return self.num_vertices

    def __repr__(self) -> str:
        return f"SpatialNetwork(|V|={self.num_vertices}, |E|={self.num_edges})"

    # ------------------------------------------------------------- structure
    def vertices(self) -> range:
        """All vertex ids as a range."""
        return range(self.num_vertices)

    def edges(self) -> Iterator[tuple[int, int, float]]:
        """Iterate over ``(u, v, weight)`` triples (each edge once, in input
        order)."""
        return zip(self._us.tolist(), self._vs.tolist(), self._ws.tolist())

    @property
    def nbytes(self) -> int:
        """Bytes held by the network's arrays (coordinates, edges, CSR)."""
        csr = self._csr
        arrays = (self._xs, self._ys, self._us, self._vs, self._ws,
                  csr.indptr, csr.indices, csr.weights)
        return sum(array.nbytes for array in arrays)

    def neighbors(self, vertex: int) -> list[tuple[int, float]]:
        """Adjacent ``(neighbor, weight)`` pairs of ``vertex``, in CSR order."""
        self._check_vertex(vertex)
        csr = self._csr
        arcs = slice(csr.indptr[vertex], csr.indptr[vertex + 1])
        return list(zip(csr.indices[arcs].tolist(), csr.weights[arcs].tolist()))

    @property
    def csr(self) -> CSRAdjacency:
        """The flat CSR adjacency every shortest-path kernel runs against."""
        return self._csr

    def degree(self, vertex: int) -> int:
        """Number of edges incident to ``vertex``."""
        self._check_vertex(vertex)
        return int(self._csr.indptr[vertex + 1] - self._csr.indptr[vertex])

    def _arc(self, u: int, v: int) -> int:
        """The CSR position of the arc ``u -> v``, or -1 when there is none."""
        n = self.num_vertices
        if not (0 <= u < n and 0 <= v < n):
            return -1
        start = self._csr.indptr[u]
        hit = np.flatnonzero(self._csr.indices[start : self._csr.indptr[u + 1]] == v)
        return int(start + hit[0]) if hit.size else -1

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``{u, v}`` exists."""
        return self._arc(u, v) >= 0

    def edge_weight(self, u: int, v: int) -> float:
        """Weight of edge ``{u, v}``; raises :class:`GraphError` if absent."""
        arc = self._arc(u, v)
        if arc < 0:
            raise GraphError(f"edge ({u}, {v}) does not exist")
        return float(self._csr.weights[arc])

    def _check_vertex(self, vertex: int) -> None:
        if not (0 <= vertex < self.num_vertices):
            raise VertexNotFoundError(vertex, self.num_vertices)

    # ------------------------------------------------------------- geometry
    def position(self, vertex: int) -> tuple[float, float]:
        """The ``(x, y)`` coordinates of ``vertex``."""
        self._check_vertex(vertex)
        return (float(self._xs[vertex]), float(self._ys[vertex]))

    @property
    def xs(self) -> np.ndarray:
        """Vertex x coordinates (read-only view)."""
        return self._xs

    @property
    def ys(self) -> np.ndarray:
        """Vertex y coordinates (read-only view)."""
        return self._ys

    def euclidean(self, u: int, v: int) -> float:
        """Straight-line distance between two vertices."""
        self._check_vertex(u)
        self._check_vertex(v)
        dx = self._xs[u] - self._xs[v]
        dy = self._ys[u] - self._ys[v]
        return float(np.hypot(dx, dy))

    def bounding_box(self) -> tuple[float, float, float, float]:
        """``(min_x, min_y, max_x, max_y)`` over all vertices."""
        if self.num_vertices == 0:
            raise GraphError("bounding box of an empty graph is undefined")
        return (
            float(self._xs.min()),
            float(self._ys.min()),
            float(self._xs.max()),
            float(self._ys.max()),
        )

    def nearest_vertex(self, x: float, y: float) -> int:
        """The vertex closest (in Euclidean distance) to the point ``(x, y)``."""
        if self.num_vertices == 0:
            raise GraphError("nearest vertex in an empty graph is undefined")
        d2 = (self._xs - x) ** 2 + (self._ys - y) ** 2
        return int(np.argmin(d2))

    # ---------------------------------------------------------- connectivity
    def connected_components(self) -> list[list[int]]:
        """All connected components, each a sorted list of vertex ids,
        ordered by their smallest vertex."""
        if self.num_vertices == 0:
            return []
        labels = component_labels(self._csr)
        order = np.argsort(labels, kind="stable")
        bounds = np.cumsum(np.bincount(labels))[:-1]
        components = [part.tolist() for part in np.split(order, bounds)]
        components.sort(key=lambda component: component[0])
        return components

    def is_connected(self) -> bool:
        """Whether every vertex is reachable from every other vertex."""
        if self.num_vertices <= 1:
            return True
        return len(self.connected_components()) == 1

    def subgraph(self, vertices: Sequence[int]) -> tuple["SpatialNetwork", dict[int, int]]:
        """Induced subgraph on ``vertices``.

        Returns the new graph together with the mapping from old vertex ids
        to new (dense) ids.
        """
        keep = sorted(set(vertices))
        for v in keep:
            self._check_vertex(v)
        new_id = np.full(self.num_vertices, -1, dtype=np.int64)
        new_id[keep] = np.arange(len(keep))
        us, vs = new_id[self._us], new_id[self._vs]
        inside = (us >= 0) & (vs >= 0)
        sub = SpatialNetwork.from_arrays(
            self._xs[keep], self._ys[keep], us[inside], vs[inside], self._ws[inside],
            validate=False,
        )
        return sub, {old: new for new, old in enumerate(keep)}


def _validate(
    n: int,
    raw_us: np.ndarray,
    raw_vs: np.ndarray,
    us: np.ndarray,
    vs: np.ndarray,
    ws: np.ndarray,
) -> None:
    """Raise for the first malformed edge in input order, with the check
    order and message a sequential loop over the edges would give."""
    if not len(ws):
        return
    # An edge is a duplicate when an earlier edge joins the same two
    # vertices.  Keys of in-range edges are distinct pairs; an out-of-range
    # edge may collide, but then it is reported first or is itself bad.
    key = np.minimum(us, vs) * n + np.maximum(us, vs)
    duplicate = np.ones(len(ws), dtype=bool)
    duplicate[np.unique(key, return_index=True)[1]] = False
    checks = (
        (raw_us != us) | (raw_vs != vs),
        (us < 0) | (us >= n),
        (vs < 0) | (vs >= n),
        us == vs,
        ~(ws > 0) | ~np.isfinite(ws),
        duplicate,
    )
    bad = np.logical_or.reduce(checks)
    if not bad.any():
        return
    i = int(np.argmax(bad))
    u, v, w = raw_us[i].item(), raw_vs[i].item(), ws[i].item()
    if checks[0][i]:
        raise GraphError(f"edge ({u}, {v}) has a non-integral vertex id")
    u, v = int(u), int(v)
    if checks[1][i]:
        raise VertexNotFoundError(u, n)
    if checks[2][i]:
        raise VertexNotFoundError(v, n)
    if checks[3][i]:
        raise GraphError(f"self-loop on vertex {u} is not allowed")
    if checks[4][i]:
        raise GraphError(f"edge ({u}, {v}) has non-positive weight {w}")
    raise GraphError(f"duplicate edge ({u}, {v})")
