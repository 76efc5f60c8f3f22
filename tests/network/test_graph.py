"""Unit tests for the spatial network model."""

import numpy as np
import pytest

from repro.errors import GraphError, VertexNotFoundError
from repro.network.generators import grid_network
from repro.network.graph import SpatialNetwork


def _triangle():
    return SpatialNetwork(
        xs=[0.0, 1.0, 0.0],
        ys=[0.0, 0.0, 1.0],
        edges=[(0, 1, 1.0), (1, 2, 2.0), (0, 2, 1.5)],
    )


class TestConstruction:
    def test_sizes(self):
        g = _triangle()
        assert g.num_vertices == 3
        assert g.num_edges == 3
        assert len(g) == 3
        # Coordinates, three edge columns and the CSR triple, all 8-byte.
        assert g.nbytes == 8 * (2 * 3 + 3 * 3 + (3 + 1) + 2 * 2 * 3)

    def test_total_weight(self):
        assert _triangle().total_weight == pytest.approx(4.5)

    def test_mismatched_coordinates_rejected(self):
        with pytest.raises(GraphError, match="differ in length"):
            SpatialNetwork(xs=[0.0, 1.0], ys=[0.0], edges=[])

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match="self-loop"):
            SpatialNetwork(xs=[0.0], ys=[0.0], edges=[(0, 0, 1.0)])

    def test_negative_weight_rejected(self):
        with pytest.raises(GraphError, match="non-positive weight"):
            SpatialNetwork(xs=[0.0, 1.0], ys=[0.0, 0.0], edges=[(0, 1, -1.0)])

    def test_zero_weight_rejected(self):
        with pytest.raises(GraphError):
            SpatialNetwork(xs=[0.0, 1.0], ys=[0.0, 0.0], edges=[(0, 1, 0.0)])

    def test_nan_weight_rejected(self):
        with pytest.raises(GraphError):
            SpatialNetwork(xs=[0.0, 1.0], ys=[0.0, 0.0], edges=[(0, 1, float("nan"))])

    def test_out_of_range_endpoint_rejected(self):
        with pytest.raises(VertexNotFoundError):
            SpatialNetwork(xs=[0.0, 1.0], ys=[0.0, 0.0], edges=[(0, 5, 1.0)])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphError, match="duplicate edge"):
            SpatialNetwork(
                xs=[0.0, 1.0], ys=[0.0, 0.0], edges=[(0, 1, 1.0), (1, 0, 2.0)]
            )

    def test_empty_graph(self):
        g = SpatialNetwork(xs=[], ys=[], edges=[])
        assert g.num_vertices == 0
        assert g.is_connected()  # vacuously


class TestStructure:
    def test_neighbors_are_symmetric(self):
        g = _triangle()
        assert (1, 1.0) in g.neighbors(0)
        assert (0, 1.0) in g.neighbors(1)

    def test_degree(self):
        assert _triangle().degree(0) == 2

    def test_has_edge_both_orders(self):
        g = _triangle()
        assert g.has_edge(0, 1)
        assert g.has_edge(1, 0)
        assert not g.has_edge(0, 0)

    def test_edge_weight(self):
        g = _triangle()
        assert g.edge_weight(2, 1) == pytest.approx(2.0)

    def test_edge_weight_missing_raises(self):
        g = SpatialNetwork(xs=[0, 1, 2], ys=[0, 0, 0], edges=[(0, 1, 1.0)])
        with pytest.raises(GraphError, match="does not exist"):
            g.edge_weight(0, 2)

    def test_vertex_bounds_checked(self):
        g = _triangle()
        with pytest.raises(VertexNotFoundError):
            g.neighbors(3)
        with pytest.raises(VertexNotFoundError):
            g.degree(-1)

    def test_edges_listed_once(self):
        assert len(list(_triangle().edges())) == 3


class TestGeometry:
    def test_position_roundtrip(self):
        g = _triangle()
        assert g.position(1) == (1.0, 0.0)

    def test_euclidean(self):
        g = _triangle()
        assert g.euclidean(0, 1) == pytest.approx(1.0)
        assert g.euclidean(1, 2) == pytest.approx(np.sqrt(2.0))

    def test_bounding_box(self):
        assert _triangle().bounding_box() == (0.0, 0.0, 1.0, 1.0)

    def test_bounding_box_empty_raises(self):
        with pytest.raises(GraphError):
            SpatialNetwork(xs=[], ys=[], edges=[]).bounding_box()

    def test_nearest_vertex(self):
        g = _triangle()
        assert g.nearest_vertex(0.9, 0.1) == 1
        assert g.nearest_vertex(-5.0, -5.0) == 0


class TestConnectivity:
    def test_connected_triangle(self):
        assert _triangle().is_connected()

    def test_disconnected_components(self):
        g = SpatialNetwork(
            xs=[0, 1, 5, 6], ys=[0, 0, 0, 0], edges=[(0, 1, 1.0), (2, 3, 1.0)]
        )
        assert not g.is_connected()
        components = g.connected_components()
        assert sorted(map(len, components)) == [2, 2]
        assert [0, 1] in components

    def test_isolated_vertex_is_own_component(self):
        g = SpatialNetwork(xs=[0, 1, 9], ys=[0, 0, 0], edges=[(0, 1, 1.0)])
        assert [2] in g.connected_components()

    def test_subgraph_remaps_ids(self):
        g = SpatialNetwork(
            xs=[0, 1, 5, 6], ys=[0, 0, 0, 0], edges=[(0, 1, 1.0), (2, 3, 1.0)]
        )
        sub, remap = g.subgraph([2, 3])
        assert sub.num_vertices == 2
        assert sub.num_edges == 1
        assert remap == {2: 0, 3: 1}
        assert sub.position(0) == (5.0, 0.0)

    def test_subgraph_drops_crossing_edges(self):
        g = _triangle()
        sub, __ = g.subgraph([0, 1])
        assert sub.num_edges == 1


# ------------------------------------------------------- array-native model
def _sequential_validate(n, edges):
    """The edge-by-edge validation loop the vectorised checks replace,
    kept as their executable specification."""
    seen = set()
    for u, v, w in edges:
        if not (0 <= u < n):
            raise VertexNotFoundError(u, n)
        if not (0 <= v < n):
            raise VertexNotFoundError(v, n)
        if u == v:
            raise GraphError(f"self-loop on vertex {u} is not allowed")
        if w <= 0 or not np.isfinite(w):
            raise GraphError(f"edge ({u}, {v}) has non-positive weight {w}")
        if (min(u, v), max(u, v)) in seen:
            raise GraphError(f"duplicate edge ({u}, {v})")
        seen.add((min(u, v), max(u, v)))


_BAD_EDGES = {
    "u-negative": (-1, 2, 1.0),
    "u-past-end": (4, 2, 1.0),
    "v-negative": (2, -3, 1.0),
    "v-past-end": (2, 9, 1.0),
    "self-loop": (3, 3, 1.0),
    "weight-zero": (2, 3, 0.0),
    "weight-negative": (2, 3, -2.5),
    "weight-nan": (2, 3, float("nan")),
    "weight-inf": (2, 3, float("inf")),
    "duplicate": (0, 1, 7.0),
    "duplicate-reversed": (1, 0, 7.0),
}
_GOOD_EDGES = [(0, 1, 1.0), (1, 2, 2.0)]


def _raised(build):
    with pytest.raises(GraphError) as info:
        build()
    return type(info.value), str(info.value)


def _built_both_ways(edges):
    """The exception of the triples constructor and of :meth:`from_arrays`."""
    us, vs, ws = (np.array(column) for column in zip(*edges))
    coordinates = [0.0] * 4
    return (
        _raised(lambda: SpatialNetwork(coordinates, coordinates, edges)),
        _raised(lambda: SpatialNetwork.from_arrays(coordinates, coordinates, us, vs, ws)),
    )


@pytest.mark.parametrize("bad", sorted(_BAD_EDGES))
def test_validation_matches_the_sequential_loop(bad):
    edges = _GOOD_EDGES + [_BAD_EDGES[bad], (2, 3, 1.0)]
    expected = _raised(lambda: _sequential_validate(4, edges))
    assert _built_both_ways(edges) == (expected, expected)


@pytest.mark.parametrize("first", sorted(_BAD_EDGES))
@pytest.mark.parametrize("second", ["u-past-end", "self-loop", "weight-nan", "duplicate"])
def test_earliest_bad_edge_is_reported(first, second):
    edges = _GOOD_EDGES + [_BAD_EDGES[first], _BAD_EDGES[second]]
    expected = _raised(lambda: _sequential_validate(4, edges))
    assert _built_both_ways(edges) == (expected, expected)


def test_non_integral_vertex_id_rejected():
    with pytest.raises(GraphError, match="non-integral vertex id"):
        SpatialNetwork([0.0] * 3, [0.0] * 3, [(0, 1, 1.0), (1, 1.5, 1.0)])


def test_csr_rows_match_an_adjacency_built_from_edges():
    g = grid_network(6, 5, seed=8)
    rows = [[] for _ in range(g.num_vertices)]
    for u, v, w in g.edges():
        rows[u].append((v, w))
        rows[v].append((u, w))
    csr = g.csr
    for u in g.vertices():
        arcs = slice(csr.indptr[u], csr.indptr[u + 1])
        row = list(zip(csr.indices[arcs].tolist(), csr.weights[arcs].tolist()))
        assert sorted(row) == sorted(rows[u])
        assert sorted(g.neighbors(u)) == sorted(rows[u])
        assert g.degree(u) == len(rows[u])
        for v, w in rows[u]:
            assert g.has_edge(u, v) and g.edge_weight(v, u) == w


def test_total_weight_adds_left_to_right():
    # Each 1.0 vanishes when added to 1e16 alone; a pairwise or unrolled
    # sum adds some of them together first and reads higher.
    weights = [1e16] + [1.0] * 15
    total = 0.0
    for w in weights:
        total += w
    edges = [(i, i + 1, w) for i, w in enumerate(weights)]
    graph = SpatialNetwork([0.0] * 17, [0.0] * 17, edges)
    assert graph.total_weight == total != float(np.sum(weights))


def test_views_read_the_arrays_on_two_components():
    """Every view reads the arrays right on a graph with two components and
    an isolated vertex."""
    g = SpatialNetwork(
        [0, 1, 2, 5, 6, 9], [0, 0, 0, 0, 0, 0],
        [(4, 3, 1.0), (0, 1, 2.0), (2, 1, 0.5)],
    )
    assert g.connected_components() == [[0, 1, 2], [3, 4], [5]]
    assert not g.is_connected()
    assert list(g.edges()) == [(4, 3, 1.0), (0, 1, 2.0), (2, 1, 0.5)]
    assert sorted(g.neighbors(1)) == [(0, 2.0), (2, 0.5)]
    assert [g.degree(v) for v in g.vertices()] == [1, 2, 1, 1, 1, 0]
    assert [g.has_edge(1, 2), g.has_edge(2, 1), g.has_edge(0, 2), g.has_edge(0, 9)] == [
        True, True, False, False
    ]
    assert g.edge_weight(1, 2) == 0.5 and g.total_weight == 3.5
    sub, remap = g.subgraph([1, 2, 4, 3])
    assert list(sub.edges()) == [(3, 2, 1.0), (1, 0, 0.5)]
    assert sorted(remap.items()) == [(1, 0), (2, 1), (3, 2), (4, 3)]
    assert sub.connected_components() == [[0, 1], [2, 3]]
