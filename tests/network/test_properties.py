"""Property-based tests for the network substrate (hypothesis + networkx oracle)."""

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.network.builder import GraphBuilder
from repro.network.dijkstra import shortest_path, shortest_path_length
from repro.network.expansion import IncrementalExpansion


@st.composite
def connected_graphs(draw):
    """A random connected weighted graph as (builder output, nx mirror)."""
    n = draw(st.integers(min_value=2, max_value=12))
    builder = GraphBuilder()
    mirror = nx.Graph()
    for i in range(n):
        builder.add_vertex(float(i), 0.0)
        mirror.add_node(i)
    # A random spanning chain guarantees connectivity...
    order = draw(st.permutations(range(n)))
    for a, b in zip(order, order[1:]):
        w = draw(st.floats(min_value=0.1, max_value=10.0, allow_nan=False))
        builder.add_edge(a, b, w)
        _mirror_edge(mirror, a, b, w)
    # ...plus up to n extra random edges.
    extras = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
            ),
            max_size=n,
        )
    )
    for a, b, w in extras:
        if a != b:
            builder.add_edge(a, b, w)
            _mirror_edge(mirror, a, b, w)
    return builder.build(require_connected=True), mirror


def _mirror_edge(mirror: nx.Graph, a: int, b: int, w: float) -> None:
    existing = mirror.get_edge_data(a, b)
    if existing is None or w < existing["weight"]:
        mirror.add_edge(a, b, weight=w)


@given(data=st.data(), graphs=connected_graphs())
@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow], deadline=None)
def test_dijkstra_matches_networkx(data, graphs):
    graph, mirror = graphs
    u = data.draw(st.integers(0, graph.num_vertices - 1))
    v = data.draw(st.integers(0, graph.num_vertices - 1))
    expected = nx.shortest_path_length(mirror, u, v, weight="weight")
    assert shortest_path_length(graph, u, v) == pytest.approx(expected)


@given(data=st.data(), graphs=connected_graphs())
@settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow], deadline=None)
def test_returned_path_is_consistent(data, graphs):
    graph, __ = graphs
    u = data.draw(st.integers(0, graph.num_vertices - 1))
    v = data.draw(st.integers(0, graph.num_vertices - 1))
    path, length = shortest_path(graph, u, v)
    assert path[0] == u
    assert path[-1] == v
    edge_sum = sum(graph.edge_weight(a, b) for a, b in zip(path, path[1:]))
    assert edge_sum == pytest.approx(length)


@given(data=st.data(), graphs=connected_graphs())
@settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow], deadline=None)
def test_expansion_settles_every_vertex_with_exact_distance(data, graphs):
    graph, mirror = graphs
    source = data.draw(st.integers(0, graph.num_vertices - 1))
    expansion = IncrementalExpansion(graph, source)
    last = 0.0
    while (item := expansion.expand()) is not None:
        __, dist = item
        assert dist >= last - 1e-12  # monotone settle order
        last = dist
    expected = nx.single_source_dijkstra_path_length(mirror, source, weight="weight")
    settled = expansion.settled_vertices()
    assert set(settled) == set(expected)
    for vertex, dist in expected.items():
        assert settled[vertex] == pytest.approx(dist)


@given(data=st.data(), graphs=connected_graphs())
@settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow], deadline=None)
def test_triangle_inequality(data, graphs):
    graph, __ = graphs
    a = data.draw(st.integers(0, graph.num_vertices - 1))
    b = data.draw(st.integers(0, graph.num_vertices - 1))
    c = data.draw(st.integers(0, graph.num_vertices - 1))
    ab = shortest_path_length(graph, a, b)
    bc = shortest_path_length(graph, b, c)
    ac = shortest_path_length(graph, a, c)
    assert ac <= ab + bc + 1e-9
