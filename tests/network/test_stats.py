"""Unit tests for the characteristic distance scale."""

import random

import pytest

from repro.errors import GraphError
from repro.network.dijkstra import distance_matrix, single_source_distances
from repro.network.generators import grid_network, random_geometric_network
from repro.network.graph import SpatialNetwork
from repro.network.stats import characteristic_distance


class TestCharacteristicDistance:
    def test_positive_and_below_diameter(self, grid10):
        sigma = characteristic_distance(grid10)
        assert 0 < sigma <= distance_matrix(grid10).max() + 1e-9

    def test_deterministic_under_seed(self, grid10):
        assert characteristic_distance(grid10, seed=5) == pytest.approx(
            characteristic_distance(grid10, seed=5)
        )

    def test_single_vertex_rejected(self):
        with pytest.raises(GraphError):
            characteristic_distance(SpatialNetwork([0.0], [0.0], []))

    def test_edgeless_graph_rejected(self):
        with pytest.raises(GraphError, match="no reachable vertex pairs"):
            characteristic_distance(SpatialNetwork([0.0, 5.0, 9.0], [0.0, 1.0, 2.0], []))


def _per_source_reference(graph, samples=16, seed=0):
    """The per-source form: one dict of distances per sampled source, each
    row's upper median by sorting, then the upper median of those."""
    rng = random.Random(seed)
    values = []
    for __ in range(max(1, samples)):
        distances = single_source_distances(graph, rng.randrange(graph.num_vertices))
        reachable = sorted(d for d in distances.values() if d > 0.0)
        if reachable:
            values.append(reachable[len(reachable) // 2])
    if not values:
        raise GraphError("graph has no reachable vertex pairs")
    values.sort()
    return values[len(values) // 2]


def _outcome(function, *args):
    try:
        return function(*args)
    except GraphError as exc:
        return str(exc)


def _disconnected(seed):
    """Two randomly weighted components plus isolated vertices."""
    rng = random.Random(seed)
    xs = [rng.uniform(0, 1000) for __ in range(60)]
    ys = [rng.uniform(0, 1000) for __ in range(60)]
    edges = {}
    for low, high in ((0, 35), (35, 55)):  # vertices 55..59 stay isolated
        for v in range(low + 1, high):
            edges[(rng.randrange(low, v), v)] = rng.uniform(1.0, 90.0)
        for __ in range(high - low):
            u, v = sorted(rng.sample(range(low, high), 2))
            edges[(u, v)] = rng.uniform(1.0, 90.0)
    return SpatialNetwork(xs, ys, [(u, v, w) for (u, v), w in edges.items()])


class TestCharacteristicDistanceIsThePerSourceMedian:
    """The batched form returns the bit-identical value of the per-source
    form (σ is stored with every benchmark oracle)."""

    @pytest.mark.parametrize(
        "graph",
        [
            grid_network(9, 7, seed=3),
            random_geometric_network(240, seed=4),
            _disconnected(5),
            _disconnected(6),
        ],
        ids=["grid", "geometric", "disconnected-5", "disconnected-6"],
    )
    @pytest.mark.parametrize("samples, seed", [(16, 0), (1, 2), (5, 7), (17, 11)])
    def test_equals_reference(self, graph, samples, seed):
        # Both forms agree on the value, or on the error when every sampled
        # source is isolated.
        assert _outcome(characteristic_distance, graph, samples, seed) == _outcome(
            _per_source_reference, graph, samples, seed
        )
