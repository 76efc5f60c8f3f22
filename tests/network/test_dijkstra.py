"""Unit tests for shortest-path primitives."""

import pytest

from repro.errors import DisconnectedError
from repro.network.dijkstra import (
    distance_matrix,
    distances_to_targets,
    shortest_path,
    shortest_path_length,
    single_source_distances,
)
from repro.network.graph import SpatialNetwork


@pytest.fixture()
def diamond():
    """Two routes 0->3: 0-1-3 (cost 3) and 0-2-3 (cost 2.5)."""
    return SpatialNetwork(
        xs=[0, 1, 1, 2],
        ys=[0, 1, -1, 0],
        edges=[(0, 1, 1.0), (1, 3, 2.0), (0, 2, 1.5), (2, 3, 1.0)],
    )


class TestShortestPathLength:
    def test_prefers_cheaper_route(self, diamond):
        assert shortest_path_length(diamond, 0, 3) == pytest.approx(2.5)

    def test_source_equals_target(self, diamond):
        assert shortest_path_length(diamond, 2, 2) == 0.0

    def test_symmetry(self, diamond):
        assert shortest_path_length(diamond, 0, 3) == pytest.approx(
            shortest_path_length(diamond, 3, 0)
        )

    def test_disconnected_raises(self):
        g = SpatialNetwork(xs=[0, 1, 5], ys=[0, 0, 0], edges=[(0, 1, 1.0)])
        with pytest.raises(DisconnectedError):
            shortest_path_length(g, 0, 2)

    def test_line_distances(self, line_graph):
        assert shortest_path_length(line_graph, 0, 4) == pytest.approx(4.0)
        assert shortest_path_length(line_graph, 1, 3) == pytest.approx(2.0)


class TestShortestPath:
    def test_path_vertices(self, diamond):
        path, length = shortest_path(diamond, 0, 3)
        assert path == [0, 2, 3]
        assert length == pytest.approx(2.5)

    def test_trivial_path(self, diamond):
        assert shortest_path(diamond, 1, 1) == ([1], 0.0)

    def test_path_length_matches_edge_sum(self, grid10):
        path, length = shortest_path(grid10, 0, grid10.num_vertices - 1)
        total = sum(
            grid10.edge_weight(a, b) for a, b in zip(path, path[1:])
        )
        assert total == pytest.approx(length)
        assert path[0] == 0
        assert path[-1] == grid10.num_vertices - 1


class TestSingleSource:
    def test_covers_component(self, diamond):
        dist = single_source_distances(diamond, 0)
        assert set(dist) == {0, 1, 2, 3}
        assert dist[3] == pytest.approx(2.5)

    def test_cutoff_truncates(self, line_graph):
        dist = single_source_distances(line_graph, 0, cutoff=2.0)
        assert set(dist) == {0, 1, 2}

    def test_source_distance_is_zero(self, grid10):
        assert single_source_distances(grid10, 5)[5] == 0.0


class TestDistancesToTargets:
    def test_finds_all_targets(self, diamond):
        result = distances_to_targets(diamond, 0, [1, 3])
        assert result[1] == pytest.approx(1.0)
        assert result[3] == pytest.approx(2.5)

    def test_unreachable_target_absent(self):
        g = SpatialNetwork(xs=[0, 1, 5], ys=[0, 0, 0], edges=[(0, 1, 1.0)])
        result = distances_to_targets(g, 0, [1, 2])
        assert 1 in result
        assert 2 not in result

    def test_empty_target_set(self, diamond):
        assert distances_to_targets(diamond, 0, []) == {}

    def test_matches_single_source(self, grid10):
        targets = [3, 17, 55, 99]
        full = single_source_distances(grid10, 0)
        partial = distances_to_targets(grid10, 0, targets)
        for t in targets:
            assert partial[t] == pytest.approx(full[t])


class TestDistanceMatrix:
    def test_diagonal_zero_and_symmetry(self, diamond):
        matrix = distance_matrix(diamond)
        for i in range(4):
            assert matrix[i, i] == 0.0
        for i in range(4):
            for j in range(4):
                assert matrix[i, j] == pytest.approx(matrix[j, i])

    def test_row_subset(self, diamond):
        matrix = distance_matrix(diamond, sources=[0])
        assert matrix.shape == (1, 4)
        assert matrix[0, 3] == pytest.approx(2.5)
