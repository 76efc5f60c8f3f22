"""Unit tests for the vertex-to-trajectory index."""

import pytest

from repro.errors import TrajectoryIndexError, VertexNotFoundError
from repro.index.vertex_index import VertexTrajectoryIndex
from repro.trajectory.model import Trajectory, TrajectoryPoint, TrajectorySet


def _traj(tid, vertices):
    return Trajectory(
        tid, [TrajectoryPoint(v, float(i)) for i, v in enumerate(vertices)]
    )


@pytest.fixture()
def index(grid10):
    trips = TrajectorySet([_traj(0, [1, 2, 3]), _traj(1, [2, 4]), _traj(2, [9])])
    return VertexTrajectoryIndex.build(grid10, trips)


class TestQueries:
    def test_postings_sorted(self, index):
        assert index.trajectories_at(2) == [0, 1]

    def test_empty_vertex(self, index):
        assert index.trajectories_at(50) == []

    def test_vertices_of(self, index):
        assert index.vertices_of(1) == frozenset({2, 4})
        with pytest.raises(TrajectoryIndexError):
            index.vertices_of(99)

    def test_out_of_range_vertex_rejected(self, index):
        with pytest.raises(VertexNotFoundError):
            index.trajectories_at(1000)

    def test_covered_vertices(self, index):
        assert index.covered_vertices() == [1, 2, 3, 4, 9]

    def test_contains(self, index):
        assert 0 in index
        assert 42 not in index

    def test_count(self, index):
        assert index.num_trajectories == 3


class TestMutation:
    def test_add_appears_in_postings(self, index):
        index.add(_traj(10, [2, 7]))
        assert index.trajectories_at(2) == [0, 1, 10]
        assert index.trajectories_at(7) == [10]

    def test_duplicate_add_rejected(self, index):
        with pytest.raises(TrajectoryIndexError, match="already"):
            index.add(_traj(0, [5]))

    def test_remove_cleans_postings(self, index):
        index.remove(0)
        assert index.trajectories_at(2) == [1]
        assert index.trajectories_at(1) == []
        assert 0 not in index

    def test_remove_unknown_rejected(self, index):
        with pytest.raises(TrajectoryIndexError):
            index.remove(42)


class TestConsistencyWithTrajectories:
    def test_every_vertex_posting_matches(self, grid20, annotated_trips):
        index = VertexTrajectoryIndex.build(grid20, annotated_trips)
        for trajectory in annotated_trips:
            for vertex in trajectory.vertex_set:
                assert trajectory.id in index.trajectories_at(vertex)

    def test_no_spurious_postings(self, grid20, annotated_trips):
        index = VertexTrajectoryIndex.build(grid20, annotated_trips)
        for vertex in index.covered_vertices()[:50]:
            for tid in index.trajectories_at(vertex):
                assert vertex in annotated_trips.get(tid).vertex_set
