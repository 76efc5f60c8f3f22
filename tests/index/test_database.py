"""Unit tests for the trajectory database facade."""

import pytest

from repro.errors import (
    DatasetError,
    TrajectoryError,
    TrajectoryIndexError,
    VertexNotFoundError,
)
from repro.index.database import TrajectoryDatabase
from repro.trajectory.model import Trajectory, TrajectoryPoint, TrajectorySet


def _traj(tid, vertices, keywords=()):
    return Trajectory(
        tid,
        [TrajectoryPoint(v, float(i * 60)) for i, v in enumerate(vertices)],
        keywords,
    )


@pytest.fixture()
def db(grid10):
    trips = TrajectorySet(
        [_traj(0, [1, 2], ["park"]), _traj(1, [3, 4], ["seafood", "park"])]
    )
    return TrajectoryDatabase(grid10, trips, sigma=100.0)


class TestConstruction:
    def test_indexes_built(self, db):
        assert db.vertex_index.trajectories_at(1) == [0]
        assert db.keyword_index.postings("park") == [0, 1]
        assert len(db) == 2

    def test_sigma_explicit(self, db):
        assert db.sigma == 100.0

    def test_sigma_defaulted_positive(self, grid10):
        trips = TrajectorySet([_traj(0, [1, 2])])
        assert TrajectoryDatabase(grid10, trips).sigma > 0

    def test_invalid_sigma_rejected(self, grid10):
        trips = TrajectorySet([_traj(0, [1])])
        with pytest.raises(DatasetError):
            TrajectoryDatabase(grid10, trips, sigma=0.0)

    def test_empty_set_rejected(self, grid10):
        with pytest.raises(DatasetError):
            TrajectoryDatabase(grid10, TrajectorySet())

    def test_get(self, db):
        assert db.get(0).id == 0
        with pytest.raises(TrajectoryError):
            db.get(9)

    def test_out_of_range_vertex_rejected(self, grid10):
        trips = TrajectorySet([_traj(0, [1]), _traj(1, [2, grid10.num_vertices + 5])])
        with pytest.raises(VertexNotFoundError):
            TrajectoryDatabase(grid10, trips)

    def test_vertex_index_is_built_on_first_access(self, db):
        assert db._vertex_index is None
        db.add(_traj(2, [5]))
        db.remove(0)
        index = db.vertex_index  # built from the live set, writes included
        assert db.vertex_index is index
        assert index.trajectories_at(5) == [2]
        assert index.trajectories_at(1) == []


class TestMutation:
    def test_add_updates_all_indexes(self, db):
        db.add(_traj(2, [5], ["museum"]))
        assert len(db) == 3
        assert db.vertex_index.trajectories_at(5) == [2]
        assert db.keyword_index.postings("museum") == [2]

    def test_add_duplicate_id_rolls_back(self, db):
        with pytest.raises(TrajectoryError):
            db.add(_traj(0, [7]))
        assert len(db) == 2
        assert db.vertex_index.trajectories_at(7) == []

    def test_add_invalid_vertex_rolls_back(self, db, grid10):
        bad = _traj(3, [grid10.num_vertices + 1])
        with pytest.raises(Exception):
            db.add(bad)
        assert len(db) == 2
        assert 3 not in db.trajectories

    def test_invalid_vertex_leaves_a_built_vertex_index_unchanged(self, db, grid10):
        index = db.vertex_index
        with pytest.raises(VertexNotFoundError):
            db.add(_traj(12, [1, grid10.num_vertices + 5], ["museum"]))
        assert index.num_trajectories == 2
        assert 12 not in index
        assert index.trajectories_at(1) == [0]
        assert db.keyword_index.postings("museum") == []
        assert 12 not in db.trajectories

    def test_remove_updates_all_indexes(self, db):
        removed = db.remove(0)
        assert removed.id == 0
        assert len(db) == 1
        assert db.vertex_index.trajectories_at(1) == []
        assert db.keyword_index.postings("park") == [1]

    def test_remove_unknown_rejected(self, db):
        with pytest.raises((TrajectoryError, TrajectoryIndexError)):
            db.remove(50)
