"""Unit tests for the trajectory data model."""

import pickle

import numpy as np
import pytest

from repro.errors import TrajectoryError
from repro.trajectory.model import (
    DAY_SECONDS,
    Trajectory,
    TrajectoryPoint,
    TrajectorySet,
)


def _traj(tid=0, points=((1, 100.0), (2, 200.0), (1, 300.0)), keywords=()):
    return Trajectory(tid, (TrajectoryPoint(v, t) for v, t in points), keywords)


class TestTrajectoryPoint:
    def test_valid_point(self):
        p = TrajectoryPoint(3, 0.0)
        assert p.vertex == 3
        assert p.timestamp == 0.0

    def test_negative_vertex_rejected(self):
        with pytest.raises(TrajectoryError):
            TrajectoryPoint(-1, 10.0)

    def test_timestamp_outside_day_rejected(self):
        with pytest.raises(TrajectoryError):
            TrajectoryPoint(0, DAY_SECONDS)
        with pytest.raises(TrajectoryError):
            TrajectoryPoint(0, -0.1)

    def test_points_are_immutable(self):
        p = TrajectoryPoint(1, 2.0)
        with pytest.raises(AttributeError):
            p.vertex = 5


class TestTrajectory:
    def test_basic_accessors(self):
        t = _traj()
        assert t.id == 0
        assert len(t) == 3
        assert t.vertices() == [1, 2, 1]
        assert t.vertex_set == frozenset({1, 2})
        assert t.timestamps() == [100.0, 200.0, 300.0]
        assert t.time_range == (100.0, 300.0)
        assert t.duration == pytest.approx(200.0)

    def test_keywords_lowercased(self):
        t = _traj(keywords=["SeaFood", "park"])
        assert t.keywords == frozenset({"seafood", "park"})

    def test_empty_rejected(self):
        with pytest.raises(TrajectoryError, match="no sample points"):
            Trajectory(0, [])

    def test_negative_id_rejected(self):
        with pytest.raises(TrajectoryError):
            _traj(tid=-3)

    def test_decreasing_timestamps_rejected(self):
        with pytest.raises(TrajectoryError, match="decrease"):
            _traj(points=((0, 100.0), (1, 50.0)))

    def test_equal_timestamps_allowed(self):
        t = _traj(points=((0, 100.0), (1, 100.0)))
        assert len(t) == 2

    def test_with_keywords_copies(self):
        t = _traj()
        t2 = t.with_keywords(["zoo"])
        assert t2.keywords == frozenset({"zoo"})
        assert t.keywords == frozenset()
        assert t2.points == t.points

    def test_with_id_copies(self):
        t2 = _traj().with_id(99)
        assert t2.id == 99

    def test_equality_and_hash(self):
        assert _traj() == _traj()
        assert hash(_traj()) == hash(_traj())
        assert _traj() != _traj(keywords=["x"])

    def test_iteration_yields_points(self):
        assert [p.vertex for p in _traj()] == [1, 2, 1]


class TestTrajectorySet:
    def test_add_and_get(self):
        s = TrajectorySet([_traj(0), _traj(1)])
        assert len(s) == 2
        assert s.get(1).id == 1
        assert 0 in s and 5 not in s

    def test_duplicate_id_rejected(self):
        s = TrajectorySet([_traj(0)])
        with pytest.raises(TrajectoryError, match="duplicate"):
            s.add(_traj(0))

    def test_remove(self):
        s = TrajectorySet([_traj(0), _traj(1)])
        removed = s.remove(0)
        assert removed.id == 0
        assert len(s) == 1
        with pytest.raises(TrajectoryError):
            s.remove(0)

    def test_get_unknown_raises(self):
        with pytest.raises(TrajectoryError, match="unknown"):
            TrajectorySet().get(7)

    def test_ids_preserve_insertion_order(self):
        s = TrajectorySet([_traj(5), _traj(2), _traj(9)])
        assert s.ids() == [5, 2, 9]

    def test_iteration(self):
        s = TrajectorySet([_traj(0), _traj(1)])
        assert sorted(t.id for t in s) == [0, 1]


def _arrays(tid=0, vertices=(1, 2, 1), stamps=(100.0, 200.0, 300.0), keywords=()):
    return Trajectory.from_arrays(tid, vertices, stamps, keywords)


class TestArrayStorage:
    """Samples live in two read-only arrays; the point form, the vertex set
    and the distinct-vertex array are derived from them."""

    def test_point_and_array_constructors_agree(self):
        by_points = _traj(keywords=["Park"])
        by_arrays = _arrays(keywords=["park"])
        assert by_points == by_arrays
        assert hash(by_points) == hash(by_arrays)
        assert by_arrays.points == by_points.points
        assert list(by_arrays) == list(by_points)

    def test_arrays_are_read_only_copies(self):
        vertices = np.array([4, 5, 4])
        stamps = np.array([1.0, 2.0, 3.0])
        t = Trajectory.from_arrays(0, vertices, stamps)
        vertices[0] = 9
        stamps[0] = 2.5
        assert t.vertices() == [4, 5, 4]
        assert t.timestamps() == [1.0, 2.0, 3.0]
        for array in (t.vertex_array, t.timestamp_array, t.distinct_vertices):
            with pytest.raises(ValueError):
                array[0] = 0
        assert t.vertex_array.dtype == np.intp
        assert t.timestamp_array.dtype == np.float64

    def test_derived_views(self):
        t = _arrays(vertices=(7, 3, 7, 5), stamps=(0.0, 1.0, 1.0, 2.0))
        assert t._vertex_set is None and t._distinct is None  # built on first access
        assert t.vertex_set == frozenset({3, 5, 7})
        assert t.distinct_vertices.tolist() == [3, 5, 7]
        assert t.samples() == [(7, 0.0), (3, 1.0), (7, 1.0), (5, 2.0)]
        assert t.points[1] == TrajectoryPoint(3, 1.0)
        assert t.time_range == (0.0, 2.0)
        assert type(t.time_range[0]) is float and type(t.vertices()[0]) is int
        assert len(t) == 4

    @pytest.mark.parametrize(
        "tid, vertices, stamps, message",
        [
            (-3, (1,), (0.0,), "negative trajectory id -3"),
            (0, (), (), "trajectory 0 has no sample points"),
            (0, (1, -1), (0.0, 1.0), "negative vertex id -1"),
            (0, (1, 2), (0.0, DAY_SECONDS), r"timestamp 86400\.0 outside the 24-hour axis"),
            (0, (1, 2), (-0.5, 1.0), r"timestamp -0\.5 outside the 24-hour axis"),
            (0, (1, 2), (0.0, float("nan")), r"timestamp nan outside the 24-hour axis"),
            (4, (1, 2, 3), (10.0, 30.0, 20.0), r"trajectory 4 timestamps decrease: 30\.0 -> 20\.0"),
            # The first bad point wins, and a bad point beats a decrease.
            (0, (1, 2, -5), (50.0, 90000.0, 1.0), r"timestamp 90000\.0 outside"),
            (0, (1, 2, -5), (50.0, 10.0, 1.0), "negative vertex id -5"),
            (0, (1, 2), (0.0,), "needs one timestamp per vertex"),
        ],
    )
    def test_validation_messages(self, tid, vertices, stamps, message):
        with pytest.raises(TrajectoryError, match=message):
            Trajectory.from_arrays(tid, vertices, stamps)

    def test_point_constructor_keeps_its_messages(self):
        with pytest.raises(TrajectoryError, match="negative vertex id -1"):
            _traj(points=((1, 0.0), (-1, 1.0)))
        with pytest.raises(TrajectoryError, match="decrease: 100.0 -> 50.0"):
            _traj(points=((0, 100.0), (1, 50.0)))

    def test_pickle_round_trip_keeps_arrays_read_only(self):
        t = _arrays(keywords=["zoo"])
        t.vertex_set  # a built cache is not shipped
        copy = pickle.loads(pickle.dumps(t))
        assert copy == t and hash(copy) == hash(t)
        assert copy._vertex_set is None
        assert not copy.vertex_array.flags.writeable
        assert not copy.timestamp_array.flags.writeable

    def test_variants_share_the_arrays(self):
        t = _arrays()
        renamed = t.with_id(5).with_keywords(["Zoo"])
        assert renamed.vertex_array is t.vertex_array
        assert renamed.id == 5 and renamed.keywords == frozenset({"zoo"})
        with pytest.raises(TrajectoryError, match="negative trajectory id"):
            t.with_id(-1)
