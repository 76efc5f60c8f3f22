"""Typed mutation events: dispatch contract and error aggregation.

The ISSUE 8 regression suite for the event protocol itself: every
``add``/``remove`` dispatches one scoped :class:`MutationEvent` to every
registered listener, a raising listener never aborts mid-dispatch (the
pre-refactor bug left later caches stale relative to the already-mutated
indexes), and the legacy id-only hook keeps working as a shim.
"""

import numpy as np
import pytest

from repro.errors import MutationDispatchError
from repro.index.database import TrajectoryDatabase
from repro.index.events import MutationEvent
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


class TestEventModel:
    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError):
            MutationEvent(
                kind="update",
                trajectory_id=0,
                keywords=frozenset(),
                vertices=np.array([], dtype=np.intp),
            )

    def test_repr_elides_vertices(self):
        event = MutationEvent(
            kind="add",
            trajectory_id=7,
            keywords=frozenset({"park"}),
            vertices=np.arange(1000, dtype=np.intp),
        )
        text = repr(event)
        assert "|vertices|=1000" in text
        assert "999" not in text  # no array dump


class TestDispatch:
    def test_add_dispatches_scoped_event(self, db):
        events = []
        db.add_mutation_listener(events.append)
        db.add(_traj(2, [5, 6], ["museum", "art"]))
        assert len(events) == 1
        event = events[0]
        assert event.kind == "add"
        assert event.trajectory_id == 2
        assert event.keywords == frozenset({"museum", "art"})
        assert sorted(event.vertices.tolist()) == [5, 6]

    def test_remove_dispatches_scoped_event(self, db):
        events = []
        db.add_mutation_listener(events.append)
        db.remove(1)
        assert len(events) == 1
        event = events[0]
        assert event.kind == "remove"
        assert event.trajectory_id == 1
        assert event.keywords == frozenset({"seafood", "park"})
        # The trajectory is already gone from the set, yet the event still
        # carries its full spatial scope.
        assert sorted(event.vertices.tolist()) == [3, 4]
        assert 1 not in db.trajectories

    def test_rolled_back_add_fires_no_event(self, db):
        events = []
        db.add_mutation_listener(events.append)
        with pytest.raises(Exception):
            db.add(_traj(0, [7]))  # duplicate id: rolled back
        assert events == []


class TestErrorAggregation:
    """Satellite 1: a raising listener must not abort mid-dispatch."""

    def test_all_listeners_run_despite_failures(self, db):
        calls = []

        def failing(event):
            calls.append("failing")
            raise RuntimeError("listener exploded")

        def healthy(event):
            calls.append("healthy")

        db.add_mutation_listener(failing)
        db.add_mutation_listener(healthy)
        with pytest.raises(MutationDispatchError):
            db.add(_traj(2, [5], ["museum"]))
        assert calls == ["failing", "healthy"]
        # The mutation itself committed before dispatch: the database and
        # its indexes are consistent even though a listener failed.
        assert 2 in db.trajectories
        assert db.vertex_index.trajectories_at(5) == [2]

    def test_all_causes_are_collected(self, db):
        db.add_mutation_listener(
            lambda e: (_ for _ in ()).throw(RuntimeError("first"))
        )
        db.add_mutation_listener(
            lambda e: (_ for _ in ()).throw(ValueError("second"))
        )
        with pytest.raises(MutationDispatchError) as exc_info:
            db.remove(0)
        causes = exc_info.value.causes
        assert [type(c) for c in causes] == [RuntimeError, ValueError]
        assert exc_info.value.event.kind == "remove"
        assert "first" in str(exc_info.value)
        assert "second" in str(exc_info.value)

    def test_own_caches_scrubbed_before_listeners_fail(self, db):
        db.caches.distances.put((0, 7), 1.5)  # a cached distance row of trajectory 0
        db.add_mutation_listener(
            lambda e: (_ for _ in ()).throw(RuntimeError("boom"))
        )
        with pytest.raises(MutationDispatchError):
            db.remove(0)
        assert db.caches.distances.get((0, 7)) is None
