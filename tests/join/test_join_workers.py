"""The two-phase join at any worker count.

Phase 1's per-trajectory searches are independent and phase 2's merge does
not depend on who ran them, so pairs, scores and work counters must not
move with ``workers``; a traced fan-out stitches one ``join_task`` span per
searched trajectory under its ``parallel_join`` span.
"""

import pytest

from repro.index.database import TrajectoryDatabase
from repro.join.tsjoin import TwoPhaseJoin
from repro.network.generators import ring_radial_network
from repro.obs.trace import Tracer, activated
from repro.parallel.executor import fork_available
from repro.trajectory.generator import generate_trips

fork_only = pytest.mark.skipif(
    not fork_available(), reason="fork start method not available"
)


@pytest.fixture(scope="module")
def ring_graph():
    return ring_radial_network(6, 16, seed=1)


@pytest.fixture(scope="module")
def ring_db(ring_graph):
    return TrajectoryDatabase(ring_graph, generate_trips(ring_graph, 60, seed=5))


@pytest.fixture(scope="module")
def other_db(ring_graph, ring_db):
    trips = generate_trips(ring_graph, 30, seed=6)
    return TrajectoryDatabase(ring_graph, trips, sigma=ring_db.sigma)


@fork_only
def test_traced_fan_out_stitches_one_task_span_per_trajectory(ring_db):
    tracer = Tracer()
    with activated(tracer):
        TwoPhaseJoin(ring_db, workers=2).self_join(1.5)
    root = tracer.last_trace()
    assert root.name == "parallel_join"
    tasks = [span for span in root.children if span.name == "join_task"]
    assert len(tasks) == len(root.children) == len(ring_db)
    assert {span.attributes["trajectory_id"] for span in tasks} == set(
        ring_db.trajectories.ids()
    )


def _observed(result):
    stats = result.stats
    return (
        result.pairs,
        result.candidate_pairs,
        stats.expanded_vertices,
        stats.visited_trajectories,
        stats.similarity_evaluations,
    )


@pytest.mark.parametrize("workers", [1, 2, 3])
class TestWorkerCountIndependence:
    """Every setting (``batch_size`` included) reaches phase 1 unchanged,
    whoever runs it."""

    @pytest.fixture(autouse=True)
    def _needs_fork(self, workers):
        if workers > 1 and not fork_available():
            pytest.skip("fork start method not available")

    def test_self_join(self, ring_db, workers):
        sequential = TwoPhaseJoin(ring_db).self_join(1.5)
        fanned = TwoPhaseJoin(ring_db, workers=workers).self_join(1.5)
        assert sequential.pairs
        assert _observed(fanned) == _observed(sequential)

    def test_join(self, ring_db, other_db, workers):
        sequential = TwoPhaseJoin(ring_db, other_db).join(1.4)
        fanned = TwoPhaseJoin(ring_db, other_db, workers=workers).join(1.4)
        assert sequential.pairs
        assert _observed(fanned) == _observed(sequential)
