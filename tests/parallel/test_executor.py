"""Unit tests for the parallel executor.

Results must be identical regardless of worker count; speedup itself is a
property of the host (this suite runs on any core count).
"""

import pytest

from repro.bench.workloads import WorkloadConfig, make_queries
from repro.core.query import UOTSQuery
from repro.errors import QueryError
from repro.index.database import TrajectoryDatabase
from repro.join.tsjoin import TwoPhaseJoin
from repro.parallel.executor import fork_available, parallel_search
from repro.trajectory.generator import generate_trips


@pytest.fixture(scope="module")
def queries(database):
    return [
        UOTSQuery.create([i * 7 % 400, (i * 31 + 5) % 400], ["park"], lam=0.5, k=5)
        for i in range(6)
    ]


class TestParallelSearch:
    def test_sequential_baseline(self, database, queries):
        results = parallel_search(database, queries, workers=1)
        assert len(results) == len(queries)

    @pytest.mark.skipif(not fork_available(), reason="fork not available")
    def test_workers_return_identical_results(self, database, queries):
        sequential = parallel_search(database, queries, workers=1)
        parallel = parallel_search(database, queries, workers=3)
        for a, b in zip(sequential, parallel):
            assert a.scores == pytest.approx(b.scores)
            assert a.ids == b.ids

    def test_order_preserved(self, database, queries):
        results = parallel_search(database, queries, workers=2)
        # Each result must correspond to its query: re-run one and compare.
        single = parallel_search(database, [queries[3]], workers=1)[0]
        assert results[3].scores == pytest.approx(single.scores)

    def test_invalid_workers_rejected(self, database, queries):
        with pytest.raises(QueryError):
            parallel_search(database, queries, workers=0)

    def test_every_algorithm_supported(self, database, queries):
        for algorithm in ("collaborative", "spatial-first", "brute-force"):
            results = parallel_search(
                database, queries[:2], algorithm=algorithm, workers=2
            )
            assert len(results) == 2


class TestParallelSelfJoin:
    @pytest.fixture(scope="class")
    def small_db(self, grid10):
        trips = generate_trips(grid10, 40, seed=33)
        return TrajectoryDatabase(grid10, trips)

    def test_sequential_matches_twophase(self, small_db):
        expected = TwoPhaseJoin(small_db).self_join(1.5)
        got = TwoPhaseJoin(small_db, workers=1).self_join(1.5)
        assert got.pair_set() == expected.pair_set()

    @pytest.mark.skipif(not fork_available(), reason="fork not available")
    def test_workers_return_identical_pairs(self, small_db):
        sequential = TwoPhaseJoin(small_db, workers=1).self_join(1.4)
        parallel = TwoPhaseJoin(small_db, workers=3).self_join(1.4)
        assert parallel.pair_set() == sequential.pair_set()

    def test_invalid_theta_rejected(self, small_db):
        with pytest.raises(QueryError):
            TwoPhaseJoin(small_db, workers=2).self_join(0.0)

    def test_invalid_workers_rejected(self, small_db):
        with pytest.raises(QueryError):
            TwoPhaseJoin(small_db, workers=-1)


class TestParallelNonSelfJoin:
    @pytest.fixture(scope="class")
    def sides(self, grid10):
        from repro.trajectory.generator import TripConfig

        config = TripConfig(num_origins=5, target_points=12)
        p_db = TrajectoryDatabase(grid10, generate_trips(grid10, 30, seed=41,
                                                         config=config))
        q_db = TrajectoryDatabase(grid10, generate_trips(grid10, 20, seed=43,
                                                         config=config),
                                  sigma=p_db.sigma)
        return p_db, q_db

    def test_sequential_matches_twophase(self, sides):
        p_db, q_db = sides
        expected = TwoPhaseJoin(p_db, q_db).join(1.4)
        got = TwoPhaseJoin(p_db, q_db, workers=1).join(1.4)
        assert got.pair_set() == expected.pair_set()

    @pytest.mark.skipif(not fork_available(), reason="fork not available")
    def test_workers_return_identical_pairs(self, sides):
        p_db, q_db = sides
        sequential = TwoPhaseJoin(p_db, q_db, workers=1).join(1.4)
        fanned = TwoPhaseJoin(p_db, q_db, workers=3).join(1.4)
        assert fanned.pair_set() == sequential.pair_set()

    def test_invalid_workers_rejected(self, sides):
        p_db, q_db = sides
        with pytest.raises(QueryError):
            TwoPhaseJoin(p_db, q_db, workers=0)
