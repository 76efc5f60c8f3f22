"""Concurrent fork fan-outs in one process (regression).

A second pooled ``execute_many`` arriving while one is in flight — two
concurrent ``POST /query/batch`` bodies — used to find a one-at-a-time,
process-wide fork handoff taken: first it raised, then it took a
sequential detour.  Batches ride the pool their service forked at
construction, and a join's phase 1 hands its state to its own pool as
initializer arguments, so nothing is shared: every concurrent fan-out is
answered by workers.
"""

import threading

import pytest

from repro.core.query import UOTSQuery
from repro.core.registry import make_searcher
from repro.index.database import TrajectoryDatabase
from repro.join.tsjoin import TwoPhaseJoin
from repro.parallel.executor import fork_available
from repro.service import QueryService
from repro.trajectory.generator import generate_trips

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="fork start method not available"
)

QUERIES = [
    UOTSQuery.create([5, 210], ["park"], lam=0.7, k=5),
    UOTSQuery.create([0, 399], [], lam=0.9, k=4),
    UOTSQuery.create([37, 199, 361], ["museum", "walk"], lam=0.5, k=6),
    UOTSQuery.create([120, 300], ["seafood"], lam=0.3, k=3),
]


def _assert_oracle_equal(results, references):
    assert len(results) == len(references)
    for result, reference in zip(results, references):
        assert result.exact and result.error is None
        assert result.ids == reference.ids
        assert result.scores == pytest.approx(reference.scores, abs=1e-9)


@pytest.fixture(scope="module")
def references(database):
    oracle = make_searcher(database, "brute-force")
    return [oracle.search(query) for query in QUERIES]


def test_joins_and_a_batch_fork_at_once_from_three_threads(grid10, database, references):
    """Each fork fan-out hands its own state to its own workers: two
    concurrent joins and a pooled batch cannot see each other's payload."""
    join_db = TrajectoryDatabase(grid10, generate_trips(grid10, 40, seed=33))
    expected = TwoPhaseJoin(join_db).self_join(1.4)
    service = QueryService(database, "collaborative", pool=2)
    barrier = threading.Barrier(3)
    outcomes: dict[str, object] = {}
    failures: list[BaseException] = []

    def run(name, work) -> None:
        try:
            barrier.wait(timeout=30)
            outcomes[name] = work()
        except BaseException as exc:  # noqa: BLE001 - reported by the assert below
            failures.append(exc)

    join = TwoPhaseJoin(join_db, workers=2).self_join
    threads = [
        threading.Thread(target=run, args=("join-a", lambda: join(1.4))),
        threading.Thread(target=run, args=("join-b", lambda: join(1.4))),
        threading.Thread(
            target=run,
            args=("batch", lambda: service.execute_many(QUERIES)),
        ),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    service.close()
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures
    for name in ("join-a", "join-b"):
        assert outcomes[name].pairs == expected.pairs
        assert outcomes[name].candidate_pairs == expected.candidate_pairs
    _assert_oracle_equal(outcomes["batch"], references)
    assert {r.stats.executor for r in outcomes["batch"]} == {"fork"}


def test_three_threads_batching_at_once_all_match_brute_force(database, references):
    service = QueryService(database, "collaborative", pool=2)
    barrier = threading.Barrier(3)
    outcomes: dict[int, list] = {}
    failures: list[BaseException] = []

    def caller(number: int) -> None:
        try:
            barrier.wait(timeout=30)
            outcomes[number] = service.execute_many(QUERIES)
        except BaseException as exc:  # noqa: BLE001 - reported by the assert below
            failures.append(exc)

    threads = [threading.Thread(target=caller, args=(n,)) for n in range(3)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    service.close()
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures
    for number in range(3):
        _assert_oracle_equal(outcomes[number], references)
        # No sequential detour: every batch was answered by workers.
        assert {r.stats.executor for r in outcomes[number]} == {"fork"}
