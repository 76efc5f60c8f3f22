"""Concurrent pooled batches on one service (regression).

A second ``execute_many(workers=2)`` arriving while one is in flight — two
``POST /query/batch`` bodies with ``"workers": 2`` — used to find the
one-at-a-time fork handoff taken: first it raised, then it took a
sequential detour.  Batches now ride a worker pool (the service's, or one
opened per call), which holds no process-wide handoff: every concurrent
batch is answered by workers.
"""

import threading

import pytest

from repro.core.query import UOTSQuery
from repro.core.registry import make_searcher
from repro.parallel import executor
from repro.parallel.executor import fork_available
from repro.service import QueryService
from repro.service.admission import AdmissionController

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


def test_batch_forks_while_a_join_holds_the_handoff(database, references):
    admission = AdmissionController(max_inflight=2)
    service = QueryService(
        database, "collaborative", admission=admission, result_cache=16
    )
    service.submit(QUERIES[0])  # one hit for the batch to serve up front
    with executor._worker_handoff({}):  # "a join fan-out is mid-fork"
        results = service.execute_many(QUERIES, workers=2)
    _assert_oracle_equal(results, references)
    assert results[0].stats.cache == "result"  # the hit stayed a hit
    assert [r.stats.executor for r in results[1:]] == ["fork"] * 3
    assert admission.inflight == 0
    assert service.stats.rejected_queries == 0
    assert service.stats.queries_served == 1 + len(QUERIES)


def test_three_threads_batching_at_once_all_match_brute_force(database, references):
    service = QueryService(database, "collaborative")
    barrier = threading.Barrier(3)
    outcomes: dict[int, list] = {}
    failures: list[BaseException] = []

    def caller(number: int) -> None:
        try:
            barrier.wait(timeout=30)
            outcomes[number] = service.execute_many(QUERIES, workers=2)
        except BaseException as exc:  # noqa: BLE001 - reported by the assert below
            failures.append(exc)

    threads = [threading.Thread(target=caller, args=(n,)) for n in range(3)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures
    for number in range(3):
        _assert_oracle_equal(outcomes[number], references)
        # No sequential detour: every batch was answered by workers.
        assert {r.stats.executor for r in outcomes[number]} == {"fork"}
    assert not executor._WORKER  # the join handoff was never involved
