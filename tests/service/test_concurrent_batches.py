"""Concurrent forked batches on one service (regression).

One fork fan-out at a time holds the process's worker handoff.  A second
``execute_many(workers=2)`` arriving meanwhile — two ``POST /query/batch``
bodies with ``"workers": 2`` — used to raise ``FanOutBusy`` straight out
of the service; it now answers its cache misses sequentially instead.
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


def test_batch_answers_sequentially_while_the_handoff_is_held(database, references):
    admission = AdmissionController(max_inflight=1)
    service = QueryService(
        database, "collaborative", admission=admission, result_cache=16
    )
    service.submit(QUERIES[0])  # one hit for the batch to serve up front
    with executor._worker_handoff({}):  # "another batch is mid-fork"
        results = service.execute_many(QUERIES, workers=2)
    _assert_oracle_equal(results, references)
    assert results[0].stats.cache == "result"  # the hit stayed a hit
    assert [r.stats.executor for r in results[1:]] == ["sequential"] * 3
    # The batch slot went back exactly once — before the misses took
    # theirs, or a cap of 1 would have rejected every one of them.
    assert admission.inflight == 0
    assert service.stats.rejected_queries == 0
    assert service.stats.queries_served == 1 + len(QUERIES)
    # With the handoff free again the same service forks as usual.
    fresh = [UOTSQuery.create([7, 77], ["park"], k=3), UOTSQuery.create([9], [], k=2)]
    assert {r.stats.executor for r in service.execute_many(fresh, workers=2)} == {"fork"}


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
    assert not executor._WORKER  # every handoff was released
