"""Concurrent requests on one sharded searcher (regression).

``repro serve --algorithm sharded`` used to reset the connection of a
second concurrent request: its scatter wave found the fork handoff of the
first still staged and died with ``RuntimeError: re-entrant parallel
fan-out``.  The sharded searcher no longer forks — a query is a loop over
per-query locals — so two threads sharing one searcher cannot collide.
"""

import threading

import pytest

from repro.core.query import UOTSQuery
from repro.core.registry import make_searcher

QUERIES = [
    UOTSQuery.create([5, 210], ["park"], lam=0.7, k=5),
    UOTSQuery.create([0, 399], [], lam=0.9, k=4),
    UOTSQuery.create([37, 199, 361], ["museum", "walk"], lam=0.5, k=6),
    UOTSQuery.create([120, 300], ["seafood"], lam=0.3, k=3),
]


def _assert_equal(result, reference):
    assert result.exact and result.error is None
    assert result.ids == reference.ids
    assert result.scores == pytest.approx(reference.scores, abs=1e-9)


def test_two_threads_searching_one_sharded_searcher_both_match_brute_force(database):
    sharded = make_searcher(database, "sharded", shards=4)
    oracle = make_searcher(database, "brute-force")
    references = [oracle.search(query) for query in QUERIES]
    barrier = threading.Barrier(2)
    outcomes: dict[int, list] = {}
    failures: list[BaseException] = []

    def caller(number: int) -> None:
        try:
            barrier.wait(timeout=30)
            # Opposite orders: the two threads overlap on different queries.
            order = QUERIES if number == 0 else QUERIES[::-1]
            outcomes[number] = [(query, sharded.search(query)) for query in order * 2]
        except BaseException as exc:  # noqa: BLE001 - reported by the assert below
            failures.append(exc)

    threads = [threading.Thread(target=caller, args=(n,)) for n in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures
    for number in range(2):
        assert len(outcomes[number]) == 2 * len(QUERIES)
        for query, result in outcomes[number]:
            _assert_equal(result, references[QUERIES.index(query)])
            assert result.stats.executor == ""  # nothing forked
