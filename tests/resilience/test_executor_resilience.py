"""Executor hardening: failure isolation and crash recovery.

The worker-crash tests install a searcher that calls ``os._exit`` only
inside forked children (``multiprocessing.parent_process()`` is set there),
so every pool worker dies on its first query and the batch must finish in
the parent: the in-flight queries re-run there, the rest find no worker.
"""

import multiprocessing
import os

import pytest

from repro.core.engine import ALGORITHMS
from repro.core.query import UOTSQuery
from repro.core.search import CollaborativeSearcher
from repro.parallel.executor import fork_available, parallel_search
from repro.resilience.budget import SearchBudget


def _queries(n=4):
    return [
        UOTSQuery.create([i * 7 % 400, (i * 31 + 5) % 400], ["park"], k=3)
        for i in range(n)
    ]


class _CrashInWorker:
    """A searcher that kills any forked worker process it runs in."""

    def __init__(self, database):
        self._inner = CollaborativeSearcher(database)

    def search(self, query, budget=None):
        if multiprocessing.parent_process() is not None:
            os._exit(17)
        return self._inner.search(query, budget=budget)


class TestFailureIsolation:
    def test_bad_query_marks_only_its_result(self, database):
        queries = _queries(3)
        queries[1] = UOTSQuery.create([0, 10**6], ["park"], k=3)
        results = parallel_search(database, queries, workers=1)
        assert results[0].ok and results[2].ok
        assert not results[1].ok
        assert "QueryError" in results[1].error
        assert results[1].items == []
        assert results[1].stats.failed_queries == 1

    @pytest.mark.skipif(not fork_available(), reason="fork not available")
    def test_bad_query_isolated_across_workers(self, database):
        queries = _queries(4)
        queries[2] = UOTSQuery.create([0, 10**6], ["park"], k=3)
        results = parallel_search(database, queries, workers=2)
        assert [r.ok for r in results] == [True, True, False, True]
        assert results[2].stats.failed_queries == 1
        good = parallel_search(database, [queries[0]], workers=1)[0]
        assert results[0].ids == good.ids

    def test_batch_stats_aggregate_failures(self, database):
        queries = _queries(3)
        queries[0] = UOTSQuery.create([0, 10**6], ["park"], k=3)
        results = parallel_search(database, queries, workers=1)
        assert sum(r.stats.failed_queries for r in results) == 1


class TestExecutorLabel:
    def test_sequential_label(self, database):
        results = parallel_search(database, _queries(2), workers=1)
        assert all(r.stats.executor == "sequential" for r in results)

    @pytest.mark.skipif(not fork_available(), reason="fork not available")
    def test_fork_label(self, database):
        results = parallel_search(database, _queries(3), workers=2)
        assert all(r.stats.executor == "fork" for r in results)

    @pytest.mark.skipif(not fork_available(), reason="fork not available")
    def test_budget_applies_in_workers(self, database):
        results = parallel_search(
            database, _queries(3), workers=2,
            budget=SearchBudget(max_expanded_vertices=10),
        )
        assert all(not r.exact for r in results)
        assert all(r.degradation_reason for r in results)


@pytest.mark.skipif(not fork_available(), reason="fork not available")
class TestWorkerCrashRecovery:
    @pytest.fixture()
    def crashy_algorithm(self, monkeypatch):
        monkeypatch.setitem(ALGORITHMS, "crash-in-worker", _CrashInWorker)
        return "crash-in-worker"

    def test_crashed_workers_fall_back_to_parent(self, database, crashy_algorithm):
        queries = _queries(4)
        results = parallel_search(
            database, queries, algorithm=crashy_algorithm, workers=2
        )
        assert all(r.ok for r in results)
        # Two workers, so exactly two queries were in flight when theirs
        # died (re-run: one retry each); the other two found the pool empty
        # and ran in process like on a service without a pool.
        labels = sorted(r.stats.executor for r in results)
        assert labels == ["sequential", "sequential"] + ["sequential-fallback"] * 2
        assert sorted(r.stats.retries for r in results) == [0, 0, 1, 1]
        expected = parallel_search(database, queries, workers=1)
        for got, want in zip(results, expected):
            assert got.ids == want.ids
            assert got.scores == pytest.approx(want.scores)

