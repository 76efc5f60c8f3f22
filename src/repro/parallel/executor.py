"""Batch entry point: one isolated search, and a batch over forked workers.

Processes, not threads, carry the library's parallelism (SciPy's Dijkstra
holds the GIL).  Searches run on a :class:`~repro.parallel.pool.SearchWorkerPool`
— pre-forked workers, one pipe round trip per query.  This module keeps
only what both sides of that pipe share: :func:`_safe_search` (one
isolated search: a library error becomes an *error-marked*
:class:`SearchResult` instead of poisoning a batch) and
:func:`parallel_search`, the library's batch convenience over a one-shot
pooled ``QueryService``.  The join forks its own phase 1
(``TwoPhaseJoin(workers=N)``).
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import replace
from typing import Callable, Sequence

from repro.core.query import UOTSQuery
from repro.core.results import SearchResult
from repro.errors import QueryError, ReproError
from repro.index.database import TrajectoryDatabase
from repro.resilience.budget import SearchBudget

__all__ = ["parallel_search", "fork_available"]


def fork_available() -> bool:
    """Whether fork-based process pools are usable on this platform."""
    return "fork" in multiprocessing.get_all_start_methods()


# ----------------------------------------------------------- batch queries
def _error_result(exc: BaseException) -> SearchResult:
    """An error-marked result: the query failed, the batch lives on."""
    result = SearchResult(
        items=[],
        exact=False,
        degradation_reason="query failed",
        error=f"{type(exc).__name__}: {exc}",
    )
    result.stats.failed_queries = 1
    return result


def _safe_search(searcher, query: UOTSQuery, budget: SearchBudget | None) -> SearchResult:
    """One isolated search: library errors become error-marked results.

    Failed queries get the wall time they burned stamped into
    ``stats.elapsed_seconds`` — the service records latency from that field
    on every path, so an error must not report as a 0-latency query.
    """
    started = time.perf_counter()
    try:
        return searcher.search(query, budget=budget)
    except ReproError as exc:
        result = _error_result(exc)
        result.stats.elapsed_seconds = time.perf_counter() - started
        return result


def _charged_search(
    run: Callable[[UOTSQuery, SearchBudget | None], SearchResult],
    query: UOTSQuery,
    budget: SearchBudget | None,
    entered: float,
) -> SearchResult:
    """``run(query, budget)`` with the time since ``entered`` (a
    ``perf_counter`` reading) charged to the deadline of ``budget``
    (default: the query's own).

    Every search path answers through here — a pool worker, the calling
    thread, a gateway bridge thread — so a deadline always counts the time
    the query queued before its search began, and a degraded answer says
    how much of the deadline the queue took.
    """
    if budget is None:
        budget = query.budget
    deadline = budget.deadline_seconds if budget is not None else None
    wait = time.perf_counter() - entered
    if deadline is not None:
        budget = replace(budget, deadline_seconds=max(0.0, deadline - wait))
    result = run(query, budget)
    if deadline is not None and not result.exact and result.error is None:
        result.degradation_reason = (
            f"{result.degradation_reason}; {wait * 1000:.1f} ms of the "
            f"{deadline * 1000:.1f} ms deadline spent waiting for a worker"
        )
    return result


def parallel_search(
    database: TrajectoryDatabase,
    queries: Sequence[UOTSQuery],
    algorithm: str = "collaborative",
    workers: int = 1,
    budget: SearchBudget | None = None,
) -> list[SearchResult]:
    """Run a batch of UOTS queries across ``workers`` processes.

    Results come back in query order.  ``workers=1``, a single query or
    an unavailable ``fork`` runs sequentially in-process.  ``budget`` applies to every
    query (a per-query ``query.budget`` wins where set).  A failing query
    yields an error-marked result; a query whose worker died is re-run in
    the parent (``stats.executor = "sequential-fallback"``).

    This is a convenience over a one-shot
    :class:`~repro.service.service.QueryService` (imported lazily — the
    serving layer sits above this module) that forks
    ``min(workers, len(queries))`` search workers when that is two or
    more and stops them on return; long-lived callers should hold a pooled service of their own.
    """
    from repro.service.service import QueryService

    if workers < 1:
        raise QueryError(f"workers must be >= 1, got {workers}")
    queries = list(queries)
    pool = min(workers, len(queries))
    pool = pool if pool > 1 and fork_available() else 0
    service = QueryService(database, algorithm, pool=pool)
    try:
        return service.execute_many(queries, budget=budget)
    finally:
        service.close()
