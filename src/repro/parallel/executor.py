"""Batch entry point and the join fan-out.

The paper's central systems claim is that per-trajectory (and per-query)
searches are embarrassingly parallel while the merge step stays constant
cost.  Processes, not threads, carry that parallelism (SciPy's Dijkstra
holds the GIL), and two things fork:

- **searches** run on a :class:`~repro.parallel.pool.SearchWorkerPool` —
  pre-forked workers, one pipe round trip per query.  This module keeps
  only what both sides of that pipe share: :func:`_safe_search` (one
  isolated search: a library error becomes an *error-marked*
  :class:`SearchResult` instead of poisoning a batch) and
  :func:`parallel_search`, the library's batch convenience over
  ``QueryService.execute_many(workers=N)``;
- **phase 1 of the two-phase join** (:func:`parallel_self_join`,
  :func:`parallel_join`) fans out over a ``multiprocessing`` pool forked
  for the call.  Workers are forked (POSIX), so the database is shared
  copy-on-write and never pickled; the per-task payload is a trajectory
  id.  Without ``fork`` the joins run sequentially.

The join's parent-to-worker handoff rides module globals through ``fork``
(never pickled).  :func:`_worker_handoff` makes that exception-safe: the
parent's global is populated only inside the context manager (cleared on
any exit path), one fan-out at a time holds it — a second one, from any
thread, fails fast with :class:`FanOutBusy` instead of silently mixing
payloads — and each worker moves the inherited payload into its own
``_WORKER_STATE`` and clears the global, so a nested fan-out inside a
worker starts from a clean slate.

Telemetry harvest (:mod:`repro.obs.harvest`): when the parent traces (or a
metric sink is installed), the handoff payload carries a harvest config
and every join task runs under its own tracer/registry, returning a
picklable :class:`~repro.obs.harvest.WorkerTelemetry` alongside its
result; the parent grafts the span trees under ``parallel_join`` and
merges the counter deltas into the sink.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from contextlib import contextmanager
from typing import Sequence

from repro.core.query import UOTSQuery
from repro.core.results import SearchResult, SearchStats
from repro.errors import QueryError, ReproError
from repro.index.database import TrajectoryDatabase
from repro.join.tsjoin import JoinResult, TwoPhaseJoin, _validate_theta
from repro.matching.engine import DirectionalSearchEngine
from repro.obs import harvest
from repro.obs.trace import current_tracer
from repro.resilience.budget import SearchBudget

__all__ = ["parallel_search", "parallel_self_join", "parallel_join", "fork_available"]

# Parent-side handoff payload, inherited through fork (never pickled).
# Populated ONLY inside _worker_handoff(); empty at rest.
_WORKER: dict[str, object] = {}

# Worker-side copy of the payload, filled by _worker_init after fork.
_WORKER_STATE: dict[str, object] = {}


def fork_available() -> bool:
    """Whether fork-based process pools are usable on this platform."""
    return "fork" in multiprocessing.get_all_start_methods()


class FanOutBusy(RuntimeError):
    """Another fork fan-out of this process holds the worker handoff."""


# Held for the life of one fan-out and only ever taken without blocking.
_HANDOFF_LOCK = threading.Lock()


@contextmanager
def _worker_handoff(payload: dict[str, object]):
    """Stage ``payload`` in the fork-inherited global, exception-safely.

    Raises :class:`FanOutBusy` on re-entrant use from the same process:
    two concurrent fork fan-outs would race on the single global and
    workers could inherit the wrong payload.  (Workers themselves are safe
    to nest — ``_worker_init`` clears their inherited copy.)
    """
    lock = _HANDOFF_LOCK
    if not lock.acquire(blocking=False):
        raise FanOutBusy(
            "re-entrant parallel fan-out: a _WORKER handoff is already staged "
            "in this process; finish the outer parallel call first"
        )
    _WORKER.update(payload)
    try:
        yield
    finally:
        _WORKER.clear()
        lock.release()


def _worker_init() -> None:
    """Runs in each freshly forked worker: claim the inherited payload.

    Moving it into ``_WORKER_STATE`` and clearing ``_WORKER`` keeps the
    handoff single-use — a nested parallel call inside this worker stages
    its own payload (under a fresh lock: the inherited one is held).
    """
    global _HANDOFF_LOCK
    _HANDOFF_LOCK = threading.Lock()
    _WORKER_STATE.clear()
    _WORKER_STATE.update(_WORKER)
    _WORKER.clear()


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


def parallel_search(
    database: TrajectoryDatabase,
    queries: Sequence[UOTSQuery],
    algorithm: str = "collaborative",
    workers: int = 1,
    budget: SearchBudget | None = None,
) -> list[SearchResult]:
    """Run a batch of UOTS queries across ``workers`` processes.

    Results come back in query order.  ``workers=1`` (or an unavailable
    ``fork``) runs sequentially in-process.  ``budget`` applies to every
    query (a per-query ``query.budget`` wins where set).  A failing query
    yields an error-marked result; a query whose worker died is re-run in
    the parent (``stats.executor = "sequential-fallback"``).

    This is a convenience over a one-shot
    :class:`~repro.service.service.QueryService` (imported lazily — the
    serving layer sits above this module), which opens a
    :class:`~repro.parallel.pool.SearchWorkerPool` for the call;
    long-lived callers should hold a service (and its pool) of their own.
    """
    from repro.service.service import QueryService

    service = QueryService(database, algorithm)
    return service.execute_many(queries, budget=budget, workers=workers)


# -------------------------------------------------------------- join phase 1
def _join_worker(
    trajectory_id: int,
) -> tuple[int, dict[int, float], SearchStats, "harvest.WorkerTelemetry | None"]:
    engine: DirectionalSearchEngine = _WORKER_STATE["engine"]
    database: TrajectoryDatabase = _WORKER_STATE["database"]
    lam: float = _WORKER_STATE["lam"]
    limit: float = _WORKER_STATE["limit"]
    trajectory = database.get(trajectory_id)
    points = trajectory.samples()
    config = _WORKER_STATE.get("harvest")
    if not config:
        candidates = engine.threshold_search(
            points, lam, limit, exclude_id=trajectory_id
        )
        return trajectory_id, candidates.values, candidates.stats, None
    with harvest.collecting(config) as collector:
        # threshold_search is not span-instrumented; the task root gives
        # the stitched join trace its per-trajectory timing.
        with collector.tracer.span("join_task", trajectory_id=trajectory_id):
            candidates = engine.threshold_search(
                points, lam, limit, exclude_id=trajectory_id
            )
        collector.record_stats(candidates.stats, kind="join")
    return trajectory_id, candidates.values, candidates.stats, collector.telemetry()


def parallel_self_join(
    database: TrajectoryDatabase,
    theta: float,
    lam: float = 0.5,
    sigma_t: float = 1800.0,
    workers: int = 1,
) -> JoinResult:
    """The two-phase self join with phase 1 fanned out over processes.

    Phase 2 (merging the candidate sets) runs in the parent and is the same
    dictionary intersection regardless of the worker count — the constant
    merge cost the two-phase design claims.
    """
    if workers < 1:
        raise QueryError(f"workers must be >= 1, got {workers}")
    _validate_theta(theta)
    if workers == 1 or not fork_available():
        return TwoPhaseJoin(database, lam=lam, sigma_t=sigma_t).self_join(theta)

    started = time.perf_counter()
    engine = DirectionalSearchEngine(database, sigma_t=sigma_t)
    ids = database.trajectories.ids()
    context = multiprocessing.get_context("fork")
    payload = {
        "engine": engine, "database": database, "lam": lam, "limit": theta - 1.0,
    }
    config = harvest.harvest_config()
    if config is not None:
        payload["harvest"] = config
    with _worker_handoff(payload):
        with context.Pool(processes=workers, initializer=_worker_init) as pool:
            chunk = max(1, len(ids) // (workers * 8))
            rows = pool.map(_join_worker, ids, chunksize=chunk)

    result = JoinResult()
    sets: dict[int, dict[int, float]] = {}
    tracer = current_tracer()
    with tracer.span("parallel_join", workers=workers, tasks=len(rows)) as jspan:
        for trajectory_id, values, stats, telemetry in rows:
            sets[trajectory_id] = values
            result.stats.merge(stats)
            harvest.merge_telemetry(telemetry)
            if telemetry is not None:
                harvest.graft_telemetry(tracer, jspan, telemetry)
    eps = 1e-9
    for id1, candidates in sets.items():
        for id2, v12 in candidates.items():
            if id2 <= id1:
                continue
            v21 = sets.get(id2, {}).get(id1)
            if v21 is None:
                continue
            result.candidate_pairs += 1
            score = v12 + v21
            if score >= theta - eps:
                result.pairs.append((id1, id2, score))
    result.pairs.sort()
    result.stats.elapsed_seconds = time.perf_counter() - started
    return result


# ------------------------------------------------------- non-self join
def _cross_join_worker(
    task: tuple[str, int],
) -> tuple[str, int, dict[int, float], SearchStats, "harvest.WorkerTelemetry | None"]:
    side, trajectory_id = task
    engine: DirectionalSearchEngine = _WORKER_STATE[f"engine_{side}"]
    database: TrajectoryDatabase = _WORKER_STATE[f"database_{side}"]
    lam: float = _WORKER_STATE["lam"]
    limit: float = _WORKER_STATE["limit"]
    trajectory = database.get(trajectory_id)
    points = trajectory.samples()
    config = _WORKER_STATE.get("harvest")
    if not config:
        candidates = engine.threshold_search(points, lam, limit)
        return side, trajectory_id, candidates.values, candidates.stats, None
    with harvest.collecting(config) as collector:
        with collector.tracer.span(
            "join_task", trajectory_id=trajectory_id, side=side
        ):
            candidates = engine.threshold_search(points, lam, limit)
        collector.record_stats(candidates.stats, kind="join")
    return (
        side, trajectory_id, candidates.values, candidates.stats,
        collector.telemetry(),
    )


def parallel_join(
    database: TrajectoryDatabase,
    other: TrajectoryDatabase,
    theta: float,
    lam: float = 0.5,
    sigma_t: float = 1800.0,
    workers: int = 1,
) -> JoinResult:
    """The two-phase non-self join ``P x Q`` with phase 1 fanned out.

    Searches from both sides (``P`` trajectories against ``Q``'s engine and
    vice versa) form one task pool; merging runs in the parent, worker-count
    independent.
    """
    if workers < 1:
        raise QueryError(f"workers must be >= 1, got {workers}")
    _validate_theta(theta)
    if workers == 1 or not fork_available():
        return TwoPhaseJoin(database, other, lam=lam, sigma_t=sigma_t).join(theta)

    started = time.perf_counter()
    engine_q = DirectionalSearchEngine(other, sigma_t=sigma_t)
    engine_p = DirectionalSearchEngine(database, sigma_t=sigma_t)
    tasks = [("p", tid) for tid in database.trajectories.ids()]
    tasks += [("q", tid) for tid in other.trajectories.ids()]
    context = multiprocessing.get_context("fork")
    # Side "p" trajectories search the Q engine and vice versa.
    payload = {
        "engine_p": engine_q, "database_p": database,
        "engine_q": engine_p, "database_q": other,
        "lam": lam, "limit": theta - 1.0,
    }
    config = harvest.harvest_config()
    if config is not None:
        payload["harvest"] = config
    with _worker_handoff(payload):
        with context.Pool(processes=workers, initializer=_worker_init) as pool:
            chunk = max(1, len(tasks) // (workers * 8))
            rows = pool.map(_cross_join_worker, tasks, chunksize=chunk)

    result = JoinResult()
    from_p: dict[int, dict[int, float]] = {}
    from_q: dict[int, dict[int, float]] = {}
    tracer = current_tracer()
    with tracer.span("parallel_join", workers=workers, tasks=len(rows)) as jspan:
        for side, trajectory_id, values, stats, telemetry in rows:
            (from_p if side == "p" else from_q)[trajectory_id] = values
            result.stats.merge(stats)
            harvest.merge_telemetry(telemetry)
            if telemetry is not None:
                harvest.graft_telemetry(tracer, jspan, telemetry)
    eps = 1e-9
    for id1, candidates in from_p.items():
        for id2, v12 in candidates.items():
            v21 = from_q.get(id2, {}).get(id1)
            if v21 is None:
                continue
            result.candidate_pairs += 1
            score = v12 + v21
            if score >= theta - eps:
                result.pairs.append((id1, id2, score))
    result.pairs.sort()
    result.stats.elapsed_seconds = time.perf_counter() - started
    return result
