"""Persistent pre-forked search workers: the route to the second core.

SciPy's ``dijkstra`` holds the GIL, so threads in one process never search
on two cores at once.  :class:`SearchWorkerPool` forks ``workers``
processes **once**, each holding the forked searcher, and answers a query
by one pipe round trip: ``(query, budget, harvest config)`` down,
``(SearchResult, span records)`` back (both harvest halves ``None``
unless the parent traces).  Result cache, admission,
stats, drift and metrics stay in the parent
(:class:`~repro.service.service.QueryService` dispatches here from
``_execute_admitted`` when it was given a pool).  DESIGN.md §15 has the
measurements behind each rule below.

- **Start-up is warm → freeze → fork.**  The searcher's ``warm()`` builds
  what the first query would build lazily, ``gc.freeze()`` keeps the
  children's collector off the inherited heap, then the workers fork: they
  share every page copy-on-write and build nothing twice.  Fork before
  starting threads: a ``QueryService`` forks its pool in its constructor
  and nowhere else (``repro serve`` builds it before any thread).
- **Coherence is by replication, not re-fork.**  One mutation listener
  writes every ``add`` (with its trajectory) and ``remove`` down each
  worker's FIFO pipe, in listener order; a worker applies it to its copy
  before it reads its next query, so a query submitted after a write
  returned sees it.  (As for the database itself, concurrent writers to
  the *same* id are the caller's to serialise.)  A worker that cannot
  apply a write exits rather than serve a diverged copy.
- **Containment is by subtraction.**  A worker that dies has its in-flight
  query re-run in process (``stats.executor = "sequential-fallback"``,
  ``retries = 1``), is dropped and never replaced; zero workers is the
  in-process path.  Workers ignore SIGINT, stop on :meth:`close`'s message
  and exit on pipe EOF, so neither SIGTERM nor a SIGKILLed parent leaves a
  child behind.  In any forked child every inherited pool handle is inert.
- **Deadlines are charged for the queue.**  The wait for an idle worker is
  subtracted from the deadline handed to it; a deadline that runs out in
  the queue gets the labelled degraded answer without occupying a worker.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import signal
import threading
import time
import weakref
from typing import Callable, Sequence

from repro.core.query import UOTSQuery
from repro.core.results import SearchResult
from repro.errors import QueryError
from repro.index.database import TrajectoryDatabase
from repro.obs import harvest
from repro.obs.metrics import LATENCY_BUCKETS, MetricsRegistry
from repro.obs.trace import Span, Tracer, activated, current_tracer
from repro.parallel.executor import (
    _charged_search,
    _error_result,
    _safe_search,
    fork_available,
)
from repro.resilience.budget import SearchBudget

__all__ = ["SearchWorkerPool", "serving_workers", "usable_cpus"]

#: Every pool opened by this process; a forked child abandons them all.
_LIVE_POOLS: "weakref.WeakSet[SearchWorkerPool]" = weakref.WeakSet()

# One pool forks at a time: a worker must never inherit the child end of
# another pool's half-built pipe (its death would then go unnoticed).
_FORK_LOCK = threading.Lock()


def _after_fork_in_child() -> None:
    global _FORK_LOCK
    _FORK_LOCK = threading.Lock()
    for pool in list(_LIVE_POOLS):
        pool._abandon()


os.register_at_fork(after_in_child=_after_fork_in_child)


def _affinity() -> list[int]:
    """The CPUs this process may run on; empty where the platform hides it."""
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return []  # pragma: no cover - non-Linux


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask, not the machine's)."""
    return len(_affinity()) or os.cpu_count() or 1


def serving_workers(limit: int) -> int:
    """Pool size for a serving process: ``min(usable CPUs, limit)`` and at
    least one, so the parent never searches; 0 (no pool) only where the
    platform cannot fork."""
    return max(1, min(usable_cpus(), limit)) if fork_available() else 0


# ---------------------------------------------------------------- worker side
def _run_search(searcher, query: UOTSQuery, budget: SearchBudget | None, config):
    """One worker task: the isolated search, its spans captured when asked."""
    try:
        if not config:
            return _safe_search(searcher, query, budget), None
        with harvest.collecting(config) as tracer:
            result = _safe_search(searcher, query, budget)
        return result, harvest.span_records(tracer)
    except Exception as exc:  # noqa: BLE001 - a non-library bug: isolate it
        return _error_result(exc), None


def _worker_main(
    conn, parent_end, cpu, searcher, database: TrajectoryDatabase, parent_only
) -> None:
    """The worker loop; returns (and the process exits) on ``stop`` or EOF."""
    parent_end.close()  # or this worker would hold its own pipe open forever
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.set_wakeup_fd(-1)  # never poke an event loop inherited mid-fork
    for listener in parent_only:
        database.remove_mutation_listener(listener)
    with activated(Tracer(enabled=False)):  # not the forking thread's tracer
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                return  # the parent is gone
            kind = message[0]
            if kind == "search":
                conn.send(_run_search(searcher, *message[1:]))
            elif kind == "add":
                database.add(message[1])
            elif kind == "remove":
                database.remove(message[1])
            else:
                return  # "stop"


class _Worker:
    """The parent's handle on one worker process."""

    __slots__ = ("index", "process", "conn", "send_lock")

    def __init__(self, index: int, process, conn):
        self.index = index
        self.process = process
        self.conn = conn
        # The holder's query and a replicated write may race for the pipe.
        self.send_lock = threading.Lock()

    def send(self, message: tuple) -> None:
        with self.send_lock:
            self.conn.send(message)


# ---------------------------------------------------------------- parent side
class SearchWorkerPool:
    """``workers`` forked processes answering searches over pipes.

    Parameters
    ----------
    searcher / database:
        What the workers inherit through ``fork`` (never pickled); the
        parent keeps both for the in-process fallback and for replication.
    workers:
        Processes to fork, once, in the constructor.
    metrics:
        Optional registry for ``repro_pool_workers``,
        ``repro_pool_dispatched_total{worker}``,
        ``repro_pool_fallbacks_total`` and ``repro_pool_wait_seconds``,
        each summed over every pool bound to that registry.
    parent_only:
        Mutation listeners of ``database`` that belong to the parent alone
        (a service's result-cache invalidation); each worker drops them
        from its copy before serving.
    """

    def __init__(
        self,
        searcher,
        database: TrajectoryDatabase,
        workers: int,
        metrics: MetricsRegistry | None = None,
        parent_only: Sequence[Callable] = (),
    ):
        if workers < 1:
            raise QueryError(f"workers must be >= 1, got {workers}")
        if not fork_available():
            raise QueryError("a search worker pool needs the fork start method")
        self._searcher = searcher
        self._database = database
        self._cond = threading.Condition()
        self._workers: list[_Worker] = []  # live ones
        self._idle: list[_Worker] = []  # a stack: the warmest worker goes first
        #: Searches handed to each worker, by worker index.
        self.dispatched = [0] * workers
        #: In-flight searches re-run in process because their worker died.
        self.fallbacks = 0
        self._replicate_lock = threading.Lock()
        self._wait_seconds = None
        _LIVE_POOLS.add(self)
        warm = getattr(searcher, "warm", None)
        if warm is not None:
            warm()
        context = multiprocessing.get_context("fork")
        # Worker 0 floats: a lone request stream is a ping-pong the kernel
        # keeps on one CPU.  Every further worker is pinned to a CPU of its
        # own — a pipe write is a *sync* wake-up, which places the woken
        # worker on the dispatching thread's CPU, and left alone that stacks
        # all busy workers on one core in about one run in ten.
        cpus = _affinity()
        with _FORK_LOCK:
            gc.freeze()
            try:
                for index in range(workers):
                    ours, theirs = context.Pipe()
                    cpu = cpus[index % len(cpus)] if index and cpus else None
                    process = context.Process(
                        target=_worker_main,
                        args=(
                            theirs, ours, cpu, searcher, database,
                            tuple(parent_only),
                        ),
                        name=f"uots-search-{index}",
                        daemon=True,
                    )
                    process.start()
                    theirs.close()
                    self._workers.append(_Worker(index, process, ours))
            finally:
                gc.unfreeze()
        self._idle.extend(reversed(self._workers))  # worker 0 on top
        database.add_mutation_listener(self._replicate)
        if metrics is not None:
            self._bind(metrics)

    def _bind(self, registry: MetricsRegistry) -> None:
        live = registry.gauge("repro_pool_workers", "Live search worker processes")
        dispatched = registry.counter(
            "repro_pool_dispatched_total", "Searches handed to a worker, by worker"
        )
        fallbacks = registry.counter(
            "repro_pool_fallbacks_total",
            "In-flight searches re-run in process after their worker died",
        )
        self._wait_seconds = registry.histogram(
            "repro_pool_wait_seconds",
            "Time an admitted search waited for an idle worker "
            "(charged to its deadline)",
            buckets=LATENCY_BUCKETS,
        )

        def publish(pools: list) -> None:
            live.set(sum(pool.live_workers for pool in pools))
            per_worker: dict[int, int] = {}
            for pool in pools:
                for index, count in enumerate(pool.dispatched):
                    per_worker[index] = per_worker.get(index, 0) + count
            for index, count in per_worker.items():
                dispatched.set_total(count, worker=str(index))
            fallbacks.set_total(sum(pool.fallbacks for pool in pools))

        registry.register_source("search_worker_pool", self, publish)

    # ------------------------------------------------------------ accessors
    @property
    def live_workers(self) -> int:
        """Workers still alive (dead ones are dropped, never replaced)."""
        return len(self._workers)

    @property
    def worker_pids(self) -> list[int]:
        """The live workers' process ids."""
        return [worker.process.pid for worker in self._workers]

    # -------------------------------------------------------------- serving
    def search(
        self,
        query: UOTSQuery,
        budget: SearchBudget | None = None,
        entered: float | None = None,
        span: Span | None = None,
    ) -> SearchResult:
        """Answer one query on a worker — in process when none can.

        ``entered`` is the ``perf_counter`` reading the caller's clock
        started at (default: now); the time from there to worker pick-up
        is charged to the budget's deadline.  ``span`` is the caller's
        open ``query`` span: the worker's plan/execute trees graft under
        it.  Library errors come back error-marked, as from
        :func:`~repro.parallel.executor._safe_search`.
        """
        if entered is None:
            entered = time.perf_counter()
        effective = budget if budget is not None else query.budget
        remaining = None
        if effective is not None and effective.deadline_seconds is not None:
            waited = time.perf_counter() - entered
            remaining = max(0.0, effective.deadline_seconds - waited)
        # A deadline already spent never occupies a worker.
        worker = self._acquire(remaining) if remaining != 0.0 else None
        if self._wait_seconds is not None:
            self._wait_seconds.observe(time.perf_counter() - entered)

        def answer(query: UOTSQuery, budget: SearchBudget | None) -> SearchResult:
            result = None
            if worker is not None:
                result = self._on_worker(worker, query, budget, span)
            if result is None:
                # No live worker, the deadline ran out in the queue, or the
                # worker died mid-query: answer in process.
                result = _safe_search(self._searcher, query, budget)
                if worker is not None:
                    result.stats.executor = "sequential-fallback"
                    result.stats.retries = 1
            return result

        return _charged_search(answer, query, effective, entered)

    def _acquire(self, timeout: float | None) -> _Worker | None:
        """An idle worker, waiting up to ``timeout`` for one; ``None`` when
        no worker is alive or the wait ran out."""
        with self._cond:
            self._cond.wait_for(lambda: self._idle or not self._workers, timeout)
            if not self._idle:
                return None
            worker = self._idle.pop()
            self.dispatched[worker.index] += 1
            return worker

    def _on_worker(
        self, worker: _Worker, query: UOTSQuery, budget, span: Span | None
    ) -> SearchResult | None:
        """One round trip on a held worker; ``None`` when it died."""
        config = harvest.harvest_config()
        try:
            worker.send(("search", query, budget, config))
            result, spans = worker.conn.recv()
        except (EOFError, OSError):
            self._bury(worker, fell_back=True)
            tracer = current_tracer()
            tracer.event("worker_crash", stranded=1, worker_pid=worker.process.pid)
            if config is not None:
                # Whatever the task had recorded died with the worker.
                tracer.event("telemetry_lost", tasks=1)
            tracer.event("sequential_fallback", queries=1)
            return None
        with self._cond:
            if worker in self._workers:  # not closed meanwhile
                self._idle.append(worker)
                self._cond.notify()
        result.stats.executor = "fork"
        if span is not None:
            span.update({"forked": True, "worker_pid": worker.process.pid})
        harvest.graft_telemetry(current_tracer(), span, spans)
        return result

    def _bury(self, worker: _Worker, fell_back: bool = False) -> None:
        """Drop a dead worker; waiters re-check whether any is left."""
        with self._cond:
            self.fallbacks += fell_back
            if worker in self._workers:
                self._workers.remove(worker)
            if worker in self._idle:
                self._idle.remove(worker)
            self._cond.notify_all()
        worker.conn.close()
        worker.process.join(timeout=1.0)

    # ---------------------------------------------------------- replication
    def _replicate(self, event) -> None:
        """Mutation listener: the same write, down every worker's pipe."""
        if event.kind == "add":
            message = ("add", self._database.get(event.trajectory_id))
        else:
            message = ("remove", event.trajectory_id)
        with self._replicate_lock:
            for worker in list(self._workers):
                try:
                    worker.send(message)
                except OSError:
                    self._bury(worker)

    # ------------------------------------------------------------ lifecycle
    def close(self) -> None:
        """Stop every worker and wait for it (killing stragglers after 2 s).

        In-flight searches finish first — a worker reads ``stop`` after the
        query it is on — and later :meth:`search` calls answer in process.
        """
        with self._cond:
            workers, self._workers = self._workers, []
            self._idle.clear()
            self._cond.notify_all()
        self._database.remove_mutation_listener(self._replicate)
        for worker in workers:
            try:
                worker.send(("stop",))
            except OSError:
                pass  # already gone
        for worker in workers:
            worker.process.join(timeout=2.0)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join()
            worker.conn.close()

    def _abandon(self) -> None:
        """In a forked child: this handle can no longer reach any worker."""
        self._cond = threading.Condition()
        for worker in self._workers:
            worker.conn.close()
        self._workers = []
        self._idle.clear()

    def __enter__(self) -> "SearchWorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
