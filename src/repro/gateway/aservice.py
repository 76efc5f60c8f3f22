"""The asyncio bridge: event-loop front half, thread-pool back half.

:class:`AsyncQueryService` puts an ``await``-able face on a synchronous
:class:`~repro.service.service.QueryService`.  The split follows the
cost structure of one served query:

- the **cheap, shared-state half** — the service's ``_probe`` (result
  cache) and ``_admit`` (admission decision, including the cost-policy
  plan) stages — runs directly on the event loop.  These touch the
  service's shared structures (result cache, admission counters, stats),
  all of which are internally locked, and complete in microseconds, so
  they never block the loop noticeably and rejected/cached queries never
  wait behind a busy worker thread;
- the **expensive, CPU-bound half** — the service's ``_execute_admitted``
  stage — is bridged onto a bounded
  :class:`~concurrent.futures.ThreadPoolExecutor`; it owns the admission
  slot it was handed and releases it on every path, and it charges the
  time the query queued for a bridge thread to the deadline and to the
  recorded latency (both run from the probe's clock).  The bridge
  threads bound the requests in flight and overlap their I/O; they do
  **not** make searches parallel —
  SciPy's Dijkstra holds the GIL (two threads of full SSSPs measure 0.98x
  one).  Search parallelism is carried by processes: the service's one
  executor is the :class:`~repro.parallel.pool.SearchWorkerPool` it
  forked in its constructor, and a bridge thread only waits on a
  worker's pipe while the search runs on another core.

State-ownership rules (DESIGN.md §14): the event loop owns the gateway's
own mutable state (the pending counter); the service's shared state is
owned by its internal locks and may be touched from any thread; per-query
state (the decision, the result) is owned by exactly one thread at a time
and handed over through the executor future.

Cancellation safety: the bridged call is wrapped in
:func:`asyncio.shield`.  A disconnecting client cancels the *await*, not
the search — an admitted query always runs to completion on its worker
thread, so the admission slot is always released by ``_execute_admitted``
's ``finally`` and the in-flight gauge cannot leak.  (Abandoning the
result is deliberate: it still warms the result cache.)

The gateway adds one load bound of its own, ``max_pending``: the number
of bridged calls allowed to be queued or running on the pool.  Admission
control bounds what the *service* accepts; ``max_pending`` bounds how
much work may even *wait* for a worker thread, so a stalled pool turns
into fast 503s instead of an unbounded queue of growing latencies.

This module imports only the stdlib and ``repro.service`` — no pydantic,
no HTTP — so ``repro.gateway`` stays import-light (the HTTP layer in
:mod:`repro.gateway.app` is what needs pydantic).
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from typing import Sequence

from repro.core.query import UOTSQuery
from repro.core.results import SearchResult
from repro.errors import GatewayError, GatewaySaturatedError
from repro.resilience.budget import SearchBudget
from repro.service.service import QueryService

__all__ = ["AsyncQueryService"]

#: Executor label stamped on results served through the async bridge
#: (visible in ``SearchStats.executor`` and the per-path metrics).
GATEWAY_EXECUTOR_LABEL = "gateway-thread"


class AsyncQueryService:
    """An ``await``-able front-end over one :class:`QueryService`.

    Parameters
    ----------
    service:
        The synchronous service to serve.  Shared: the same instance may
        keep answering CLI/batch callers concurrently.
    max_workers:
        Bridge threads: the bound on searches in flight at once (each
        thread waits on one search — on a pool worker's pipe, or runs it
        under the GIL when the service has no pool).  Defaults to 8.
        Threads do not add search parallelism; the service's worker pool
        does (``repro serve`` forks ``min(usable CPUs, max_workers)``
        workers, at least one).
    max_pending:
        Bound on bridged calls queued-or-running; ``None`` derives
        ``4 * max_workers`` (a small queue smooths bursts without letting
        latency grow unboundedly).  ``0`` is rejected — a gateway that can
        never serve is a configuration error.
    """

    def __init__(
        self,
        service: QueryService,
        max_workers: int = 8,
        max_pending: int | None = None,
    ):
        if max_workers < 1:
            raise GatewayError(f"max_workers must be >= 1, got {max_workers}")
        if max_pending is None:
            max_pending = 4 * max_workers
        if max_pending < 1:
            raise GatewayError(f"max_pending must be >= 1, got {max_pending}")
        self._service = service
        self._max_pending = max_pending
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="uots-gateway"
        )
        # Mutated only from event-loop callbacks (submit and the future's
        # done-callback both run on the loop), so no lock is needed —
        # single-threaded ownership is the loop's whole point.
        self._pending = 0
        self._closed = False

    # ------------------------------------------------------------ properties
    @property
    def service(self) -> QueryService:
        """The underlying synchronous service."""
        return self._service

    @property
    def pending(self) -> int:
        """Bridged calls currently queued or running on the pool."""
        return self._pending

    @property
    def max_pending(self) -> int:
        """The gateway's bridged-call bound."""
        return self._max_pending

    @property
    def saturated(self) -> bool:
        """Whether a new bridged call would be turned away right now."""
        return self._pending >= self._max_pending

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run (no further submissions)."""
        return self._closed

    def healthy(self) -> bool:
        """Liveness: the bridge can still accept work at all."""
        return not self._closed

    def ready(self) -> tuple[bool, str]:
        """Readiness and a reason slug for the ``/readyz`` body.

        Not ready when closed or when the bridge is saturated.
        """
        if self._closed:
            return False, "closed"
        if self.saturated:
            return False, "saturated"
        return True, "ok"

    # ------------------------------------------------------------- serving
    async def submit(
        self,
        query: UOTSQuery,
        budget: SearchBudget | None = None,
        tenant: str | None = None,
        priority: str | None = None,
    ) -> SearchResult:
        """Answer one query; the async sibling of :meth:`QueryService.submit`.

        Semantics are identical (cache hits before admission, rejections
        as error-marked results, library errors contained); only *where*
        the stages run differs (see the module docstring).  The order is
        probe → saturation check → admit: a cached answer is served even
        while the bridge is saturated, and a saturated bridge raises
        :class:`~repro.errors.GatewaySaturatedError` after the probe (a
        miss is counted in the cache stats) but before admission.
        """
        if self._closed:
            raise GatewayError("gateway is closed")
        service = self._service
        started, key, hit = service._probe(query, budget, tenant, priority)
        if hit is not None:
            return hit
        if self.saturated:
            raise GatewaySaturatedError(self._pending, self._max_pending)
        decision, rejected = service._admit(query, started, tenant, priority)
        if rejected is not None:
            return rejected
        return await self._bridge(
            service._execute_admitted, query, budget, decision, key, started,
            GATEWAY_EXECUTOR_LABEL, tenant, priority,
        )

    async def submit_many(
        self,
        queries: Sequence[UOTSQuery],
        budget: SearchBudget | None = None,
        tenant: str | None = None,
        priority: str | None = None,
    ) -> list[SearchResult]:
        """Bridge a whole batch through :meth:`QueryService.execute_many`.

        The batch rides as *one* bridged call; the service fans it out
        over the search worker pool it forked at start-up, exactly as for
        a library batch caller.  Nothing in a request sizes or forks an
        executor.
        """
        if self._closed:
            raise GatewayError("gateway is closed")
        if self.saturated:
            raise GatewaySaturatedError(self._pending, self._max_pending)
        return await self._bridge(
            self._service.execute_many, list(queries), budget, tenant, priority
        )

    async def explain(self, query: UOTSQuery) -> str:
        """Bridge :meth:`QueryService.explain` (plans, never executes)."""
        if self._closed:
            raise GatewayError("gateway is closed")
        if self.saturated:
            raise GatewaySaturatedError(self._pending, self._max_pending)
        return await self._bridge(self._service.explain, query)

    async def _bridge(self, fn, *args):
        """Run ``fn(*args)`` on the pool, shielded from caller cancellation.

        The pending counter is incremented here and decremented by the
        future's done-callback — both on the event loop — so the counter
        tracks queued *and* running calls, including ones whose awaiter
        has already been cancelled (the search still occupies a worker
        thread, so it must still count against ``max_pending``).
        """
        loop = asyncio.get_running_loop()
        self._pending += 1
        future = loop.run_in_executor(self._executor, fn, *args)
        future.add_done_callback(lambda _f: self._on_done())
        try:
            return await asyncio.shield(future)
        except asyncio.CancelledError:
            # Swallow nothing: the caller is cancelled, but the bridged
            # call runs to completion on its thread (admission slots are
            # released by _execute_admitted's finally, results still warm
            # the cache).  Suppress "exception never retrieved" noise.
            future.add_done_callback(lambda f: f.exception())
            raise

    def _on_done(self) -> None:
        self._pending -= 1

    # ------------------------------------------------------------ lifecycle
    async def close(self) -> None:
        """Drain the pool and refuse further submissions.

        Waits for in-flight bridged calls (they hold admission slots and
        must release them), then shuts the executor down.
        """
        if self._closed:
            return
        self._closed = True
        loop = asyncio.get_running_loop()
        # shutdown(wait=True) blocks until every queued call finishes —
        # run it off-loop so the loop can keep completing their futures.
        await loop.run_in_executor(None, self._executor.shutdown)

    async def __aenter__(self) -> "AsyncQueryService":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()
