"""The async bridge: equivalence with the sync service, cancellation
safety, the pending cap, and lifecycle.  No HTTP and no pydantic here —
this layer is stdlib-only by design."""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.core.query import UOTSQuery
from repro.errors import GatewayError, GatewaySaturatedError
from repro.gateway import AsyncQueryService
from repro.gateway.aservice import GATEWAY_EXECUTOR_LABEL
from repro.resilience.budget import SearchBudget
from repro.service.admission import AdmissionController
from repro.service.policy import AdmissionPolicy
from repro.service.service import QueryService
from tests.conftest import series


def _query(seed: int = 0, k: int = 3) -> UOTSQuery:
    return UOTSQuery.create(
        locations=[3 + seed, 47 - seed], preference="river cafe", k=k
    )


def _run(coro):
    return asyncio.run(coro)


def test_submit_matches_sync_submit(gateway_database):
    """Same query, same database, same tuning -> identical ranking."""
    sync_service = QueryService(gateway_database, "collaborative")
    async_service = QueryService(gateway_database, "collaborative")
    gateway = AsyncQueryService(async_service, max_workers=2)

    async def go():
        try:
            return await gateway.submit(_query())
        finally:
            await gateway.close()

    bridged = _run(go())
    direct = sync_service.submit(_query())
    assert bridged.ids == direct.ids
    assert bridged.scores == direct.scores
    assert bridged.exact == direct.exact
    assert bridged.stats.executor == GATEWAY_EXECUTOR_LABEL


def test_result_cache_hit_served_on_loop(gateway_database):
    service = QueryService(gateway_database, "collaborative", result_cache=8)
    gateway = AsyncQueryService(service, max_workers=2)

    async def go():
        try:
            first = await gateway.submit(_query())
            second = await gateway.submit(_query())
            return first, second
        finally:
            await gateway.close()

    first, second = _run(go())
    assert first.stats.cache == ""
    assert second.stats.cache == "result"
    assert second.ids == first.ids
    assert service.result_cache.stats.hits == 1


def test_rejection_comes_back_as_error_result_not_exception(gateway_database):
    controller = AdmissionController(AdmissionPolicy(max_inflight=1))
    service = QueryService(gateway_database, "collaborative", admission=controller)
    gateway = AsyncQueryService(service, max_workers=2)

    async def go():
        # Hold the only admission slot from a plain thread, then submit.
        decision = controller.admit()
        assert decision.admitted
        try:
            return await gateway.submit(_query())
        finally:
            controller.release(decision)
            await gateway.close()

    result = _run(go())
    assert result.error is not None and "AdmissionError" in result.error
    assert series(service, "repro_service_queries_total", outcome="rejected") == 1
    assert controller.inflight == 0


def test_saturated_bridge_raises_before_touching_admission(gateway_database):
    service = QueryService(gateway_database, "collaborative")
    gateway = AsyncQueryService(service, max_workers=1, max_pending=1)
    release = threading.Event()

    async def go():
        loop = asyncio.get_running_loop()
        # Occupy the single worker + the single pending slot.
        blocker = loop.run_in_executor(gateway._executor, release.wait)
        gateway._pending = 1  # the blocker stands in for a bridged call
        try:
            with pytest.raises(GatewaySaturatedError):
                await gateway.submit(_query())
            assert gateway.saturated
        finally:
            gateway._pending = 0
            release.set()
            await blocker
            await gateway.close()

    _run(go())
    assert series(service, "repro_service_queries_total") == 0
    assert service.admission.inflight == 0


def test_cached_answer_served_while_bridge_saturated(gateway_database):
    """The order is probe -> saturation -> admit: a hit never needs the
    bridge, while a 503'd miss has already been counted by the probe."""
    service = QueryService(gateway_database, "collaborative", result_cache=8)
    gateway = AsyncQueryService(service, max_workers=1, max_pending=1)
    release = threading.Event()

    async def go():
        warm = await gateway.submit(_query())
        loop = asyncio.get_running_loop()
        blocker = loop.run_in_executor(gateway._executor, release.wait, 30)
        gateway._pending = 1  # the blocker stands in for a bridged call
        try:
            hit = await gateway.submit(_query())
            with pytest.raises(GatewaySaturatedError):
                await gateway.submit(_query(seed=1))
        finally:
            gateway._pending = 0
            release.set()
            await blocker
            await gateway.close()
        return warm, hit

    warm, hit = _run(go())
    assert hit.stats.cache == "result"
    assert hit.ids == warm.ids
    assert service.result_cache.stats.hits == 1
    assert service.result_cache.stats.misses == 2  # the warm-up and the 503
    assert series(service, "repro_service_queries_total", outcome="rejected") == 0


def test_bridge_queue_wait_counts_against_deadline_and_latency(gateway_database):
    """A query queued behind a busy bridge thread is charged that wait: its
    50 ms deadline runs out in the queue, and the recorded latency covers
    the queued time (both run from the probe's clock)."""
    service = QueryService(gateway_database, "collaborative")
    gateway = AsyncQueryService(service, max_workers=1)
    release = threading.Event()
    queued_seconds = 0.2

    async def go():
        loop = asyncio.get_running_loop()
        blocker = loop.run_in_executor(gateway._executor, release.wait, 30)
        task = asyncio.create_task(
            gateway.submit(_query(), SearchBudget.from_millis(50))
        )
        await asyncio.sleep(queued_seconds)
        release.set()
        await blocker
        try:
            return await task
        finally:
            await gateway.close()

    result = _run(go())
    assert result.error is None
    assert not result.exact
    assert "deadline" in result.degradation_reason
    assert "reached" in result.degradation_reason
    assert series(service, "repro_service_queries_total") == 1
    assert series(service, "repro_service_latency_seconds_sum") >= queued_seconds


def test_cancelled_awaiter_leaks_no_admission_slot(gateway_database):
    """Cancel the awaiting task mid-search: the bridged call must finish
    on its worker thread and release its admission slot."""
    controller = AdmissionController(AdmissionPolicy(max_inflight=4))
    service = QueryService(gateway_database, "collaborative", admission=controller)
    gateway = AsyncQueryService(service, max_workers=2)
    # Gate the bridged execution so the cancel deterministically lands
    # while the search holds its admission slot on the worker thread.
    execution_started = threading.Event()
    proceed = threading.Event()
    original = service._execute_admitted

    def gated(*args, **kwargs):
        execution_started.set()
        assert proceed.wait(timeout=30)
        return original(*args, **kwargs)

    service._execute_admitted = gated

    async def go():
        task = asyncio.create_task(gateway.submit(_query(k=5)))
        while not execution_started.is_set():
            await asyncio.sleep(0.001)
        assert controller.inflight == 1
        task.cancel()
        with pytest.raises(asyncio.CancelledError):
            await task
        proceed.set()
        # Drain: close waits for the abandoned search to complete.
        await gateway.close()

    _run(go())
    assert controller.inflight == 0, "cancellation leaked an admission slot"
    assert gateway.pending == 0
    # The abandoned query still ran to completion and was recorded.
    assert series(service, "repro_service_queries_total") == 1


def test_submit_many_bridges_execute_many(gateway_database):
    service = QueryService(gateway_database, "collaborative")
    gateway = AsyncQueryService(service, max_workers=2)
    queries = [_query(seed) for seed in range(3)]

    async def go():
        try:
            return await gateway.submit_many(queries)
        finally:
            await gateway.close()

    results = _run(go())
    direct = QueryService(gateway_database, "collaborative").execute_many(queries)
    assert [r.ids for r in results] == [r.ids for r in direct]


def test_concurrent_submissions_all_complete_and_agree(gateway_database):
    """A burst of concurrent awaits: every result matches the sequential
    answer (shared caches and stats survive the concurrency)."""
    service = QueryService(gateway_database, "collaborative", result_cache=32)
    gateway = AsyncQueryService(service, max_workers=4)
    queries = [_query(seed % 4) for seed in range(16)]

    async def go():
        try:
            return await asyncio.gather(
                *(gateway.submit(query) for query in queries)
            )
        finally:
            await gateway.close()

    results = _run(go())
    reference = QueryService(gateway_database, "collaborative")
    for query, result in zip(queries, results):
        assert result.ids == reference.submit(query).ids
    assert series(service, "repro_service_queries_total") == 16
    assert service.admission.inflight == 0
    assert gateway.pending == 0


def test_closed_gateway_refuses_submissions(gateway_database):
    service = QueryService(gateway_database, "collaborative")
    gateway = AsyncQueryService(service, max_workers=1)

    async def go():
        await gateway.close()
        assert not gateway.healthy()
        ready, reason = gateway.ready()
        assert not ready and reason == "closed"
        with pytest.raises(GatewayError):
            await gateway.submit(_query())

    _run(go())


def test_ready_reflects_saturation(gateway_database):
    service = QueryService(gateway_database, "collaborative")
    gateway = AsyncQueryService(service, max_workers=1, max_pending=1)
    assert gateway.ready() == (True, "ok")
    gateway._pending = 1  # stands in for one bridged call
    assert gateway.ready() == (False, "saturated")
    gateway._pending = 0
    assert gateway.ready() == (True, "ok")
    _run(gateway.close())


def test_constructor_validates_bounds(gateway_database):
    service = QueryService(gateway_database, "collaborative")
    with pytest.raises(GatewayError):
        AsyncQueryService(service, max_workers=0)
    with pytest.raises(GatewayError):
        AsyncQueryService(service, max_workers=1, max_pending=0)
