"""``QueryService(pool=...)``: what moves to a worker and what stays home."""

import inspect
import multiprocessing
import os
from pathlib import Path

import pytest

from repro.core.query import UOTSQuery
from repro.gateway.aservice import AsyncQueryService
from repro.obs.metrics import MetricsRegistry
from repro.parallel import pool as pool_module
from repro.parallel.executor import fork_available, parallel_search
from repro.service import AdmissionController, QueryService
from repro.service.service import _WORK_SERIES
from tests.conftest import series

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="fork start method not available"
)

QUERY = UOTSQuery.create([5, 210], ["park"], lam=0.7, k=5)
BATCH = [
    UOTSQuery.create([i * 7 % 400, (i * 31 + 5) % 400], ["park"], k=3)
    for i in range(6)
]


def assert_work_counted_once(registry: MetricsRegistry, results) -> None:
    """Each work series is the sum of its result-stat field, and no second
    copy of the work (or of the caches) is exported."""
    for group in _WORK_SERIES:
        for field, name, _, labels in group:
            exported = series(registry, name, **labels)
            assert exported == pytest.approx(
                sum(getattr(r.stats, field) for r in results)
            ), field
    lines = registry.render_prometheus().splitlines()
    assert not [l for l in lines if l.startswith(("repro_worker_", "repro_cache_"))]


def test_a_default_service_has_no_pool_and_forks_nothing(database):
    service = QueryService(
        database, "scan", result_cache=8, metrics=MetricsRegistry()
    )
    assert service.pool is None
    service.submit(QUERY)
    children = Path(f"/proc/{os.getpid()}/task/{os.getpid()}/children")
    before, forked = children.read_text(), multiprocessing.active_children()
    results = service.execute_many(BATCH)
    assert children.read_text() == before
    assert multiprocessing.active_children() == forked
    assert {result.stats.executor for result in results} == {"sequential"}
    assert "repro_pool" not in service.metrics.render_prometheus()
    service.close()  # a no-op without a pool


def test_the_retry_knob_is_gone():
    for function in (QueryService.execute_many, parallel_search):
        assert "max_task_retries" not in inspect.signature(function).parameters


def test_no_call_after_construction_sizes_or_forks_an_executor():
    for function in (
        QueryService.execute_many,
        QueryService._submit,
        QueryService._execute_admitted,
        AsyncQueryService.submit_many,
    ):
        parameters = inspect.signature(function).parameters
        assert not {"workers", "pool"} & set(parameters), function.__qualname__


class PeakAdmission(AdmissionController):
    """An unbounded controller that records the most slots held at once."""

    def __init__(self):
        super().__init__()
        self.peak = 0

    def admit(self, *args, **kwargs):
        decision = super().admit(*args, **kwargs)
        self.peak = max(self.peak, self.inflight)
        return decision


def test_a_batch_fans_out_over_exactly_the_pools_workers(database):
    admission = PeakAdmission()
    service = QueryService(database, "scan", admission=admission, pool=2)
    queries = [
        UOTSQuery.create([i * 13 % 400, (i * 29 + 3) % 400], ["park"], k=3)
        for i in range(12)
    ]
    try:
        results = service.execute_many(queries)
    finally:
        service.close()
    assert admission.peak == 2
    assert {result.stats.executor for result in results} == {"fork"}
    assert sum(service.pool.dispatched) == len(queries)


def test_a_pooled_query_traces_plan_and_execute_under_its_query_span(database):
    service = QueryService(
        database, "collaborative", pool=2, trace=True, metrics=MetricsRegistry()
    )
    try:
        result = service.submit(QUERY)
        root = service.tracer.last_trace()
        assert root.name == "query" and root.attributes["forked"] is True
        assert root.attributes["worker_pid"] in service.pool.worker_pids
        assert [child.name for child in root.children] == ["plan", "execute"]
        # Recording stayed in the parent.
        assert series(service, "repro_service_queries_total") == 1
        assert result.stats.executor == "fork"
        rendered = service.metrics.render_prometheus()
        assert 'repro_executor_queries_total{path="fork"} 1' in rendered
        assert_work_counted_once(service.metrics, [result])
    finally:
        service.close()


def test_a_serve_like_service_sends_no_harvest_config_and_counts_work_once(
    database, monkeypatch
):
    """``repro serve`` binds metrics and no tracer: its workers run the bare
    search, and each miss is counted once, from its result stats."""
    configs = []
    send = pool_module._Worker.send

    def spy(worker, message):
        if message[0] == "search":
            configs.append(message[3])
        send(worker, message)

    monkeypatch.setattr(pool_module._Worker, "send", spy)
    registry = MetricsRegistry()
    service = QueryService(
        database, "collaborative", result_cache=8, metrics=registry, pool=2
    )
    try:
        results = [service.submit(query) for query in BATCH]
        assert {result.stats.executor for result in results} == {"fork"}
        assert configs == [None] * len(BATCH)
        paths = registry.counter("repro_executor_queries_total")
        assert paths.value(path="fork") == len(BATCH)
        assert_work_counted_once(registry, results)
    finally:
        service.close()


def test_a_batch_never_runs_wider_than_the_admission_cap(database):
    service = QueryService(database, "scan", admission=2, pool=3)
    try:
        results = service.execute_many(BATCH)
        assert all(result.ok for result in results)
        assert series(service, "repro_service_queries_total", outcome="rejected") == 0
        assert {result.stats.executor for result in results} == {"fork"}
        assert sum(service.pool.dispatched) == len(BATCH)
        assert service.admission.inflight == 0
    finally:
        service.close()
