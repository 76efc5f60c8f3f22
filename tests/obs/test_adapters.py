"""Adapters: stats objects publish into the registry."""

import pytest

from repro.core.query import UOTSQuery
from repro.core.results import SearchStats
from repro.obs.adapters import bind_buffer_stats, bind_fault_injector
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.parallel.executor import fork_available
from repro.resilience.faults import FaultInjector, FaultPolicy
from repro.service import QueryService
from repro.service.service import _WORK_SERIES
from repro.storage.buffer import BufferStats
from tests.conftest import series

QUERIES = [
    UOTSQuery.create([5, 210], "park", k=3),
    UOTSQuery.create([0, 399], "seafood", lam=0.3, k=3),
]


class TestSearchStatsAdapter:
    """The service's table from ``SearchStats`` fields to work series."""

    def test_every_declared_field_exists_on_search_stats(self):
        stats = SearchStats()
        for group in _WORK_SERIES:
            for field, name, _, _ in group:
                assert hasattr(stats, field), field
                assert name.endswith("_total"), name

    def test_totals_mirrored_live(self, database):
        service = QueryService(database, "collaborative")
        expanded = 0
        for query in QUERIES:
            expanded += service.submit(query).stats.expanded_vertices
            # Written as each answer is recorded: no collector, no lag.
            assert series(service, "repro_search_expanded_vertices_total") == expanded
        assert expanded > 0

    def test_defaults_to_process_registry(self, database):
        mine = MetricsRegistry()
        previous = set_registry(mine)
        try:
            QueryService(database, "collaborative", metrics=True).submit(QUERIES[0])
            assert series(mine, "repro_search_expanded_vertices_total") > 0
        finally:
            set_registry(previous)


class TestStorageAdapters:
    def test_buffer_stats(self):
        registry = MetricsRegistry()
        stats = BufferStats()
        bind_buffer_stats(stats, registry)
        stats.hits = 8
        stats.misses = 2
        stats.retries = 1
        registry.collect()
        assert registry.counter("repro_storage_page_hits_total").value() == 8
        assert registry.counter("repro_storage_read_retries_total").value() == 1
        ratio = registry.gauge("repro_storage_page_hit_ratio")
        assert ratio.value() == pytest.approx(0.8)

    def test_fault_injector(self):
        registry = MetricsRegistry()
        injector = FaultInjector(FaultPolicy(seed=1))
        bind_fault_injector(injector, registry)
        injector.injected_transients = 4
        injector.observed_reads = 30
        injector.corrupted_pages.extend([2, 9])
        registry.collect()
        assert (
            registry.counter("repro_faults_injected_transients_total").value() == 4
        )
        assert registry.counter("repro_faults_observed_reads_total").value() == 30
        assert registry.counter("repro_faults_corrupted_pages_total").value() == 2


class TestSharedRegistry:
    """Services sharing one registry export one sum per series, not
    competing totals that overwrite each other and make counters regress."""

    @pytest.mark.skipif(not fork_available(), reason="needs a fork platform")
    def test_two_cached_and_two_pooled_services_export_their_sums(self, database):
        registry = MetricsRegistry()
        cached = [
            QueryService(database, "scan", metrics=registry, result_cache=16)
            for _ in range(2)
        ]
        pooled = [
            QueryService(database, "scan", metrics=registry, pool=pool)
            for pool in (2, 1)
        ]
        try:
            for _ in range(3):
                cached[0].submit(QUERIES[0])
            cached[1].submit(QUERIES[1])
            pooled[0].execute_many(QUERIES * 2)
            pooled[1].submit(QUERIES[0])
            registry.render_prometheus()
            cached[0].submit(QUERIES[0])
            text = registry.render_prometheus()
        finally:
            for service in pooled:
                service.close()
        assert series(registry, "repro_service_result_cache_hits_total") == 3
        assert series(registry, "repro_service_result_cache_misses_total") == 2
        assert series(registry, "repro_service_result_cache_entries") == 2
        assert "repro_pool_workers 3" in text
        dispatched = registry.counter("repro_pool_dispatched_total")
        assert dispatched.value(worker="0") + dispatched.value(worker="1") == 5
        assert dispatched.value(worker="0") >= 1
        registry.render_prometheus()  # after close: no regression either
        assert registry.gauge("repro_pool_workers").value() == 0
        assert series(registry, "repro_service_inflight") == 0

    def test_a_cache_two_services_share_counts_once(self, database):
        registry = MetricsRegistry()
        first = QueryService(database, "scan", metrics=registry, result_cache=16)
        shared = QueryService(
            database, "scan", metrics=registry, result_cache=first.result_cache
        )
        first.submit(QUERIES[0])
        shared.submit(QUERIES[0])
        registry.render_prometheus()
        assert series(registry, "repro_service_result_cache_hits_total") == 1
        assert series(registry, "repro_service_result_cache_misses_total") == 1
