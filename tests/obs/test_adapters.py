"""Adapters: the existing stats classes publish into the registry."""

import pytest

from repro.core.results import SearchResult, SearchStats
from repro.obs.adapters import (
    _SEARCH_FIELDS,
    bind_buffer_stats,
    bind_fault_injector,
    bind_search_stats,
    bind_service_stats,
)
from repro.obs.metrics import MetricsRegistry
from repro.resilience.faults import FaultInjector, FaultPolicy
from repro.service.stats import ServiceStats
from repro.storage.buffer import BufferStats


class TestSearchStatsAdapter:
    def test_every_declared_field_exists_on_search_stats(self):
        stats = SearchStats()
        for field in _SEARCH_FIELDS:
            assert hasattr(stats, field), field

    def test_totals_mirrored_live(self):
        registry = MetricsRegistry()
        stats = SearchStats()
        bind_search_stats(stats, registry)
        stats.expanded_vertices = 42
        stats.distance_cache_hits = 7
        stats.elapsed_seconds = 0.5
        registry.collect()
        counter = registry.counter("repro_search_expanded_vertices_total")
        assert counter.value() == 42
        hits = registry.counter("repro_search_cache_hits_total")
        assert hits.value(cache="distance") == 7
        elapsed = registry.counter("repro_search_elapsed_seconds_total")
        assert elapsed.value() == 0.5
        # Monotone accumulation keeps collecting cleanly.
        stats.expanded_vertices = 50
        registry.collect()
        assert counter.value() == 50

    def test_defaults_to_process_registry(self):
        from repro.obs.metrics import get_registry, set_registry

        mine = MetricsRegistry()
        previous = set_registry(mine)
        try:
            bind_search_stats(SearchStats())
            assert "repro_search_expanded_vertices_total" in mine
        finally:
            set_registry(previous)


class TestServiceStatsAdapter:
    def test_outcomes_and_percentiles(self):
        registry = MetricsRegistry()
        stats = ServiceStats()
        bind_service_stats(stats, registry)
        ok = SearchResult(items=[], exact=True)
        degraded = SearchResult(items=[], exact=False, degradation_reason="budget")
        stats.record(ok, 0.010)
        stats.record(degraded, 0.020)
        stats.record_rejection("inflight_cap")
        registry.collect()
        outcomes = registry.counter("repro_service_queries_total")
        assert outcomes.value(outcome="exact") == 1
        assert outcomes.value(outcome="degraded") == 1
        assert outcomes.value(outcome="rejected") == 1
        assert outcomes.value(outcome="failed") == 0
        p50 = registry.gauge("repro_service_latency_p50_seconds")
        assert 0.0 < p50.value() <= 0.020
        # The search totals ride along under repro_search_*.
        assert "repro_search_expanded_vertices_total" in registry


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
