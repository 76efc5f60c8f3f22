"""Deprecation shim: the pre-registry stats surface stays stable.

The metrics registry re-backs the dashboards, but the stats classes are
public API that earlier PRs (and external callers) read directly —
``result.stats.executor``, ``SearchStats`` field access, ``ServiceStats``
snapshots.  This module locks that attribute surface so wiring the
registry never silently renames or drops a field.
"""

import dataclasses

import pytest

from repro.core.query import UOTSQuery
from repro.core.results import SearchStats
from repro.obs.adapters import bind_service_stats
from repro.obs.metrics import MetricsRegistry
from repro.service import QueryService, ServiceStats

#: The frozen public field list of SearchStats (order included).
SEARCH_STATS_FIELDS = (
    "visited_trajectories",
    "expanded_vertices",
    "similarity_evaluations",
    "pruned_trajectories",
    "text_candidates",
    "elapsed_seconds",
    "refinements",
    "retries",
    "degraded_queries",
    "failed_queries",
    "executor",
    "expand_batches",
    "alt_pruned",
    "distance_cache_hits",
    "distance_cache_misses",
    "text_cache_hits",
    "text_cache_misses",
    "cache",
    "shards_planned",
    "shards_executed",
    "shards_pruned",
    "shard_seconds",
    "shard_critical_seconds",
    "estimated_cost",
)

#: The frozen key set of ServiceStats.snapshot().
SERVICE_SNAPSHOT_KEYS = {
    "queries_served",
    "exact_results",
    "degraded_results",
    "failed_queries",
    "rejected_queries",
    "result_cache_hits",
    "p50_ms",
    "p95_ms",
    "distance_cache_hit_rate",
    "text_cache_hit_rate",
    "expanded_vertices",
    "refinements",
}


class TestSearchStatsSurface:
    def test_field_list_is_locked(self):
        fields = tuple(f.name for f in dataclasses.fields(SearchStats))
        assert fields == SEARCH_STATS_FIELDS

    def test_fields_default_to_zeroes(self):
        stats = SearchStats()
        for field in SEARCH_STATS_FIELDS:
            if field in ("executor", "cache"):
                assert getattr(stats, field) == ""
            else:
                assert getattr(stats, field) == 0

    def test_executor_field_still_set_by_batches(self, database):
        service = QueryService(database, "collaborative")
        queries = [UOTSQuery.create([5, 210], "park", k=3)] * 2
        results = service.execute_many(queries, workers=1)
        assert all(r.stats.executor == "sequential" for r in results)

    def test_shard_timing_fields_still_filled_by_sharded(self, database):
        """``benchmarks/e2e/tracing.py`` reads these four by name."""
        service = QueryService(database, "sharded", shards=4)
        stats = service.submit(UOTSQuery.create([5, 210], "park", k=3)).stats
        assert stats.shard_seconds > 0.0
        # One process, one shard at a time: the critical path is the sum.
        assert stats.shard_critical_seconds == stats.shard_seconds
        assert stats.executor == "" and stats.retries == 0

    def test_merge_still_accumulates(self):
        a = SearchStats(expanded_vertices=3, retries=1)
        b = SearchStats(expanded_vertices=4, executor="fork")
        a.merge(b)
        assert a.expanded_vertices == 7
        assert a.retries == 1
        assert a.executor == "fork"


class TestServiceStatsSurface:
    def test_public_attributes_exist(self):
        stats = ServiceStats()
        assert stats.queries_served == 0
        assert stats.exact_results == 0
        assert stats.degraded_results == 0
        assert stats.failed_queries == 0
        assert stats.rejected_queries == 0
        assert isinstance(stats.totals, SearchStats)
        assert stats.p50_ms == 0.0
        assert stats.p95_ms == 0.0
        assert stats.distance_cache_hit_rate == 0.0
        assert stats.text_cache_hit_rate == 0.0
        assert stats.latency_ms(50.0) == 0.0

    def test_snapshot_keys_are_locked(self):
        assert set(ServiceStats().snapshot()) == SERVICE_SNAPSHOT_KEYS

    def test_registry_rebacking_preserves_values(self, database):
        """The registry mirrors the stats object; it never replaces it."""
        registry = MetricsRegistry()
        service = QueryService(database, "collaborative", metrics=registry)
        query = UOTSQuery.create([5, 210], "park lakeside", k=3)
        service.submit(query)
        service.submit(query)
        stats = service.stats
        assert stats.queries_served == 2  # old surface still live
        registry.collect()
        outcomes = registry.counter("repro_service_queries_total")
        assert outcomes.value(outcome="exact") == stats.exact_results
        totals = registry.counter("repro_search_expanded_vertices_total")
        assert totals.value() == stats.totals.expanded_vertices

    def test_describe_still_renders(self):
        text = ServiceStats().describe()
        assert "queries served" in text
        assert "p50" in text


class TestAdapterIsReadOnly:
    def test_collect_does_not_mutate_stats(self):
        registry = MetricsRegistry()
        stats = ServiceStats()
        bind_service_stats(stats, registry)
        before = stats.snapshot()
        registry.collect()
        registry.render_prometheus()
        assert stats.snapshot() == before
