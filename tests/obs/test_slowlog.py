"""Slow-query journal and plan-drift accounting (tentpole contract).

The journal keeps the worst-N queries with bounded state and monotone
admission counters; the service feeds it from its single recording path,
captures drift (measured work vs. the planner's ``estimated_cost``) into
per-algorithm lanes, and mirrors both through the metrics adapters.
"""

import pytest

from repro.core.query import UOTSQuery
from repro.core.results import SearchStats
from repro.obs.adapters import bind_slowlog, bind_tracer
from repro.obs.metrics import DRIFT_BUCKETS, LATENCY_BUCKETS, MetricsRegistry
from repro.obs.slowlog import SlowLogEntry, SlowQueryJournal
from repro.obs.trace import Tracer
from repro.perf.result_cache import query_fingerprint
from repro.service import QueryService
from tests.conftest import series

QUERY = UOTSQuery.create([5, 210], "park lakeside", k=3)


def _entry(latency_ms: float, **overrides) -> SlowLogEntry:
    defaults = dict(
        fingerprint=("q", latency_ms),
        algorithm="collaborative",
        latency_seconds=latency_ms / 1000.0,
        stats=SearchStats(expanded_vertices=10, similarity_evaluations=5),
    )
    defaults.update(overrides)
    return SlowLogEntry(**defaults)


class TestJournal:
    def test_worst_n_admission_keeps_the_slowest(self):
        journal = SlowQueryJournal(capacity=3)
        for ms in (5.0, 1.0, 9.0, 3.0, 7.0):
            journal.record(_entry(ms))
        kept = [e.latency_seconds * 1000.0 for e in journal.entries()]
        assert kept == [9.0, 7.0, 5.0]
        assert len(journal) == 3
        # 3.0 displaced 1.0, then 7.0 displaced 3.0: five admissions,
        # two evictions, and the ring converged on the true worst three.
        assert journal.recorded == 5
        assert journal.evicted == 2
        assert journal.worst_seconds() == pytest.approx(0.009)

    def test_threshold_rejects_mild_queries_outright(self):
        journal = SlowQueryJournal(capacity=4, threshold_ms=2.0)
        assert not journal.record(_entry(1.0))
        assert journal.record(_entry(2.5))
        assert len(journal) == 1
        assert journal.recorded == 1

    def test_would_record_matches_record(self):
        journal = SlowQueryJournal(capacity=2, threshold_ms=1.0)
        assert not journal.would_record(0.0005)  # under threshold
        assert journal.would_record(0.002)
        journal.record(_entry(5.0))
        journal.record(_entry(6.0))
        # Full ring: only strictly-worse latencies are worth capturing.
        assert not journal.would_record(0.004)
        assert not journal.would_record(0.005)
        assert journal.would_record(0.0055)

    def test_clear_keeps_the_monotone_counters(self):
        journal = SlowQueryJournal(capacity=2)
        journal.record(_entry(1.0))
        journal.record(_entry(2.0))
        journal.record(_entry(3.0))
        journal.clear()
        assert len(journal) == 0
        assert journal.recorded == 3
        assert journal.evicted == 1

    def test_describe_reports_held_count_even_when_top_sliced(self):
        journal = SlowQueryJournal(capacity=8)
        for ms in (1.0, 2.0, 3.0, 4.0):
            journal.record(_entry(ms))
        text = journal.describe(top=1)
        assert "4 of 8 slots" in text
        assert text.count("#") == 1  # only the worst entry rendered
        assert "latency:" in text

    def test_describe_empty(self):
        text = SlowQueryJournal(threshold_ms=2.5).describe()
        assert "empty" in text
        assert "2.5 ms" in text

    def test_entry_render_sections(self):
        entry = _entry(
            4.0,
            plan_text="plan line one\nplan line two",
            drift_ratio=1.5,
            stats=SearchStats(
                expanded_vertices=10,
                similarity_evaluations=5,
                estimated_cost=10.0,
                shards_planned=4,
                shards_executed=3,
                shards_pruned=1,
            ),
        )
        text = entry.render()
        assert "latency:      4.000 ms" in text
        assert "plan drift:   actual/estimated = 1.500" in text
        assert "shards:       4 planned, 3 executed, 1 pruned" in text
        assert "plan line two" in text
        assert "trace:" not in text  # no trace attached

    def test_plan_provider_resolves_once_at_render_time(self):
        calls = []
        entry = _entry(
            1.0, plan_provider=lambda: calls.append(1) or "deferred plan"
        )
        assert entry.plan_text == ""
        assert calls == []  # nothing paid until somebody reads
        first = entry.render()
        assert "deferred plan" in first
        entry.render()
        assert calls == [1]  # cached after the first resolution
        assert entry.plan_text == "deferred plan"

    def test_failing_plan_provider_degrades_to_no_plan_section(self):
        def explode():
            raise RuntimeError("database mutated underneath the query")

        entry = _entry(1.0, plan_provider=explode)
        text = entry.render()
        assert "plan:" not in text
        assert entry.plan_provider is None  # not retried forever

    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            SlowQueryJournal(capacity=0)
        with pytest.raises(ValueError):
            SlowQueryJournal(threshold_ms=-1.0)


class TestServiceDiagnostics:
    def test_drift_lane_recorded_per_algorithm(self, database):
        service = QueryService(database, "collaborative")
        stats = [service.submit(QUERY).stats for _ in range(2)]
        lane = {"algorithm": "collaborative"}
        assert series(service, "repro_plan_drift_ratio_count", **lane) == 2
        estimated = sum(s.estimated_cost for s in stats)
        actual = sum(s.expanded_vertices + s.similarity_evaluations for s in stats)
        assert series(service, "repro_plan_drift_estimated_units_total", **lane) == estimated
        assert series(service, "repro_plan_drift_actual_units_total", **lane) == actual
        assert series(service, "repro_plan_drift_ratio_count", algorithm="other") == 0

    def test_explain_includes_observed_drift_once_queries_ran(self, database):
        service = QueryService(database, "collaborative")
        before = service.explain(QUERY)
        assert "observed drift" not in before
        service.submit(QUERY)
        after = service.explain(QUERY)
        assert "observed drift: actual/estimated" in after
        assert "over 1 queries" in after

    def test_result_cache_hits_do_not_skew_drift(self, database):
        service = QueryService(database, "collaborative", result_cache=True)
        service.submit(QUERY)
        service.submit(QUERY)  # served from the result cache
        assert service.result_cache.stats.hits == 1
        assert (
            series(service, "repro_plan_drift_ratio_count", algorithm="collaborative")
            == 1
        )

    def test_service_journals_slow_queries_with_trace_and_drift(self, database):
        service = QueryService(database, "collaborative", trace=True, slowlog=True)
        result = service.submit(QUERY)
        assert result.ok
        entries = service.slowlog.entries()
        assert len(entries) == 1
        entry = entries[0]
        assert entry.fingerprint == query_fingerprint(
            QUERY, "collaborative", service._tuning_key
        )
        assert entry.algorithm == "collaborative"
        assert entry.latency_seconds > 0
        assert not entry.plan_text  # describe is lazy: nothing paid at serve
        assert entry.plan()  # ...and resolves to the plan text on read
        assert entry.plan_text  # ...which is cached for the next render
        assert entry.trace is not None and entry.trace.name == "query"
        assert entry.drift_ratio is not None and entry.drift_ratio > 0
        assert entry.error is None

    def test_high_threshold_journal_stays_empty(self, database):
        journal = SlowQueryJournal(threshold_ms=60_000.0)
        service = QueryService(database, "collaborative", slowlog=journal)
        service.submit(QUERY)
        assert len(journal) == 0

    def test_slowlog_capacity_shorthand(self, database):
        service = QueryService(database, "collaborative", slowlog=7)
        assert service.slowlog is not None
        assert service.slowlog.capacity == 7
        assert QueryService(database, "collaborative").slowlog is None

    def test_metrics_expose_diagnostics_series(self, database):
        registry = MetricsRegistry()
        service = QueryService(
            database, "collaborative",
            metrics=registry, trace=True, slowlog=True,
        )
        service.submit(QUERY)
        text = registry.render_prometheus()
        for name in (
            "repro_slowlog_entries 1",
            "repro_slowlog_recorded_total 1",
            "repro_slowlog_evicted_total 0",
            "repro_slowlog_threshold_seconds 0",
            "repro_slowlog_worst_seconds",
            "repro_trace_dropped_spans_total 0",
            "repro_trace_dropped_events_total 0",
            'repro_plan_drift_ratio_count{algorithm="collaborative"} 1',
        ):
            assert name in text, name
        assert 'repro_plan_drift_estimated_units_total{algorithm="collaborative"}' in text
        assert 'repro_plan_drift_actual_units_total{algorithm="collaborative"}' in text

    def test_latency_histogram_has_sub_millisecond_buckets(self, database):
        registry = MetricsRegistry()
        QueryService(database, "collaborative", metrics=registry)
        histogram = registry.histogram("repro_service_latency_seconds")
        assert histogram.buckets == tuple(sorted(LATENCY_BUCKETS))
        assert histogram.buckets[0] == pytest.approx(1e-05)
        assert sum(1 for b in histogram.buckets if b < 0.001) >= 5

    def test_drift_histogram_buckets_cover_under_and_over_estimation(self, database):
        registry = MetricsRegistry()
        service = QueryService(database, "collaborative", metrics=registry)
        service.submit(QUERY)
        histogram = registry.histogram("repro_plan_drift_ratio")
        assert histogram.buckets == tuple(sorted(DRIFT_BUCKETS))
        assert histogram.count(algorithm="collaborative") == 1


class TestBindAdapters:
    def test_bind_tracer_mirrors_lifetime_drop_totals(self):
        registry = MetricsRegistry()
        tracer = Tracer(max_spans=2, max_events=1)
        bind_tracer(tracer, registry)
        with tracer.span("root"):
            with tracer.span("kept"):
                pass
            with tracer.span("dropped"):  # over max_spans
                pass
            tracer.event("kept")
            tracer.event("dropped")
        registry.collect()
        assert registry.counter("repro_trace_dropped_spans_total").value() == 1
        assert registry.counter("repro_trace_dropped_events_total").value() == 1

    def test_bind_slowlog_mirrors_admission_state(self):
        registry = MetricsRegistry()
        journal = SlowQueryJournal(capacity=2, threshold_ms=1.0)
        bind_slowlog(journal, registry)
        journal.record(_entry(2.0))
        journal.record(_entry(3.0))
        journal.record(_entry(4.0))
        registry.collect()
        assert registry.gauge("repro_slowlog_entries").value() == 2
        assert registry.counter("repro_slowlog_recorded_total").value() == 3
        assert registry.counter("repro_slowlog_evicted_total").value() == 1
        assert registry.gauge("repro_slowlog_threshold_seconds").value() == pytest.approx(0.001)
        assert registry.gauge("repro_slowlog_worst_seconds").value() == pytest.approx(0.004)
