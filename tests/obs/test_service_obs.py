"""QueryService observability: tracing, metrics, unified recording.

Covers the ISSUE 4 acceptance bar (per-stage times sum to within 10% of
the query total), the satellite fix that every execution path —
``search``, ``submit``, both ``execute_many`` branches — writes latency
and outcome counters through one recording path, and that the registry
exports each fact about a query once.
"""

import pytest

from repro.core.query import UOTSQuery
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.trace import Tracer
from repro.parallel.executor import fork_available
from repro.resilience.budget import SearchBudget
from repro.service import AdmissionController, AdmissionPolicy, QueryService
from repro.service.service import _WORK_SERIES
from tests.conftest import series

OUTCOMES = "repro_service_queries_total"


@pytest.fixture()
def query():
    return UOTSQuery.create([5, 210, 360], "park lakeside", lam=0.5, k=5)


@pytest.fixture()
def queries(query):
    return [
        query,
        UOTSQuery.create([0, 399], "seafood", lam=0.3, k=3),
        UOTSQuery.create([37, 199], "museum walk", lam=0.7, k=4),
    ]


class TestTracing:
    def test_submit_produces_nested_trace(self, database, query):
        service = QueryService(database, "collaborative", trace=True)
        service.submit(query)
        root = service.tracer.last_trace()
        assert root.name == "query"
        assert root.attributes["algorithm"] == "collaborative"
        children = [c.name for c in root.children]
        assert "execute" in children
        execute = next(c for c in root.children if c.name == "execute")
        stage_names = {c.name for c in execute.children}
        assert "expand_round" in stage_names
        assert execute.attributes["visited"] > 0

    def test_stage_times_sum_to_query_total(self, database, query):
        """Acceptance: the per-stage breakdown accounts for >=90% of the
        query span's wall time."""
        service = QueryService(database, "collaborative", trace=True)
        service.submit(query)
        root = service.tracer.last_trace()
        direct = sum(c.duration_s for c in root.children)
        assert direct >= 0.90 * root.duration_s
        execute = next(c for c in root.children if c.name == "execute")
        stages = sum(c.duration_s for c in execute.children)
        assert stages >= 0.90 * execute.duration_s

    def test_search_and_baselines_trace_too(self, database, query):
        for algorithm in ("brute-force", "text-first", "spatial-first"):
            service = QueryService(database, algorithm, trace=True)
            service.search(query)
            root = service.tracer.last_trace()
            assert root.name == "query"
            execute = next(c for c in root.children if c.name == "execute")
            assert execute.attributes["visited"] >= 0

    def test_tracing_off_by_default(self, database, query):
        service = QueryService(database, "collaborative")
        service.submit(query)
        assert service.tracer is None

    def test_explicit_tracer_shared(self, database, query):
        tracer = Tracer(max_traces=8)
        service = QueryService(database, "collaborative", trace=tracer)
        assert service.tracer is tracer
        service.submit(query)
        assert tracer.last_trace() is not None

    def test_execute_many_sequential_traces_batch(self, database, queries):
        service = QueryService(database, "collaborative", trace=True)
        service.execute_many(queries)
        root = service.tracer.last_trace()
        assert root.name == "execute_many"
        assert root.attributes["queries"] == len(queries)
        assert [c.name for c in root.children] == ["query"] * len(queries)


class TestUnifiedRecording:
    """Satellite fix: one record() path for every execution route."""

    def test_submit_and_execute_many_agree(self, database, queries):
        via_submit = QueryService(database, "collaborative")
        for q in queries:
            via_submit.submit(q)
        via_batch = QueryService(database, "collaborative")
        via_batch.execute_many(queries)
        for outcome in ("exact", "degraded", "failed", "rejected"):
            assert series(via_submit, OUTCOMES, outcome=outcome) == series(
                via_batch, OUTCOMES, outcome=outcome
            ), outcome
        for service in (via_submit, via_batch):
            latency = service.metrics.histogram("repro_service_latency_seconds")
            assert latency.count() == len(queries) and latency.sum() > 0.0

    def test_sequential_batch_labels_executor(self, database, queries):
        service = QueryService(database, "collaborative")
        results = service.execute_many(queries)
        assert all(r.stats.executor == "sequential" for r in results)

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_fork_batch_records_latency_and_outcomes(self, database, queries):
        service = QueryService(database, "collaborative", pool=2)
        try:
            results = service.execute_many(queries)
        finally:
            service.close()
        assert series(service, OUTCOMES) == len(queries)
        assert series(service, OUTCOMES, outcome="exact") == len(queries)
        # The regression: forked results must land in the latency
        # histogram too, not only in the outcome counters.
        assert series(service, "repro_service_latency_seconds_count") == len(queries)
        assert series(service, "repro_service_latency_seconds_sum") > 0.0
        assert {r.stats.executor for r in results} == {"fork"}

    def test_failed_query_still_records_latency(self, database):
        service = QueryService(database, "collaborative")
        bad = UOTSQuery.create([999_999], "park", k=3)
        result = service.submit(bad)
        assert result.error is not None
        assert series(service, OUTCOMES, outcome="failed") == 1
        # The regression: error results used to report 0 latency on some
        # paths; the unified path stamps real wall time.
        assert series(service, "repro_service_latency_seconds_sum") > 0.0


class TestMetricsIntegration:
    def test_explicit_registry_gets_service_instruments(
        self, database, queries
    ):
        registry = MetricsRegistry()
        service = QueryService(database, "collaborative", metrics=registry)
        assert service.metrics is registry
        for q in queries:
            service.submit(q)
        text = registry.render_prometheus()
        assert 'repro_service_queries_total{outcome="exact"} 3' in text
        assert "repro_service_latency_seconds_bucket" in text
        assert 'repro_executor_queries_total{path="in-process"} 3' in text
        assert "repro_search_expanded_vertices_total" in text
        assert 'repro_search_cache_hits_total{cache="distance"}' in text

    def test_metrics_true_binds_default_registry(self, database):
        service = QueryService(database, "collaborative", metrics=True)
        assert service.metrics is get_registry()

    def test_metrics_off_by_default(self, database, query):
        """Without ``metrics=`` a service records into a private registry,
        never into the process-wide one."""
        service = QueryService(database, "collaborative")
        assert isinstance(service.metrics, MetricsRegistry)
        assert service.metrics is not get_registry()
        service.submit(query)
        assert series(service, OUTCOMES, outcome="exact") == 1

    def test_histogram_counts_match_served_queries(self, database, queries):
        registry = MetricsRegistry()
        service = QueryService(database, "collaborative", metrics=registry)
        service.execute_many(queries)
        histogram = registry.histogram("repro_service_latency_seconds")
        assert histogram.count() == len(queries)
        assert histogram.sum() > 0.0

    def test_every_fact_is_exported_once(self, database, query):
        """Hits, misses, a shed, a budget-degraded answer and a failure on
        ``scan``: each is written once, and no series restates another."""
        controller = AdmissionController(AdmissionPolicy(max_inflight=2))
        service = QueryService(
            database, "scan", admission=controller, result_cache=16
        )
        first = UOTSQuery.create([0, 399], "seafood", lam=0.3, k=3)
        second = UOTSQuery.create([37, 199], "museum walk", lam=0.7, k=4)
        results = [service.submit(q) for q in (first, second, first, second, first)]
        held = [controller.admit(), controller.admit()]
        shed = service.submit(UOTSQuery.create([5, 210], "park", k=3))
        for decision in held:
            controller.release(decision)
        degraded = service.submit(query, SearchBudget(max_expanded_vertices=1))
        failed = service.submit(UOTSQuery.create([999_999], "park", k=3))
        results += [degraded, failed]
        assert shed.degradation_reason == "shed by admission policy (inflight_cap)"
        assert not degraded.exact and degraded.error is None
        assert failed.error is not None
        hits = [r for r in results if r.stats.cache == "result"]
        misses = [r for r in results if r.stats.cache != "result"]
        assert (len(hits), len(misses)) == (3, 4)

        outcomes = {
            outcome: series(service, OUTCOMES, outcome=outcome)
            for outcome in ("exact", "degraded", "failed", "rejected")
        }
        assert outcomes == {"exact": 5, "degraded": 1, "failed": 1, "rejected": 1}
        latency = series(service, "repro_service_latency_seconds_count")
        assert sum(outcomes.values()) == latency
        assert series(service, "repro_executor_queries_total") == len(misses)
        assert series(service, "repro_service_result_cache_hits_total") == len(hits)
        assert series(service, "repro_service_shed_total", reason="inflight_cap") == 1
        # Drift: every executed, error-free query carries a scan estimate.
        assert series(service, "repro_plan_drift_ratio_count", algorithm="scan") == 3
        # Work: each series is the sum over the executed queries only.
        for group in _WORK_SERIES:
            for field, name, _, labels in group:
                assert series(service, name, **labels) == pytest.approx(
                    sum(getattr(r.stats, field) for r in misses)
                ), field
        # The per-result degraded/failed marks are the outcome counter.
        assert sum(r.stats.degraded_queries for r in results) == outcomes["degraded"]
        assert sum(r.stats.failed_queries for r in results) == outcomes["failed"]
        rendered = service.metrics.render_prometheus()
        for restated in (
            "latency_p50", "latency_p95", "plan_drift_queries", "executor_retries",
            "repro_search_cache_", "repro_search_degraded_queries",
            "repro_search_failed_queries", 'path="result-cache"',
        ):
            assert restated not in rendered, restated
