"""End-to-end wiring of the sharded searcher through the serving stack.

Covers the routing contract of the issue: ``QueryService`` /
``execute_many`` route through shards under admission control, the
service stats grow (gated) shard lanes, the metrics registry exports
``repro_shard_*`` counters, and trace spans nest
``query -> shard[i]``.
"""

import pytest

from repro.core.query import UOTSQuery
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer, activated
from repro.service import QueryService
from tests.conftest import series

QUERY = UOTSQuery.create([5, 100], ["park", "museum"], lam=0.4, k=5)


class TestServiceRouting:
    def test_submit_routes_through_shards(self, database):
        flat = QueryService(database, "collaborative")
        sharded = QueryService(database, "sharded", shards=8)
        reference = flat.submit(QUERY)
        result = sharded.submit(QUERY)
        assert result.ids == reference.ids
        assert result.scores == pytest.approx(reference.scores, abs=1e-9)
        assert result.stats.shards_planned > 0

    def test_execute_many_agrees_with_flat(self, database):
        flat = QueryService(database, "collaborative")
        sharded = QueryService(database, "sharded", shards=8)
        queries = [
            QUERY,
            UOTSQuery.create([0, 210], ["lake"], lam=0.6, k=3),
            UOTSQuery.create([42], ["park"], lam=0.0, k=3),
        ]
        for r, ref in zip(
            sharded.execute_many(queries),
            flat.execute_many(queries),
        ):
            assert r.ids == ref.ids
            assert r.scores == pytest.approx(ref.scores, abs=1e-9)

    def test_execute_many_forked_batch_nests_safely(self, database):
        """The batch fork x sharded check: batch workers run the same
        in-process shard loop, there is no second fork level to nest."""
        from repro.parallel.executor import fork_available

        if not fork_available():
            pytest.skip("fork start method not available")
        flat = QueryService(database, "collaborative")
        sharded = QueryService(database, "sharded", shards=4, pool=2)
        queries = [QUERY, UOTSQuery.create([0, 210], ["lake"], lam=0.6, k=3)]
        try:
            results = sharded.execute_many(queries)
        finally:
            sharded.close()
        assert {r.stats.executor for r in results} == {"fork"}
        for r, ref in zip(results, flat.execute_many(queries)):
            assert r.ids == ref.ids
            assert r.scores == pytest.approx(ref.scores, abs=1e-9)

    def test_admission_still_gates_sharded_queries(self, database):
        from repro.service.admission import AdmissionController
        from repro.service.policy import AdmissionPolicy

        service = QueryService(
            database, "sharded", shards=4,
            admission=AdmissionController(AdmissionPolicy(max_inflight=1)),
        )
        result = service.submit(QUERY)
        assert result.error is None
        assert series(service, "repro_service_queries_total", outcome="rejected") == 0

    def test_explain_shows_shard_schedule(self, database):
        service = QueryService(database, "sharded", shards=8)
        text = service.explain(QUERY)
        assert "QueryPlan[sharded]" in text
        assert "shards:" in text
        assert "shard[" in text


class TestShardLanes:
    def test_shard_lanes_appear_after_sharded_traffic(self, database):
        service = QueryService(database, "sharded", shards=8)
        service.submit(QUERY)
        planned = series(service, "repro_shard_planned_total")
        assert planned > 0
        assert (
            series(service, "repro_shard_executed_total")
            + series(service, "repro_shard_pruned_total")
            == planned
        )

    def test_flat_service_snapshot_is_unchanged(self, database):
        """Gating: a flat service exports no shard series at all."""
        service = QueryService(database, "collaborative")
        service.submit(QUERY)
        assert "repro_shard_" not in service.metrics.render_prometheus()


class TestShardTiming:
    def test_shard_timing_fields_filled_by_sharded(self, database):
        """``benchmarks/e2e/tracing.py`` reads these four by name."""
        service = QueryService(database, "sharded", shards=4)
        stats = service.submit(QUERY).stats
        assert stats.shard_seconds > 0.0
        # One process, one shard at a time: the critical path is the sum.
        assert stats.shard_critical_seconds == stats.shard_seconds
        assert stats.executor == "" and stats.retries == 0


class TestMetrics:
    def test_shard_counters_exported(self, database):
        registry = MetricsRegistry()
        service = QueryService(
            database, "sharded", shards=8, metrics=registry
        )
        stats = service.submit(QUERY).stats
        registry.collect()
        planned = registry.counter("repro_shard_planned_total")
        executed = registry.counter("repro_shard_executed_total")
        pruned = registry.counter("repro_shard_pruned_total")
        assert planned.value() == stats.shards_planned > 0
        assert executed.value() == stats.shards_executed
        assert pruned.value() == stats.shards_pruned
        rendered = registry.render_prometheus()
        assert "repro_shard_planned_total" in rendered
        assert "repro_shard_executed_total" in rendered
        assert "repro_shard_pruned_total" in rendered


class TestTraceNesting:
    def test_spans_nest_query_shard(self, database):
        service = QueryService(database, "sharded", shards=8)
        tracer = Tracer()
        with activated(tracer):
            service.submit(QUERY)
        root = tracer.last_trace()
        assert root is not None
        execute = _find(root, "execute")
        assert execute is not None
        assert execute.attributes["algorithm"] == "sharded"
        shard_spans = [
            child for child in execute.children
            if child.name.startswith("shard[")
        ]
        assert shard_spans  # per-shard children nested under execute
        executed = [s for s in shard_spans if s.attributes.get("executed")]
        pruned = [s for s in shard_spans if s.attributes.get("pruned")]
        assert executed
        assert pruned  # the selective query prunes at least one shard
        for span in pruned:
            assert "upper_bound" in span.attributes
        assert execute.attributes["shards_planned"] == len(shard_spans)


def _find(span, name):
    if span.name == name:
        return span
    for child in span.children:
        found = _find(child, name)
        if found is not None:
            return found
    return None
