"""Service-level result cache: the ISSUE 5 semantics oracle.

A warm hit must be byte-equal to the cold search (same ids, scores, order,
``exact``); a ``database.add``/``remove`` between the two must force a
miss; budgeted queries must neither populate nor read the cache.  The
cache is a serving-layer overlay — everything here runs through a live
:class:`QueryService` against a real bundle, never against the container
directly (see ``tests/perf/test_result_cache.py`` for that).
"""

import random

import pytest

from repro.bench.datasets import build_bundle
from repro.bench.workloads import WorkloadConfig, make_queries
from repro.core.query import UOTSQuery
from repro.obs.metrics import MetricsRegistry
from repro.parallel.executor import fork_available
from repro.perf import ResultCache
from repro.resilience.budget import SearchBudget
from repro.service import QueryService
from tests.conftest import series


@pytest.fixture(scope="module")
def bundle():
    # Private bundle: several tests mutate the database (add/remove) and
    # must not disturb the session-scoped ``database`` fixture.
    return build_bundle("brn", num_trajectories=120, scale=0.02, seed=5)


@pytest.fixture(scope="module")
def workload(bundle):
    return make_queries(
        bundle, WorkloadConfig(num_queries=6, num_locations=3, k=5, seed=11)
    )


def _service(bundle, **kwargs):
    kwargs.setdefault("result_cache", 64)
    return QueryService(bundle.database, "collaborative", **kwargs)


def _assert_byte_equal(hit, cold):
    assert hit.ids == cold.ids
    assert hit.scores == cold.scores  # exact float equality, not approx
    assert [s.trajectory_id for s in hit.items] == [
        s.trajectory_id for s in cold.items
    ]
    assert hit.exact == cold.exact
    assert hit.error is None and hit.degradation_reason is None


class TestOracle:
    def test_warm_hit_is_byte_equal_to_cold_search(self, bundle, workload):
        service = _service(bundle)
        for query in workload:
            cold = service.search(query)
            warm = service.search(query)
            assert warm.stats.cache == "result"
            assert cold.stats.cache == ""
            _assert_byte_equal(warm, cold)

    def test_property_sweep_random_queries_and_revisits(self, bundle):
        """Seeded property sweep: any revisit of an already-served query
        is a hit equal to its first answer; first visits always miss."""
        rng = random.Random(1205)
        pool = make_queries(
            bundle,
            WorkloadConfig(num_queries=10, num_locations=2, k=4, seed=17),
        )
        service = _service(bundle)
        first_answers = {}
        for _ in range(40):
            query = rng.choice(pool)
            result = service.search(query)
            if query in first_answers:
                assert result.stats.cache == "result"
                _assert_byte_equal(result, first_answers[query])
            else:
                assert result.stats.cache == ""
                first_answers[query] = result
        assert service.result_cache.stats.hits == 40 - len(first_answers)

    def test_location_order_does_not_break_the_hit(self, bundle, workload):
        service = _service(bundle)
        query = workload[0]
        cold = service.search(query)
        reordered = UOTSQuery(
            locations=tuple(reversed(query.locations)),
            keywords=query.keywords,
            lam=query.lam,
            k=query.k,
            text_measure=query.text_measure,
        )
        warm = service.search(reordered)
        assert warm.stats.cache == "result"
        _assert_byte_equal(warm, cold)

    def test_mutation_between_searches_forces_miss(self, bundle, workload):
        service = _service(bundle)
        query = workload[1]
        service.search(query)
        removed = bundle.database.remove(service.search(query).ids[0])
        fresh = service.search(query)
        assert fresh.stats.cache == ""  # invalidated, recomputed
        assert removed.id not in fresh.ids
        bundle.database.add(removed)  # restore; add must also invalidate
        restored = service.search(query)
        assert restored.stats.cache == ""
        _assert_byte_equal(service.search(query), restored)

    def test_budgeted_queries_never_populate_or_read(self, bundle, workload):
        service = _service(bundle)
        query = workload[2]
        tight = SearchBudget(max_expanded_vertices=5)
        assert service.submit(query, tight).stats.cache == ""
        assert len(service.result_cache) == 0  # no populate
        cold = service.search(query)  # un-budgeted run populates
        assert len(service.result_cache) == 1
        assert service.submit(query, tight).stats.cache == ""  # no read
        # The budget riding on the query object gates identically.
        budgeted_query = UOTSQuery(
            locations=query.locations,
            keywords=query.keywords,
            lam=query.lam,
            k=query.k,
            text_measure=query.text_measure,
            budget=tight,
        )
        assert service.submit(budgeted_query).stats.cache == ""
        # An explicitly unlimited budget is not a budget: it may hit.
        warm = service.submit(query, SearchBudget())
        assert warm.stats.cache == "result"
        _assert_byte_equal(warm, cold)


class TestServiceWiring:
    def test_cache_off_by_default(self, bundle, workload):
        service = QueryService(bundle.database, "collaborative")
        assert service.result_cache is None
        service.search(workload[0])
        assert service.search(workload[0]).stats.cache == ""

    def test_capacity_zero_and_false_disable(self, bundle):
        assert QueryService(bundle.database, result_cache=0).result_cache is None
        assert (
            QueryService(bundle.database, result_cache=False).result_cache is None
        )
        enabled = QueryService(bundle.database, result_cache=True).result_cache
        assert enabled is not None and enabled.enabled

    def test_prebuilt_cache_instance_is_used_verbatim(self, bundle, workload):
        cache = ResultCache(32)
        service = QueryService(
            bundle.database, "collaborative", result_cache=cache
        )
        assert service.result_cache is cache
        service.search(workload[0])
        assert len(cache) == 1

    def test_hit_latency_and_outcome_are_recorded(self, bundle, workload):
        service = _service(bundle)
        service.search(workload[0])
        warm = service.search(workload[0])
        assert warm.stats.elapsed_seconds > 0.0  # stamped by the service
        assert series(service, "repro_service_queries_total") == 2
        assert series(service, "repro_service_queries_total", outcome="exact") == 2
        assert series(service, "repro_service_latency_seconds_count") == 2
        assert series(service, "repro_service_result_cache_hits_total") == 1

    def test_metrics_counters_and_executor_path(self, bundle, workload):
        registry = MetricsRegistry()
        service = _service(bundle, metrics=registry)
        service.search(workload[0])
        service.search(workload[0])
        service.search(workload[1])
        assert series(registry, "repro_service_result_cache_hits_total") == 1
        assert series(registry, "repro_service_result_cache_misses_total") == 2
        # A hit ran nowhere: only executed queries have an executor path.
        assert series(registry, "repro_executor_queries_total") == 2
        assert series(registry, "repro_executor_queries_total", path="in-process") == 2
        assert series(registry, "repro_service_result_cache_entries") == 2

    def test_trace_spans_carry_result_cache_attribute(self, bundle, workload):
        service = _service(bundle, trace=True, metrics=MetricsRegistry())
        service.search(workload[0])
        assert service.tracer.last_trace().attributes["result_cache"] == "miss"
        traces = len(service.tracer.traces)
        service.submit(workload[0])
        assert len(service.tracer.traces) == traces + 1  # one span per hit
        root = service.tracer.last_trace()
        assert root.name == "query"
        assert root.attributes["result_cache"] == "hit"
        assert root.children == []  # a hit plans and executes nothing
        # Untraced services never mention the attribute.
        bare = QueryService(bundle.database, "collaborative", trace=True)
        bare.search(workload[0])
        assert "result_cache" not in bare.tracer.last_trace().attributes

    def test_an_untraced_hit_is_counted(self, bundle, workload):
        service = _service(bundle)
        service.submit(workload[0])
        assert service.submit(workload[0]).stats.cache == "result"
        assert series(service, "repro_service_queries_total", outcome="exact") == 2
        assert series(service, "repro_executor_queries_total") == 1  # the miss only
        assert series(service, "repro_service_result_cache_hits_total") == 1

    def test_tuning_kwargs_key_the_cache(self, bundle, workload):
        cache = ResultCache(32)
        plain = QueryService(bundle.database, "collaborative", result_cache=cache)
        tuned = QueryService(
            bundle.database,
            "collaborative",
            result_cache=cache,
            alt=False,
            batch_size=4,
        )
        plain.search(workload[0])
        # Same shared cache, different resolved tuning: no cross-talk.
        assert tuned.search(workload[0]).stats.cache == ""
        assert len(cache) == 2
        assert tuned.search(workload[0]).stats.cache == "result"


class TestExecuteMany:
    def test_sequential_batch_serves_repeats_from_cache(self, bundle, workload):
        service = _service(bundle)
        batch = list(workload[:3]) + list(workload[:3])
        results = service.execute_many(batch)
        markers = [r.stats.cache for r in results]
        assert markers[:3] == ["", "", ""]
        assert markers[3:] == ["result"] * 3
        for warm, cold in zip(results[3:], results[:3]):
            _assert_byte_equal(warm, cold)
        assert service.result_cache.stats.hits == 3

    @pytest.mark.skipif(not fork_available(), reason="needs a fork platform")
    def test_forked_batch_probes_cache_in_parent(self, bundle, workload):
        service = _service(bundle, trace=True, pool=2)
        cold = [service.search(q) for q in workload[:2]]
        try:
            results = service.execute_many(list(workload[:2]) + [workload[3]])
        finally:
            service.close()
        assert [r.stats.cache for r in results] == ["result", "result", ""]
        for warm, reference in zip(results, cold):
            _assert_byte_equal(warm, reference)
        assert results[2].stats.executor == "fork"
        root = service.tracer.last_trace()
        assert root.name == "execute_many"
        assert root.attributes["result_cache_hits"] == 2

    @pytest.mark.skipif(not fork_available(), reason="needs a fork platform")
    def test_forked_results_populate_the_parent_cache(self, bundle, workload):
        service = _service(bundle, pool=2)
        try:
            results = service.execute_many(list(workload[:3]))
        finally:
            service.close()
        assert {r.stats.executor for r in results} == {"fork"}
        assert len(service.result_cache) == 3
        warm = service.search(workload[0])
        assert warm.stats.cache == "result"
