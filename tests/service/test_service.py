"""QueryService: the batch front-end (ISSUE 3 acceptance surface).

``execute_many`` over a small ``brn`` bundle must match the sequential
per-query ``search()`` answers exactly, and the service must record every
answer in its registry, latency histogram included.
"""

import pytest

from repro.bench.datasets import build_bundle
from repro.bench.workloads import WorkloadConfig, make_queries
from repro.core.query import UOTSQuery
from repro.core.registry import make_searcher
from repro.errors import QueryError
from repro.parallel.executor import fork_available
from repro.resilience.budget import SearchBudget
from repro.service import QueryService
from tests.conftest import series


@pytest.fixture(scope="module")
def bundle():
    return build_bundle("brn", num_trajectories=120, scale=0.02, seed=5)


@pytest.fixture(scope="module")
def workload(bundle):
    return make_queries(
        bundle, WorkloadConfig(num_queries=8, num_locations=3, k=5, seed=11)
    )


def _assert_matches(results, references):
    assert len(results) == len(references)
    for got, want in zip(results, references):
        assert got.error is None
        assert got.ids == want.ids
        assert got.scores == pytest.approx(want.scores, abs=1e-9)
        assert got.exact == want.exact


def test_execute_many_matches_sequential_search(bundle, workload):
    service = QueryService(bundle.database, "collaborative")
    searcher = make_searcher(bundle.database, "collaborative")
    references = [searcher.search(q) for q in workload]
    _assert_matches(service.execute_many(workload), references)


def test_execute_many_reports_percentile_latency(bundle, workload):
    service = QueryService(bundle.database, "collaborative")
    service.execute_many(workload)
    n = len(workload)
    assert series(service, "repro_service_queries_total") == n
    assert series(service, "repro_service_queries_total", outcome="exact") == n
    # The cumulative buckets reach every sample by the +Inf bound.
    assert series(service, "repro_service_latency_seconds_bucket", le="+Inf") == n
    assert series(service, "repro_service_latency_seconds_count") == n
    assert series(service, "repro_service_latency_seconds_sum") > 0.0


@pytest.mark.skipif(not fork_available(), reason="needs a fork platform")
def test_execute_many_forked_matches_sequential(bundle, workload):
    service = QueryService(bundle.database, "collaborative", pool=2)
    searcher = make_searcher(bundle.database, "collaborative")
    references = [searcher.search(q) for q in workload]
    try:
        results = service.execute_many(workload)
    finally:
        service.close()
    _assert_matches(results, references)
    assert {result.stats.executor for result in results} == {"fork"}
    assert series(service, "repro_service_queries_total") == len(workload)
    assert series(service, "repro_service_latency_seconds_sum") > 0.0


def test_submit_isolates_library_errors(bundle):
    service = QueryService(bundle.database, "collaborative")
    bad = UOTSQuery.create([bundle.graph.num_vertices + 7], ["park"], lam=0.5, k=3)
    result = service.submit(bad)
    assert result.error is not None
    assert result.items == []
    assert series(service, "repro_service_queries_total", outcome="failed") == 1


def test_search_propagates_library_errors(bundle):
    service = QueryService(bundle.database, "collaborative")
    bad = UOTSQuery.create([bundle.graph.num_vertices + 7], ["park"], lam=0.5, k=3)
    with pytest.raises(QueryError):
        service.search(bad)


def test_submit_records_degraded_results(bundle, workload):
    service = QueryService(bundle.database, "collaborative")
    result = service.submit(workload[0], SearchBudget(max_expanded_vertices=5))
    assert not result.exact
    assert series(service, "repro_service_queries_total", outcome="degraded") == 1



def test_service_forwards_tuning_kwargs(bundle):
    service = QueryService(
        bundle.database, "collaborative", alt=False, scheduler="round-robin"
    )
    assert not service.searcher.use_alt
    assert service.searcher._scheduler_spec == "round-robin"


def test_plan_is_stamped_with_registry_name(bundle, workload):
    service = QueryService(bundle.database, "collaborative-rr")
    plan = service.plan(workload[0])
    assert plan.algorithm == "collaborative-rr"
    assert plan.scheduler == "round-robin"
    explained = service.explain(workload[0])
    assert "collaborative-rr" in explained
    # explain never executes: nothing recorded.
    assert series(service, "repro_service_queries_total") == 0
