"""End-to-end gateway tests over the in-process ASGI transport.

No sockets: the test client speaks raw ASGI to the exact app object the
server would run.  Needs pydantic (the wire schemas); the bridge-level
tests in ``test_async_service.py`` cover the no-pydantic path.
"""

from __future__ import annotations

import asyncio
import json
import re

import pytest

from repro.core.query import UOTSQuery
from repro.core.registry import ALGORITHMS, make_searcher
from repro.gateway import AsyncQueryService
from repro.gateway.app import create_app
from repro.gateway.testing import ASGITestClient
from repro.obs.metrics import MetricsRegistry
from repro.service.admission import AdmissionController
from repro.service.policy import AdmissionPolicy
from repro.service.service import QueryService

# The exposition-format check the CI obs-smoke job applies to the CLI's
# metrics output — /metrics must satisfy the identical contract.
PROMETHEUS_LINE = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*'
    r'(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})?'
    r" [^ ]+$"
)


@pytest.fixture()
def stack(gateway_database):
    """(service, gateway, client) built fresh per test, closed after."""
    registry = MetricsRegistry()
    service = QueryService(
        gateway_database, "collaborative", metrics=registry, result_cache=16
    )
    gateway = AsyncQueryService(service, max_workers=2)
    client = ASGITestClient(create_app(gateway))
    yield service, gateway, client
    asyncio.run(gateway.close())


def _payload(**overrides):
    payload = {"locations": [3, 47], "preference": "river cafe", "k": 3}
    payload.update(overrides)
    return payload


def test_query_bytes_equal_inprocess_submit(stack, gateway_database):
    """The acceptance check: the HTTP top-k byte-equals QueryService.submit
    serialized through the same schema."""
    from repro.gateway.schemas import QueryResponse

    service, _, client = stack
    response = client.post("/query", json=_payload())
    assert response.status == 200

    reference_service = QueryService(gateway_database, "collaborative")
    direct = reference_service.submit(
        UOTSQuery.create([3, 47], "river cafe", k=3)
    )
    direct_body = json.loads(QueryResponse.from_result(direct).model_dump_json())
    http_body = response.json()
    assert http_body["items"] == direct_body["items"]  # byte-identical top-k
    assert http_body["exact"] == direct_body["exact"]
    assert http_body["residual_bound"] == direct_body["residual_bound"]
    # Stats differ only in execution-path fields (latency, executor label).
    assert (
        http_body["stats"]["expanded_vertices"]
        == direct_body["stats"]["expanded_vertices"]
    )


def _field_by_field(result):
    """The response a client saw before ``from_result`` validated in one
    pass: every item and the stats built as models of their own."""
    from repro.gateway.schemas import QueryResponse, ResultStats, ScoredItem

    stats = result.stats
    return QueryResponse(
        items=[
            ScoredItem(
                trajectory_id=item.trajectory_id,
                score=item.score,
                spatial_similarity=item.spatial_similarity,
                text_similarity=item.text_similarity,
                exact=item.exact,
            )
            for item in result.items
        ],
        exact=result.exact,
        degradation_reason=result.degradation_reason,
        residual_bound=result.residual_bound,
        error=result.error,
        stats=ResultStats(
            elapsed_seconds=stats.elapsed_seconds,
            expanded_vertices=stats.expanded_vertices,
            visited_trajectories=stats.visited_trajectories,
            similarity_evaluations=stats.similarity_evaluations,
            refinements=stats.refinements,
            estimated_cost=stats.estimated_cost,
            executor=stats.executor,
            cache=stats.cache,
        ),
    )


def test_from_result_wire_bytes_match_field_by_field_models(gateway_database):
    """Every result shape the gateway serves — fresh, cached, degraded,
    admission-rejected, failed — leaves as the same JSON bytes."""
    from repro.gateway.schemas import QueryResponse
    from repro.resilience.budget import SearchBudget

    controller = AdmissionController(AdmissionPolicy(max_inflight=1))
    service = QueryService(
        gateway_database, "collaborative", result_cache=8, admission=controller
    )
    query = UOTSQuery.create([3, 47], "river cafe", k=3)
    results = {
        "fresh": service.submit(query),
        "cached": service.submit(query),
        "deadline": service.submit(query, budget=SearchBudget.from_millis(0)),
        "work": service.submit(
            query, budget=SearchBudget(max_expanded_vertices=5)
        ),
        "query_error": service.submit(
            UOTSQuery.create([3, 4700], "river cafe", k=3)
        ),
    }
    decision = controller.admit()
    try:
        results["rejected"] = service.submit(
            UOTSQuery.create([5, 60], "river", k=3)
        )
    finally:
        controller.release(decision)

    assert results["fresh"].items and results["fresh"].stats.cache == ""
    assert results["cached"].stats.cache == "result"
    assert "deadline" in results["deadline"].degradation_reason
    assert results["work"].items and not any(
        item.exact for item in results["work"].items
    )
    assert results["query_error"].error.startswith("QueryError")
    assert QueryResponse.from_result(results["rejected"]).rejected
    for name, result in results.items():
        wire = QueryResponse.from_result(result).model_dump_json()
        assert wire == _field_by_field(result).model_dump_json(), name


def test_query_rejection_maps_to_429(gateway_database):
    controller = AdmissionController(AdmissionPolicy(max_inflight=1))
    service = QueryService(gateway_database, "collaborative", admission=controller)
    gateway = AsyncQueryService(service, max_workers=2)
    client = ASGITestClient(create_app(gateway))
    decision = controller.admit()
    assert decision.admitted
    try:
        response = client.post("/query", json=_payload())
        assert response.status == 429
        body = response.json()
        assert "AdmissionError" in body["error"]
        assert body["items"] == []
    finally:
        controller.release(decision)
        asyncio.run(gateway.close())


def test_validation_and_domain_errors(stack):
    _, _, client = stack
    assert client.post("/query", json={"locations": []}).status == 422
    assert client.post("/query", json={"k": 3}).status == 422
    assert client.post("/query", json=_payload(typo_knob=1)).status == 422
    assert (
        client.post("/query", json=_payload(preference="x", keywords=["y"])).status
        == 422
    )
    # Shape-valid but domain-invalid: duplicate locations -> QueryError -> 400
    response = client.post("/query", json=_payload(locations=[3, 3]))
    assert response.status == 400
    assert response.json()["error"] == "query_error"
    # Unknown priority class is rejected at the edge, as the CLI's
    # choices= does — even without an overload policy configured.
    response = client.post("/query", json=_payload(priority="vip"))
    assert response.status == 422
    assert client.post("/query", body=b"not json").status == 422
    assert client.get("/unknown").status == 404
    assert client.get("/query").status == 405


def test_budgeted_query_round_trips(stack):
    _, _, client = stack
    response = client.post(
        "/query", json=_payload(deadline_ms=5000, max_expanded_vertices=100000)
    )
    assert response.status == 200
    assert response.json()["stats"]["expanded_vertices"] <= 100000


def test_batch_endpoint_matches_execute_many(stack, gateway_database):
    _, _, client = stack
    response = client.post(
        "/query/batch",
        json={"queries": [_payload(), _payload(locations=[5], k=2)]},
    )
    assert response.status == 200
    results = response.json()["results"]
    reference = QueryService(gateway_database, "collaborative").execute_many(
        [
            UOTSQuery.create([3, 47], "river cafe", k=3),
            UOTSQuery.create([5], "river cafe", k=2),
        ]
    )
    assert [
        [item["trajectory_id"] for item in result["items"]] for result in results
    ] == [r.ids for r in reference]
    # Heterogeneous per-query budgets are rejected up front.
    response = client.post(
        "/query/batch",
        json={"queries": [_payload(deadline_ms=10), _payload()]},
    )
    assert response.status == 422
    # No body sizes an executor: the service's pool is the only one.
    response = client.post("/query/batch", json={"workers": 2, "queries": [_payload()]})
    assert response.status == 422
    assert "workers" in response.json()["detail"]


def test_two_concurrent_forked_batches_both_answer(gateway_database):
    """Regression: the second of two concurrent batches found the fork
    handoff taken and took its connection down with it.  Both now ride
    the pool the service forked at start-up."""
    service, gateway, client = _pooled_stack(gateway_database, "collaborative")
    bodies = [
        {"queries": [_payload(locations=[a, b], k=3) for b in (40, 60, 80)]}
        for a in (3, 17)
    ]

    async def fire():
        return await asyncio.gather(
            *(client.arequest("POST", "/query/batch", json=body) for body in bodies)
        )

    oracle = make_searcher(gateway_database, "brute-force")
    try:
        responses = asyncio.run(fire())
    finally:
        asyncio.run(gateway.close())
        service.close()
    for body, response in zip(bodies, responses):
        assert response.status == 200
        for wire, result in zip(body["queries"], response.json()["results"]):
            reference = oracle.search(
                UOTSQuery.create(wire["locations"], wire["preference"], k=wire["k"])
            )
            assert result["stats"]["executor"] == "fork"
            assert [item["trajectory_id"] for item in result["items"]] == reference.ids
            assert [item["score"] for item in result["items"]] == pytest.approx(
                reference.scores, abs=1e-9
            )


def test_explain_matches_service_explain(stack, gateway_database):
    service, _, client = stack
    response = client.post("/explain", json={"locations": [3, 47], "k": 3})
    assert response.status == 200
    rendered = response.json()["explain"]
    assert rendered == service.explain(UOTSQuery.create([3, 47], k=3))
    assert "QueryPlan" in rendered


def test_healthz_and_readyz_lifecycle(stack):
    _, gateway, client = stack
    assert client.get("/healthz").status == 200
    ready = client.get("/readyz")
    assert ready.status == 200
    assert ready.json()["ready"] is True
    asyncio.run(gateway.close())
    assert client.get("/readyz").status == 503
    assert client.get("/readyz").json()["reason"] == "closed"


def test_readyz_flips_while_the_bridge_is_saturated(gateway_database):
    """/readyz answers 503 while the bridge is full and 200 once it
    drains; queries still pass through, since readiness is advisory for
    the load balancer, not a hard gate."""
    service = QueryService(gateway_database, "collaborative", result_cache=8)
    gateway = AsyncQueryService(service, max_workers=1, max_pending=1)
    client = ASGITestClient(create_app(gateway))
    try:
        assert client.post("/query", json=_payload()).status == 200
        assert client.get("/readyz").status == 200
        gateway._pending = 1  # stands in for one bridged call
        response = client.get("/readyz")
        assert response.status == 503
        assert response.json()["reason"] == "saturated"
        # A cached answer needs no bridge slot; a miss is turned away.
        assert client.post("/query", json=_payload()).status == 200
        assert client.post("/query", json=_payload(k=4)).status == 503
        gateway._pending = 0
        assert client.get("/readyz").status == 200
    finally:
        asyncio.run(gateway.close())


def test_metrics_endpoint_passes_line_format_check(stack):
    service, _, client = stack
    assert client.post("/query", json=_payload()).status == 200
    response = client.get("/metrics")
    assert response.status == 200
    assert response.headers["content-type"].startswith("text/plain")
    lines = [
        line
        for line in response.text.splitlines()
        if line and not line.startswith("#")
    ]
    assert lines, "metrics exposition is empty after a served query"
    for line in lines:
        assert PROMETHEUS_LINE.match(line), f"bad exposition line: {line!r}"
    assert any(line.startswith("repro_service_queries_total") for line in lines)


def test_result_cache_hit_visible_through_http(stack):
    _, _, client = stack
    first = client.post("/query", json=_payload())
    second = client.post("/query", json=_payload())
    assert first.json()["stats"]["cache"] == ""
    assert second.json()["stats"]["cache"] == "result"
    assert second.json()["items"] == first.json()["items"]


# ----------------------------------------------------- pooled serving path
def _pooled_stack(database, algorithm):
    """A ``repro serve``-shaped stack: the service forks its workers before
    the gateway (and with it any thread) exists."""
    from repro.parallel.executor import fork_available

    if not fork_available():
        pytest.skip("fork start method not available")
    registry = MetricsRegistry()
    service = QueryService(
        database, algorithm, metrics=registry, result_cache=16, pool=2
    )
    gateway = AsyncQueryService(service, max_workers=4)
    return service, gateway, ASGITestClient(create_app(gateway))


def test_readyz_reports_pool_workers_and_zero_is_not_down(stack, gateway_database):
    _, _, plain = stack
    assert plain.get("/readyz").json()["pool_workers"] == 0
    service, gateway, client = _pooled_stack(gateway_database, "scan")
    try:
        assert client.get("/readyz").json()["pool_workers"] == 2
        service.close()  # every worker gone: degraded, still ready
        ready = client.get("/readyz")
        assert ready.status == 200
        assert ready.json()["pool_workers"] == 0
        response = client.post("/query", json=_payload())
        assert response.status == 200
        assert response.json()["stats"]["executor"] == "gateway-thread"
    finally:
        asyncio.run(gateway.close())
        service.close()


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_two_connections_on_a_pooled_gateway_only_see_oracle_answers(
    gateway_database, algorithm
):
    service, gateway, client = _pooled_stack(gateway_database, algorithm)
    lanes = [
        [_payload(locations=[a, b], k=3) for b in (40, 60, 80, 99)] for a in (3, 17)
    ]

    async def lane(bodies):
        return [await client.arequest("POST", "/query", json=body) for body in bodies]

    async def fire():
        return await asyncio.gather(*(lane(bodies) for bodies in lanes))

    oracle = make_searcher(gateway_database, "brute-force")
    try:
        for bodies, responses in zip(lanes, asyncio.run(fire())):
            for wire, response in zip(bodies, responses):
                assert response.status == 200
                body = response.json()
                assert body["exact"] and body["stats"]["executor"] == "fork"
                reference = oracle.search(
                    UOTSQuery.create(wire["locations"], wire["preference"], k=3)
                )
                assert [i["score"] for i in body["items"]] == pytest.approx(
                    reference.scores, abs=1e-9
                )
                assert [i["trajectory_id"] for i in body["items"]] == reference.ids
        text = client.get("/metrics").text
        assert "repro_pool_workers 2" in text
        assert "repro_pool_fallbacks_total 0" in text
        assert "repro_pool_wait_seconds_count 8" in text
        counts = re.findall(r'repro_pool_dispatched_total\{worker="\d"\} (\d+)', text)
        assert len(counts) == 2 and sum(map(int, counts)) == 8
        for line in text.splitlines():
            if line.startswith("repro_pool"):
                assert PROMETHEUS_LINE.match(line), line
    finally:
        asyncio.run(gateway.close())
        service.close()
