"""The gateway's ASGI application — framework-free, pydantic-validated.

A plain ASGI 3 callable (``async def app(scope, receive, send)``) rather
than a FastAPI router: the serving container ships no web framework, and
the route table below is six endpoints — a dispatch dict is smaller than
the dependency.  The app runs unchanged under the stdlib server in
:mod:`repro.gateway.server`, under the in-process test client in
:mod:`repro.gateway.testing`, and under any other ASGI server.

Routes and status mapping (DESIGN.md §14):

========================  =====================================================
``POST /query``           200 answered; 429 admission-rejected (body still a
                          full :class:`QueryResponse` — the reason travels in
                          ``error``/``degradation_reason``); 400 domain-invalid
                          (``QueryError``); 422 shape-invalid JSON; 503 bridge
                          saturated
``POST /query/batch``     one bridged ``execute_many`` over the service's
                          pool; 200 with per-query results — individual
                          rejections ride inside the body, the *batch*
                          itself only 503s on a saturated bridge
``POST /explain``         200 with the rendered plan; never executes
``GET /healthz``          200 while the process serves at all
``GET /readyz``           200 ready / 503 with a reason slug: bridge
                          saturated or closing
``GET /metrics``          Prometheus text exposition of the service's registry
==========================  ===================================================

Everything non-2xx (except 429, above) is an :class:`ErrorResponse`.
"""

from __future__ import annotations

import json

from pydantic import ValidationError

from repro.errors import GatewaySaturatedError, QueryError, ReproError
from repro.gateway.aservice import AsyncQueryService
from repro.gateway.schemas import (
    BatchQueryRequest,
    BatchQueryResponse,
    ErrorResponse,
    ExplainRequest,
    ExplainResponse,
    QueryRequest,
    QueryResponse,
)

__all__ = ["create_app"]

_JSON = [(b"content-type", b"application/json")]
_TEXT = [(b"content-type", b"text/plain; version=0.0.4; charset=utf-8")]


async def _read_body(receive) -> bytes:
    chunks = []
    while True:
        message = await receive()
        if message["type"] != "http.request":  # pragma: no cover - disconnect
            break
        chunks.append(message.get("body", b""))
        if not message.get("more_body", False):
            break
    return b"".join(chunks)


async def _send_response(
    send, status: int, body: bytes, headers: list[tuple[bytes, bytes]]
) -> None:
    headers = headers + [(b"content-length", str(len(body)).encode())]
    await send(
        {"type": "http.response.start", "status": status, "headers": headers}
    )
    await send({"type": "http.response.body", "body": body})


async def _send_json(send, status: int, model) -> None:
    await _send_response(
        send, status, model.model_dump_json().encode(), list(_JSON)
    )


async def _send_error(send, status: int, error: str, detail: str = "") -> None:
    await _send_json(send, status, ErrorResponse(error=error, detail=detail))


def create_app(gateway: AsyncQueryService):
    """Build the ASGI app serving ``gateway``.

    ``/metrics`` renders the gateway service's own registry — the one
    every query it answers is recorded in.
    """
    registry = gateway.service.metrics

    async def handle_query(receive, send) -> None:
        body = await _read_body(receive)
        try:
            request = QueryRequest.model_validate_json(body)
        except ValidationError as exc:
            await _send_error(send, 422, "validation_error", str(exc))
            return
        try:
            query = request.to_query()
            budget = request.to_budget()
        except QueryError as exc:
            await _send_error(send, 400, "query_error", str(exc))
            return
        try:
            result = await gateway.submit(
                query,
                budget=budget,
                tenant=request.tenant,
                priority=request.priority,
            )
        except GatewaySaturatedError as exc:
            await _send_error(send, 503, "gateway_saturated", str(exc))
            return
        except QueryError as exc:  # unknown priority class
            await _send_error(send, 400, "query_error", str(exc))
            return
        response = QueryResponse.from_result(result)
        await _send_json(send, 429 if response.rejected else 200, response)

    async def handle_batch(receive, send) -> None:
        body = await _read_body(receive)
        try:
            request = BatchQueryRequest.model_validate_json(body)
        except ValidationError as exc:
            await _send_error(send, 422, "validation_error", str(exc))
            return
        try:
            queries = [q.to_query() for q in request.queries]
            budgets = {q.to_budget() for q in request.queries}
        except QueryError as exc:
            await _send_error(send, 400, "query_error", str(exc))
            return
        if budgets != {None}:
            # execute_many applies one budget to the whole batch; mapping
            # heterogeneous per-query budgets onto it would silently
            # tighten or loosen someone's contract.
            await _send_error(
                send, 422, "validation_error",
                "per-query budgets are not supported in a batch",
            )
            return
        try:
            results = await gateway.submit_many(
                queries, tenant=request.tenant, priority=request.priority
            )
        except GatewaySaturatedError as exc:
            await _send_error(send, 503, "gateway_saturated", str(exc))
            return
        except QueryError as exc:
            await _send_error(send, 400, "query_error", str(exc))
            return
        await _send_json(send, 200, BatchQueryResponse.from_results(results))

    async def handle_explain(receive, send) -> None:
        body = await _read_body(receive)
        try:
            request = ExplainRequest.model_validate_json(body)
        except ValidationError as exc:
            await _send_error(send, 422, "validation_error", str(exc))
            return
        try:
            query = request.to_query()
        except QueryError as exc:
            await _send_error(send, 400, "query_error", str(exc))
            return
        try:
            rendered = await gateway.explain(query)
        except GatewaySaturatedError as exc:
            await _send_error(send, 503, "gateway_saturated", str(exc))
            return
        except QueryError as exc:
            await _send_error(send, 400, "query_error", str(exc))
            return
        await _send_json(send, 200, ExplainResponse(explain=rendered))

    async def handle_healthz(receive, send) -> None:
        if gateway.healthy():
            await _send_response(
                send, 200, b'{"status":"ok"}', list(_JSON)
            )
        else:  # pragma: no cover - only after close()
            await _send_error(send, 503, "unhealthy", "gateway closed")

    async def handle_readyz(receive, send) -> None:
        ready, reason = gateway.ready()
        pool = gateway.service.pool
        body = json.dumps(
            {
                "ready": ready,
                "reason": reason,
                "pending": gateway.pending,
                "max_pending": gateway.max_pending,
                # Zero workers is degraded, not down: searches run in process.
                "pool_workers": pool.live_workers if pool is not None else 0,
            }
        ).encode()
        await _send_response(send, 200 if ready else 503, body, list(_JSON))

    async def handle_metrics(receive, send) -> None:
        rendered = registry.render_prometheus().encode()
        await _send_response(send, 200, rendered, list(_TEXT))

    routes = {
        ("POST", "/query"): handle_query,
        ("POST", "/query/batch"): handle_batch,
        ("POST", "/explain"): handle_explain,
        ("GET", "/healthz"): handle_healthz,
        ("GET", "/readyz"): handle_readyz,
        ("GET", "/metrics"): handle_metrics,
    }
    paths = {path for _, path in routes}

    async def app(scope, receive, send) -> None:
        if scope["type"] != "http":  # pragma: no cover - no websockets here
            raise RuntimeError(f"unsupported ASGI scope {scope['type']!r}")
        method = scope["method"].upper()
        path = scope["path"]
        handler = routes.get((method, path))
        if handler is None:
            if path in paths:
                await _send_error(
                    send, 405, "method_not_allowed", f"{method} {path}"
                )
            else:
                await _send_error(send, 404, "not_found", path)
            return
        try:
            await handler(receive, send)
        except ReproError as exc:  # pragma: no cover - defensive catch-all
            await _send_error(send, 500, "internal_error", str(exc))

    return app
