"""An in-process ASGI test client: drive the app with no socket.

The e2e gateway tests need to call the exact app object the server would
run, through the exact ASGI messages a server would send — but opening
real sockets in unit tests buys flakiness (ports, firewalls, timeouts)
for no coverage.  :class:`ASGITestClient` plays the server side of the
ASGI conversation in-process: it builds the ``http`` scope, feeds the
body as one ``http.request`` message, and collects the response messages.

Stdlib-only.  The sync :meth:`request` wrapper runs each call on a fresh
event loop, which mirrors production more closely than it may look: the
gateway's bridged work lives on the :class:`AsyncQueryService`'s own
thread pool (not the loop), so state carried *between* requests —
caches, admission counters — is exactly the state a long-lived
server carries between requests.
"""

from __future__ import annotations

import asyncio
import json as _json

__all__ = ["ASGITestClient", "TestResponse"]


class TestResponse:
    """One collected HTTP response."""

    def __init__(self, status: int, headers: list[tuple[bytes, bytes]], body: bytes):
        self.status = status
        self.headers = {
            name.decode("latin-1").lower(): value.decode("latin-1")
            for name, value in headers
        }
        self.body = body

    @property
    def text(self) -> str:
        return self.body.decode()

    def json(self):
        return _json.loads(self.body)

    def __repr__(self) -> str:
        return f"TestResponse(status={self.status}, body={self.body[:80]!r})"


class ASGITestClient:
    """Call an ASGI app directly, one request per (fresh) event loop."""

    def __init__(self, app):
        self._app = app

    async def arequest(
        self,
        method: str,
        path: str,
        json=None,
        body: bytes | None = None,
        headers: list[tuple[bytes, bytes]] | None = None,
    ) -> TestResponse:
        if json is not None:
            body = _json.dumps(json).encode()
        body = body or b""
        request_headers = list(headers or [])
        if json is not None:
            request_headers.append((b"content-type", b"application/json"))
        request_headers.append(
            (b"content-length", str(len(body)).encode())
        )
        query_path, _, query_string = path.partition("?")
        scope = {
            "type": "http",
            "asgi": {"version": "3.0", "spec_version": "2.3"},
            "http_version": "1.1",
            "method": method.upper(),
            "scheme": "http",
            "path": query_path,
            "raw_path": path.encode(),
            "query_string": query_string.encode(),
            "root_path": "",
            "headers": request_headers,
            "client": ("testclient", 0),
            "server": ("testserver", 80),
        }

        sent = False

        async def receive():
            nonlocal sent
            if sent:
                return {"type": "http.request", "body": b"", "more_body": False}
            sent = True
            return {"type": "http.request", "body": body, "more_body": False}

        status: list[int] = []
        response_headers: list[tuple[bytes, bytes]] = []
        chunks: list[bytes] = []

        async def send(message):
            if message["type"] == "http.response.start":
                status.append(message["status"])
                response_headers.extend(message.get("headers", []))
            elif message["type"] == "http.response.body":
                chunks.append(message.get("body", b""))

        await self._app(scope, receive, send)
        if not status:
            raise AssertionError("app sent no http.response.start")
        return TestResponse(status[0], response_headers, b"".join(chunks))

    def request(self, method: str, path: str, **kwargs) -> TestResponse:
        return asyncio.run(self.arequest(method, path, **kwargs))

    def get(self, path: str, **kwargs) -> TestResponse:
        return self.request("GET", path, **kwargs)

    def post(self, path: str, **kwargs) -> TestResponse:
        return self.request("POST", path, **kwargs)
