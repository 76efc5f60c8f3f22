"""The stdlib HTTP/1.1 server over a real loopback socket.

One test module with real sockets (ephemeral ports, loopback only): the
ASGI-level behaviour is covered socket-free in ``test_gateway_e2e.py``,
so these tests focus on what only a wire exercises — request parsing,
keep-alive, Content-Length framing, protocol errors, shutdown.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import socket

from repro.gateway import AsyncQueryService
from repro.gateway.app import create_app
from repro.gateway.server import MAX_BODY_BYTES, HTTPServer
from repro.service.service import QueryService


def _serve(gateway_database, client_fn):
    """Run the server on an ephemeral port, drive it with ``client_fn``
    (called in a worker thread with the port), and shut down cleanly."""

    async def main():
        service = QueryService(gateway_database, "collaborative", result_cache=8)
        gateway = AsyncQueryService(service, max_workers=2)
        server = HTTPServer(create_app(gateway), "127.0.0.1", 0)
        await server.start()
        loop = asyncio.get_running_loop()
        try:
            return await loop.run_in_executor(None, client_fn, server.port)
        finally:
            await server.stop()
            await gateway.close()

    return asyncio.run(main())


def test_query_and_keepalive_over_real_socket(gateway_database):
    def drive(port: int):
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        body = json.dumps({"locations": [3, 47], "preference": "river", "k": 3})
        statuses, caches = [], []
        for _ in range(2):  # same connection: keep-alive must hold
            connection.request(
                "POST", "/query", body=body,
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            payload = json.loads(response.read())
            statuses.append(response.status)
            caches.append(payload["stats"]["cache"])
        connection.request("GET", "/readyz")
        ready = connection.getresponse()
        ready_status, ready_body = ready.status, json.loads(ready.read())
        connection.close()
        return statuses, caches, ready_status, ready_body

    statuses, caches, ready_status, ready_body = _serve(gateway_database, drive)
    assert statuses == [200, 200]
    assert caches == ["", "result"]  # the repeat hit the result cache
    assert ready_status == 200 and ready_body["ready"] is True


def test_protocol_errors_over_real_socket(gateway_database):
    def drive(port: int):
        results = {}
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        connection.request("GET", "/nope")
        results["not_found"] = connection.getresponse().status
        connection.close()

        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        connection.request("POST", "/query", body=b"{broken")
        results["bad_json"] = connection.getresponse().status
        connection.close()

        # Chunked transfer-encoding is out of scope: 411, not a hang.
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        connection.putrequest("POST", "/query", skip_accept_encoding=True)
        connection.putheader("Transfer-Encoding", "chunked")
        connection.endheaders()
        results["chunked"] = connection.getresponse().status
        connection.close()
        return results

    results = _serve(gateway_database, drive)
    assert results["not_found"] == 404
    assert results["bad_json"] == 422
    assert results["chunked"] == 411


def test_connection_close_honored(gateway_database):
    def drive(port: int):
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        connection.request("GET", "/healthz", headers={"Connection": "close"})
        response = connection.getresponse()
        status = response.status
        header = response.getheader("connection")
        response.read()
        connection.close()
        return status, header

    status, header = _serve(gateway_database, drive)
    assert status == 200
    assert header == "close"


def _raw_exchange(port: int, request: bytes) -> bytes:
    """Send raw bytes on a fresh connection; everything read until EOF."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        chunks = []
        try:
            sock.sendall(request)
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        except ConnectionResetError:
            pass  # a reset is no reply, like an empty read
    return b"".join(chunks)


def test_oversized_header_block_gets_431_and_server_keeps_serving(
    gateway_database,
):
    long_line = b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\nHost: x\r\n\r\n"
    long_header = (
        b"GET /healthz HTTP/1.1\r\nX-Big: " + b"a" * 70_000 + b"\r\n\r\n"
    )
    many_headers = (
        b"GET /healthz HTTP/1.1\r\n"
        + b"".join(b"X-H%d: " % i + b"a" * 1000 + b"\r\n" for i in range(80))
        + b"\r\n"
    )

    def drive(port: int):
        replies = [
            _raw_exchange(port, request)
            for request in (long_line, long_header, many_headers)
        ]
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        connection.request("GET", "/healthz")
        health = connection.getresponse()
        health_status = health.status
        health.read()
        connection.close()
        return replies, health_status

    replies, health_status = _serve(gateway_database, drive)
    for reply in replies:
        assert reply.startswith(b"HTTP/1.1 431 "), reply[:80]
        assert reply.endswith(b'{"error":"Request Header Fields Too Large"}')
    assert health_status == 200


def test_refused_oversized_requests_read_their_status_not_a_reset(
    gateway_database,
):
    """A body past ``MAX_BODY_BYTES`` and a header block past twice the
    stream limit (where asyncio stops reading) leave input unread when the
    server refuses them; the lingering close discards it, so the client
    reads 413 and 431 rather than a connection reset."""
    size = 17 * 1024 * 1024
    assert size > MAX_BODY_BYTES
    big_body = (
        b"POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n" % size
        + b"a" * size
    )
    big_headers = (
        b"GET /healthz HTTP/1.1\r\nX-Big: " + b"a" * (130 * 1024) + b"\r\n\r\n"
    )

    def drive(port: int):
        replies = [_raw_exchange(port, request) for request in (big_body, big_headers)]
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        connection.request("GET", "/healthz")
        health = connection.getresponse()
        health_status = health.status
        health.read()
        connection.close()
        return replies, health_status

    (too_large, too_long), health_status = _serve(gateway_database, drive)
    assert too_large.startswith(b"HTTP/1.1 413 "), too_large[:80]
    assert too_large.endswith(b'{"error":"Payload Too Large"}')
    assert too_long.startswith(b"HTTP/1.1 431 "), too_long[:80]
    assert health_status == 200


def test_one_write_per_response_on_one_keepalive_connection(
    gateway_database, monkeypatch
):
    """Status line, headers and body leave in a single write — a miss, a
    hit, a health check, a 404 and a 422 alike."""
    writes: list[bytes] = []
    write = asyncio.StreamWriter.write

    def counting_write(self, data):
        writes.append(bytes(data))
        return write(self, data)

    monkeypatch.setattr(asyncio.StreamWriter, "write", counting_write)
    query = json.dumps({"locations": [3, 47], "preference": "river", "k": 3})
    requests = {
        "miss": ("POST", "/query", query),
        "hit": ("POST", "/query", query),
        "healthz": ("GET", "/healthz", None),
        "not_found": ("GET", "/nope", None),
        "invalid": ("POST", "/query", "{broken"),
    }

    def drive(port: int):
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        observed = {}
        for name, (method, path, body) in requests.items():
            before = len(writes)
            connection.request(method, path, body=body)
            response = connection.getresponse()
            payload = response.read()
            observed[name] = (
                response.status,
                response.getheader("connection"),
                writes[before:],
                payload,
            )
        connection.close()
        return observed

    observed = _serve(gateway_database, drive)
    assert {name: status for name, (status, *_) in observed.items()} == {
        "miss": 200, "hit": 200, "healthz": 200, "not_found": 404, "invalid": 422,
    }
    assert json.loads(observed["hit"][3])["stats"]["cache"] == "result"
    for name, (_, connection_header, sent, payload) in observed.items():
        assert connection_header == "keep-alive", name
        assert len(sent) == 1, (name, sent)
        assert sent[0].startswith(b"HTTP/1.1 ") and sent[0].endswith(payload)
