"""A minimal asyncio HTTP/1.1 server for the gateway's ASGI app.

:class:`HTTPServer`, built on :func:`asyncio.start_server`, speaks enough
HTTP/1.1 for the gateway's own contract — JSON request/response bodies
with ``Content-Length``, keep-alive, graceful shutdown.  It is
deliberately *not* a general web server: no chunked transfer-encoding
(411 when asked), no TLS, no websockets, bounded header/body sizes.
Framing is single-pass: the request line and headers are one CRLF-framed
block read with one ``readuntil`` (a bare-LF blank line does not end it),
and each response leaves in one ``write``.  A request refused before its
body is read (400, 411, 413, 431) ends in a bounded lingering close, so
the client reads the status instead of a TCP reset.

Everything here is stdlib + the app callable, so ``repro serve`` needs no
server package.  The app is plain ASGI, so embedders that want another
server can hand it one themselves.
"""

from __future__ import annotations

import asyncio
import contextlib

__all__ = ["HTTPServer", "serve"]

#: Request-line + headers cap (431 past it): the request is hostile, not big.
MAX_HEADER_BYTES = 64 * 1024
#: Body cap — the largest legitimate gateway request is a batch of a few
#: thousand queries, far below this.
MAX_BODY_BYTES = 16 * 1024 * 1024
#: How long a refused request's unread input is discarded before the
#: close: closing with input still unread makes the kernel send a reset,
#: which can destroy the refusal before the client reads it.
LINGER_SECONDS = 1.0

_STATUS_PHRASES = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 411: "Length Required",
    413: "Payload Too Large", 422: "Unprocessable Entity",
    429: "Too Many Requests", 431: "Request Header Fields Too Large",
    500: "Internal Server Error", 503: "Service Unavailable",
}


def _phrase(status: int) -> str:
    return _STATUS_PHRASES.get(status, "Unknown")


class HTTPServer:
    """Serve one ASGI app over HTTP/1.1 on an asyncio stream server."""

    def __init__(self, app, host: str = "127.0.0.1", port: int = 8000):
        self._app = app
        self._host = host
        self._port = port
        self._server: asyncio.Server | None = None

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` after :meth:`start`)."""
        if self._server is not None and self._server.sockets:
            return self._server.sockets[0].getsockname()[1]
        return self._port

    @property
    def host(self) -> str:
        return self._host

    async def start(self) -> None:
        """Bind and start accepting connections (returns immediately)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self._host, self._port,
            limit=MAX_HEADER_BYTES,
        )

    async def stop(self) -> None:
        """Stop accepting and wait for the listener to close.

        In-flight request handlers finish on their own connection tasks;
        the gateway's ``close()`` (run by the caller after this) drains
        the worker pool behind them.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def serve_forever(self) -> None:
        """Block until cancelled (the signal-driven ``repro serve`` loop)."""
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    # ---------------------------------------------------------- connection
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        # Fixed for the connection's lifetime: looked up once, not per request.
        client = writer.get_extra_info("peername")
        server = (self._host, self.port)
        try:
            while True:
                keep_alive = await self._handle_one(reader, writer, client, server)
                if not keep_alive:
                    break
        except (asyncio.IncompleteReadError, ConnectionResetError, BrokenPipeError):
            pass  # client went away mid-request; nothing to answer
        finally:
            with contextlib.suppress(ConnectionResetError, BrokenPipeError):
                writer.close()
                await writer.wait_closed()

    async def _handle_one(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        client: tuple,
        server: tuple,
    ) -> bool:
        """Serve one request; returns whether to keep the connection."""
        try:
            # The request line and every header in one read: the stream's
            # limit (MAX_HEADER_BYTES) caps the block, not each line.
            block = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as exc:
            if exc.partial:
                raise  # client went away mid-request
            return False  # clean EOF between requests
        except asyncio.LimitOverrunError:
            await self._refuse(reader, writer, 431)
            return False
        request_line, *header_lines = block[:-4].split(b"\r\n")
        try:
            method, target, version = request_line.decode("latin-1").split(" ", 2)
        except ValueError:
            await self._refuse(reader, writer, 400)
            return False
        headers: list[tuple[bytes, bytes]] = []
        for line in header_lines:
            name, _, value = line.partition(b":")
            headers.append((name.strip().lower(), value.strip()))

        header_map = dict(headers)
        if b"chunked" in header_map.get(b"transfer-encoding", b"").lower():
            await self._refuse(reader, writer, 411)
            return False
        try:
            content_length = int(header_map.get(b"content-length", b"0") or 0)
        except ValueError:
            await self._refuse(reader, writer, 400)
            return False
        if content_length > MAX_BODY_BYTES:
            await self._refuse(reader, writer, 413)
            return False
        body = (
            await reader.readexactly(content_length) if content_length else b""
        )

        path, _, query_string = target.partition("?")
        scope = {
            "type": "http",
            "asgi": {"version": "3.0", "spec_version": "2.3"},
            "http_version": version.removeprefix("HTTP/"),
            "method": method.upper(),
            "scheme": "http",
            "path": path,
            "raw_path": target.encode("latin-1"),
            "query_string": query_string.encode("latin-1"),
            "root_path": "",
            "headers": headers,
            "client": client,
            "server": server,
        }

        keep_alive = (
            header_map.get(b"connection", b"").lower() != b"close"
            and version != "HTTP/1.0"
        )
        received = False

        async def receive():
            nonlocal received
            if received:
                # One-shot body: a second read means the app awaits a
                # disconnect we never deliver mid-request — signal EOF.
                return {"type": "http.request", "body": b"", "more_body": False}
            received = True
            return {"type": "http.request", "body": body, "more_body": False}

        head = b""
        written = False

        async def send(message):
            # The status line and headers wait for the body so a response
            # leaves in one write (one send, one TCP segment when it fits).
            nonlocal head, written
            if message["type"] == "http.response.start":
                status = message["status"]
                lines = [f"HTTP/1.1 {status} {_phrase(status)}\r\n".encode()]
                for name, value in message.get("headers", []):
                    lines.append(name + b": " + value + b"\r\n")
                lines.append(
                    b"connection: keep-alive\r\n\r\n"
                    if keep_alive
                    else b"connection: close\r\n\r\n"
                )
                head = b"".join(lines)
            elif message["type"] == "http.response.body":
                writer.write(head + message.get("body", b""))
                head, written = b"", True
                if not message.get("more_body", False):
                    await writer.drain()

        try:
            await self._app(scope, receive, send)
        except Exception:
            if not written:
                await self._plain_error(writer, 500)
            return False
        return keep_alive

    @staticmethod
    async def _plain_error(writer: asyncio.StreamWriter, status: int) -> None:
        body = f'{{"error":"{_phrase(status)}"}}'.encode()
        writer.write(
            f"HTTP/1.1 {status} {_phrase(status)}\r\n"
            f"content-type: application/json\r\n"
            f"content-length: {len(body)}\r\n"
            f"connection: close\r\n\r\n".encode() + body
        )
        with contextlib.suppress(ConnectionResetError, BrokenPipeError):
            await writer.drain()

    @classmethod
    async def _refuse(
        cls, reader: asyncio.StreamReader, writer: asyncio.StreamWriter, status: int
    ) -> None:
        """Answer ``status`` to a request whose input is not all read, then
        linger: shut the write side and discard input until EOF or
        ``LINGER_SECONDS``, so the close that follows sends no reset."""
        await cls._plain_error(writer, status)
        with contextlib.suppress(OSError, asyncio.TimeoutError):
            writer.write_eof()
            await asyncio.wait_for(_discard(reader), LINGER_SECONDS)


async def _discard(reader: asyncio.StreamReader) -> None:
    while await reader.read(64 * 1024):
        pass


async def serve(
    app,
    host: str = "127.0.0.1",
    port: int = 8000,
    ready_callback=None,
    shutdown_event: asyncio.Event | None = None,
) -> None:
    """Serve ``app`` until ``shutdown_event`` is set (or forever).

    ``ready_callback(host, port)`` fires once the socket is bound — the
    CLI prints the listening line from it, tests learn the ephemeral port.
    """
    server = HTTPServer(app, host=host, port=port)
    await server.start()
    if ready_callback is not None:
        ready_callback(server.host, server.port)
    if shutdown_event is None:
        await server.serve_forever()
        return
    try:
        await shutdown_event.wait()
    finally:
        await server.stop()
