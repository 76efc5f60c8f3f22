"""A lean closed-loop HTTP load generator over raw keep-alive sockets.

On the cache-hit lane the server answers in ~0.3 ms, so a convenient
client (``http.client`` builds and parses header objects per request)
costs about as much CPU as the server and the benchmark would measure
itself.  This one does the minimum the gateway's contract needs: request
bytes are encoded before the clock starts, the reply is read with a
``Content-Length`` scan, and JSON is decoded by the caller after timing.

Load model: **closed loop**.  Each connection sends its next request only
when the previous reply has been read in full; ``connections`` is the
client count.  One connection runs on the calling thread, more run one
thread each (callers never ask for more than ``nproc``).

A single-connection phase **busy-polls** the socket for up to
:data:`SPIN_SECONDS` before it sleeps in ``select``.  A sleeping client
adds its own wake-up (~40 us here, and 2-3x that when the shared host is
busy) to every sub-millisecond round trip; polling keeps that out of the
program's latency and made the hit lane's run-to-run spread the smallest of
the variants tried.  Multi-connection phases never poll: with as many
pollers as cores the server would lose its core.

Because a polling generator burns a core by design, its *work* is reported
instead of its CPU: the time spent sending and in parsing/bookkeeping
between a reply's last byte and the next send (``busy_s``), as a share of
the wall clock — so a reader can still tell when the generator, not the
program, is what was measured.
"""

from __future__ import annotations

import itertools
import json
import select
import socket
import threading
import time
from dataclasses import dataclass, field

#: Marker pydantic's compact JSON puts in a result-cache hit's ``stats``.
HIT_MARKER = b'"cache":"result"'

#: Generator work share above which a phase's numbers describe the generator.
LOADGEN_SHARE_WARN = 0.35

#: How long a single-connection phase busy-polls for a reply before sleeping.
SPIN_SECONDS = 0.001


def encode_request(method: str, path: str, body: dict | None = None) -> bytes:
    """One complete HTTP/1.1 request, ready for ``sendall``."""
    payload = b"" if body is None else json.dumps(body).encode()
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        "host: bench\r\n"
        "content-type: application/json\r\n"
        f"content-length: {len(payload)}\r\n\r\n"
    )
    return head.encode("latin-1") + payload


class Connection:
    """One keep-alive connection speaking just enough HTTP/1.1.

    ``spin_s`` > 0 busy-polls for that long per reply before sleeping.
    ``busy_s`` accumulates the generator's own work: time in ``sendall``
    plus whatever the caller adds between replies.
    """

    def __init__(
        self, host: str, port: int, timeout: float = 120.0, spin_s: float = 0.0
    ):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock.setblocking(False)  # every wait below is explicit
        self._timeout = timeout
        self._spin_s = spin_s
        self.busy_s = 0.0

    def _receive(self, spin_until: float) -> bytes:
        """The next chunk of the reply: poll until ``spin_until``, then sleep."""
        sock = self._sock
        while True:
            try:
                chunk = sock.recv(65536)
            except BlockingIOError:
                if time.perf_counter() < spin_until:
                    continue
                if not select.select([sock], [], [], self._timeout)[0]:
                    raise TimeoutError("no reply within the timeout") from None
                continue
            if not chunk:
                raise ConnectionError("server closed the connection mid-reply")
            return chunk

    def exchange(self, request: bytes) -> tuple[int, bytes]:
        """Send one request, read one full reply: ``(status, body)``."""
        started = time.perf_counter()
        unsent = memoryview(request)
        while unsent:
            try:
                unsent = unsent[self._sock.send(unsent) :]
            except BlockingIOError:
                select.select([], [self._sock], [], self._timeout)
        sent = time.perf_counter()
        self.busy_s += sent - started
        spin_until = sent + self._spin_s
        buffer = self._receive(spin_until)
        while True:
            end = buffer.find(b"\r\n\r\n")
            if end >= 0:
                break
            buffer += self._receive(spin_until)
        head = buffer[:end].lower()
        status = int(head[9:12])
        at = head.find(b"content-length:")
        if at < 0:
            raise ConnectionError("reply without content-length")
        stop = head.find(b"\r\n", at)
        length = int(head[at + 15 : stop if stop >= 0 else len(head)])
        body = buffer[end + 4 :]
        while len(body) < length:
            body += self._receive(spin_until)
        return status, body[:length]

    def close(self) -> None:
        self._sock.close()

    def __enter__(self) -> Connection:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclass
class Phase:
    """What one closed-loop phase sent and saw.

    ``positions[i]`` is the i-th completed request's place in the send
    order (its request is ``requests[position % len(requests)]``);
    ``bodies`` holds the reply bodies the caller asked to keep, by
    position.  ``error`` is set when a transport failure (for example the
    server dying) ended the phase early.
    """

    name: str
    connections: int
    planned: int | None
    wall_s: float = 0.0
    busy_s: float = 0.0  # generator work, summed over connections
    positions: list[int] = field(default_factory=list)
    latencies_ms: list[float] = field(default_factory=list)
    statuses: list[int] = field(default_factory=list)
    hits: int = 0
    bodies: dict[int, bytes] = field(default_factory=dict)
    truncated: bool = False
    error: str | None = None

    @property
    def sent(self) -> int:
        return len(self.positions)

    @property
    def ok(self) -> int:
        return sum(1 for status in self.statuses if status == 200)

    @property
    def qps(self) -> float:
        return self.ok / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def hit_share(self) -> float:
        return self.hits / self.sent if self.sent else 0.0

    @property
    def loadgen_share(self) -> float:
        """Share of a generator thread's wall clock spent on its own work."""
        clock = self.wall_s * self.connections
        return self.busy_s / clock if clock > 0 else 0.0


def run_phase(
    name: str,
    address: tuple[str, int],
    requests: list[bytes],
    *,
    connections: int,
    count: int | None,
    deadline_s: float,
    keep=lambda position: True,
) -> Phase:
    """Drive one closed-loop phase.

    Sends ``requests`` in order (cycling when ``count`` exceeds their
    number or is ``None``) over ``connections`` keep-alive connections
    until ``count`` requests are done or ``deadline_s`` has passed,
    whichever is first.  ``keep(position)`` says whose reply body to
    retain for decoding after the clock stops.
    """
    phase = Phase(name=name, connections=connections, planned=count)
    counter = itertools.count()  # next() is atomic under the GIL
    clock = time.perf_counter
    total = len(requests)

    def drive(connection: Connection, tally: Phase) -> None:
        try:
            while True:
                position = next(counter)
                if count is not None and position >= count:
                    break
                request = requests[position % total]
                started = clock()
                if started >= stop_at:
                    phase.truncated = count is not None
                    break
                status, body = connection.exchange(request)
                ended = clock()
                tally.positions.append(position)
                tally.latencies_ms.append((ended - started) * 1000.0)
                tally.statuses.append(status)
                if HIT_MARKER in body:
                    tally.hits += 1
                if keep(position):
                    tally.bodies[position] = body
                connection.busy_s += clock() - ended
        except (OSError, ValueError) as exc:
            phase.error = f"{type(exc).__name__}: {exc}"

    # One private tally per connection (no shared appends), merged below.
    tallies = [Phase(name, 1, None) for _ in range(connections)]
    opened: list[Connection] = []
    try:
        spin_s = SPIN_SECONDS if connections == 1 else 0.0
        for _ in range(connections):
            opened.append(Connection(*address, spin_s=spin_s))
        began = clock()
        stop_at = began + deadline_s
        if connections == 1:
            drive(opened[0], tallies[0])
        else:
            threads = [
                threading.Thread(target=drive, args=pair)
                for pair in zip(opened, tallies)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        phase.wall_s = clock() - began
        phase.busy_s = sum(connection.busy_s for connection in opened)
    except OSError as exc:
        phase.error = f"{type(exc).__name__}: {exc}"
    finally:
        for connection in opened:
            connection.close()
    for tally in tallies:
        phase.positions.extend(tally.positions)
        phase.latencies_ms.extend(tally.latencies_ms)
        phase.statuses.extend(tally.statuses)
        phase.bodies.update(tally.bodies)
        phase.hits += tally.hits
    return phase
