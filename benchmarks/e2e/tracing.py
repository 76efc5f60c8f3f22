"""The traced run: per-layer metrics, measured from outside the program.

``--trace 1`` does not touch ``src/``.  It loads the same files, builds the
exact ``repro serve`` stack **in this process** (``QueryService`` ->
``AsyncQueryService(max_workers=8)`` -> ``create_app`` ->
``gateway.server.HTTPServer`` on loopback, in a background thread) and
injects span-recording subclasses at the public constructor seams:

- the ASGI app callable                      -> ``gateway.app``
- an ``AsyncQueryService`` subclass (submit) -> ``gateway.aservice.submit``
- a ``ResultCache`` subclass (get/put/on_event)
- an ``AdmissionController`` subclass (admit/release)
- a searcher subclass swapped into ``core.registry.ALGORITHMS``
  (plan/execute), which also captures each result's ``SearchStats``.

Spans are (name, start, end, parent, request) rows kept in memory.  The
replay has **one request in flight**, so spans map to requests by sequence
and worker-thread spans hang from the open ``submit`` span.  A layer's self
time is its span minus its children; ``gateway.server.self_ms`` is client
wall minus the app span; the residual inside ``submit`` is
``gateway.aservice.self_ms``.  The self-time rows therefore sum to the
client wall by construction — they are reported as **means** per request
(means add up; medians do not).

In-program tracing (the production ``Tracer``) is ROADMAP item 5; until it
lands these numbers include this recorder's overhead
(``trace.overhead_share``) and, because client and server share one
interpreter here, GIL hand-offs the real deployment does not have.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import statistics
import threading
import time
from contextlib import contextmanager
from pathlib import Path

from data import load_database, query_from_body
from loadgen import Connection, encode_request, run_phase
from report import RunResult, percentile
from workloads import (
    HTTP_LANES,
    INGEST_WRITE_EVERY,
    RESULT_CACHE_CAPACITY,
    ingest_schedule,
    ingest_writes,
    phase_rows,
    schedule_rng,
    timed_write,
)

from repro.core.registry import ALGORITHMS
from repro.gateway.app import create_app
from repro.gateway.aservice import AsyncQueryService
from repro.gateway.schemas import QueryRequest, QueryResponse
from repro.gateway.server import HTTPServer
from repro.network.csr import sssp_array
from repro.network.expansion import IncrementalExpansion
from repro.obs.metrics import MetricsRegistry
from repro.perf.result_cache import ResultCache
from repro.service.admission import AdmissionController
from repro.service.service import QueryService

#: Requests (ops for ``ingest_mix``) replayed under the recorder.
TRACE_REPLAY = {
    "cold_miss": 60,
    "sharded_cold": 30,
    "cache_hit": 2000,
    "ingest_mix": 600,
}
#: Requests of the untraced two-connection burst (pending depth, c2 tail).
C2_BURST = {"cold_miss": 20, "sharded_cold": 12, "cache_hit": 2000}

KERNEL_SOURCES = 16
KERNEL_SETTLES = 5000

#: Every per-layer metric: (name, unit, better).  ``BENCHMARK.json`` mirrors
#: this list; a traced run prints each exactly once (``n/a`` where the layer
#: does no work on that workload).
PER_LAYER = [
    # -- time: self-time rows (mean per request; they sum to client wall)
    ("gateway.server.self_ms", "ms", "lower"),
    ("gateway.app.self_ms", "ms", "lower"),
    ("gateway.aservice.self_ms", "ms", "lower"),
    ("gateway.aservice.dispatch_ms", "ms", "lower"),
    ("service.service.self_ms", "ms", "lower"),
    ("service.service.record_ms", "ms", "lower"),
    ("service.admission.admit_us", "us", "lower"),
    ("perf.result_cache.probe_us", "us", "lower"),
    ("perf.result_cache.put_us", "us", "lower"),
    ("core.search.plan_ms", "ms", "lower"),
    ("core.search.execute_ms", "ms", "lower"),
    ("shard.searcher.plan_ms", "ms", "lower"),
    ("shard.searcher.execute_ms", "ms", "lower"),
    ("trace.client_wall_ms", "ms", "lower"),
    # -- time: standalone replays and write-side rows
    ("gateway.schemas.parse_us", "us", "lower"),
    ("gateway.schemas.serialise_us", "us", "lower"),
    ("text.index.candidates_us", "us", "lower"),
    ("network.expansion.settle_us", "us", "lower"),
    ("network.csr.sssp_ms", "ms", "lower"),
    ("obs.metrics.render_ms", "ms", "lower"),
    ("perf.result_cache.on_event_us", "us", "lower"),
    ("index.database.add_ms", "ms", "lower"),
    ("index.database.remove_ms", "ms", "lower"),
    ("index.database.write_p90_ms", "ms", "lower"),
    ("parallel.executor.scatter_overhead_ms", "ms", "lower"),
    ("core.search.us_per_expanded_vertex", "us", "lower"),
    # -- set-up
    ("network.io.load_s", "s", "lower"),
    ("trajectory.io.load_s", "s", "lower"),
    ("index.database.build_s", "s", "lower"),
    ("index.database.landmarks_s", "s", "lower"),
    ("service.service.build_s", "s", "lower"),
    # -- work and waste (counts repeat exactly per seed)
    ("core.search.expanded_vertices", "count", "lower"),
    ("core.search.expanded_vertices_total", "count", "lower"),
    ("core.search.visited_trajectories", "count", "lower"),
    ("core.search.similarity_evaluations", "count", "lower"),
    ("core.search.refinements", "count", "lower"),
    ("core.search.pruned_trajectories", "count", "higher"),
    ("core.search.expand_batches", "count", "lower"),
    ("core.search.visited_per_result", "ratio", "lower"),
    ("core.search.candidate_ratio", "ratio", "lower"),
    ("core.search.drift_ratio", "ratio", "higher"),
    ("text.index.candidates_per_query", "count", "lower"),
    ("perf.result_cache.hit_share", "ratio", "higher"),
    ("perf.result_cache.evictions", "count", "lower"),
    ("perf.result_cache.entries_dropped_per_event", "count", "lower"),
    ("perf.result_cache.entries_retained_per_event", "count", "higher"),
    ("perf.query_cache.distance_hit_share", "ratio", "higher"),
    ("perf.query_cache.text_hit_share", "ratio", "higher"),
    ("shard.searcher.shards_executed", "count", "lower"),
    ("shard.searcher.shards_pruned", "count", "higher"),
    ("shard.searcher.pruned_share", "ratio", "higher"),
    ("shard.searcher.shard_seconds", "s", "lower"),
    ("shard.searcher.critical_seconds", "s", "lower"),
    ("parallel.executor.fork_share", "ratio", "lower"),
    ("parallel.executor.retries", "count", "lower"),
    ("service.admission.rejected", "count", "lower"),
    ("gateway.aservice.pending_max", "count", "lower"),
    ("obs.metrics.series", "count", "lower"),
    # -- how far to trust the above
    ("loadgen.cpu_us_per_request", "us", "lower"),
    ("loadgen.share", "ratio", "lower"),
    ("loadgen.c2_latency_p90_ms", "ms", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
]


# ---------------------------------------------------------------- recorder
class _Span:
    """One open span; a plain context manager (a generator-based one costs
    several microseconds per span, which the hit lane would feel)."""

    __slots__ = ("_recorder", "_name", "_record", "_stack")

    def __init__(self, recorder: SpanRecorder, name: str):
        self._recorder = recorder
        self._name = name
        self._record = None

    def __enter__(self) -> int | None:
        recorder = self._recorder
        if not recorder.enabled:
            return None
        stack = self._stack = recorder._open.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else recorder.bridge_parent
        index = len(recorder.spans)
        self._record = [self._name, time.perf_counter(), None, parent, recorder.request]
        recorder.spans.append(self._record)
        stack.append(index)
        return index

    def __exit__(self, *exc) -> None:
        if self._record is not None:
            self._record[2] = time.perf_counter()
            self._stack.pop()


class SpanRecorder:
    """In-memory spans: ``[name, start, end, parent index, request]``."""

    def __init__(self):
        self.spans: list[list] = []
        self.enabled = False
        self.request = -1  # sequence number of the one request in flight
        self.bridge_parent: int | None = None  # parent of worker-thread spans
        self.results: list = []  # (SearchResult, k) per executed search
        self._open = threading.local()

    def span(self, name: str) -> _Span:
        """A context manager recording one span (yields its index, or
        ``None`` while recording is off)."""
        return _Span(self, name)

    def by_request(self) -> dict[int, dict[str, tuple[float, float]]]:
        """``{request: {span name: (start, end)}}`` (last span of a name wins;
        in a one-in-flight replay each name occurs once per request)."""
        grouped: dict[int, dict[str, tuple[float, float]]] = {}
        for name, start, end, _parent, request in self.spans:
            if end is not None:
                grouped.setdefault(request, {})[name] = (start, end)
        return grouped


# ------------------------------------------------- span-recording subclasses
class TracedResultCache(ResultCache):
    def __init__(self, capacity: int, recorder: SpanRecorder):
        super().__init__(capacity)
        self._recorder = recorder

    def get(self, key):
        with self._recorder.span("perf.result_cache.get"):
            return super().get(key)

    def put(self, key, result, budget=None, query=None):
        with self._recorder.span("perf.result_cache.put"):
            return super().put(key, result, budget, query)

    def on_event(self, event, database=None):
        with self._recorder.span("perf.result_cache.on_event"):
            return super().on_event(event, database)


class TracedAdmission(AdmissionController):
    def __init__(self, recorder: SpanRecorder):
        super().__init__(None)
        self._recorder = recorder

    def admit(self, tenant=None, priority=None, cost=None):
        with self._recorder.span("service.admission.admit"):
            return super().admit(tenant, priority, cost)

    def release(self, decision=None):
        with self._recorder.span("service.admission.release"):
            return super().release(decision)


class TracedAsyncQueryService(AsyncQueryService):
    def __init__(self, service: QueryService, recorder: SpanRecorder):
        super().__init__(service, max_workers=8)  # the `repro serve` default
        self._recorder = recorder
        self.pending_max = 0
        self.answers: list = []

    async def submit(self, query, budget=None, tenant=None, priority=None):
        self.pending_max = max(self.pending_max, self.pending + 1)
        with self._recorder.span("gateway.aservice.submit") as index:
            self._recorder.bridge_parent = index
            try:
                answer = await super().submit(query, budget, tenant, priority)
            finally:
                self._recorder.bridge_parent = None
        if index is not None:
            self.answers.append(answer)
        return answer


@contextmanager
def traced_algorithm(algorithm: str, recorder: SpanRecorder):
    """Swap a span-recording subclass into the registry entry, keeping the
    registry name (and with it fingerprints, tuning and metric labels)."""
    spec = ALGORITHMS[algorithm]

    class TracedSearcher(spec.factory):
        def plan(self, query):
            with recorder.span("search.plan"):
                return super().plan(query)

        def execute(self, plan, budget=None, **hooks):
            with recorder.span("search.execute"):
                result = super().execute(plan, budget, **hooks)
            if recorder.enabled:
                recorder.results.append((result, plan.query.k))
            return result

    ALGORITHMS[algorithm] = dataclasses.replace(spec, factory=TracedSearcher)
    try:
        yield
    finally:
        ALGORITHMS[algorithm] = spec


def traced_app(app, recorder: SpanRecorder):
    async def wrapper(scope, receive, send):
        if scope.get("path") != "/query":
            await app(scope, receive, send)
            return
        with recorder.span("gateway.app"):
            await app(scope, receive, send)

    return wrapper


class LoopbackServer:
    """``gateway.server.HTTPServer`` on an event loop in a background thread."""

    def __init__(self, app, gateway: AsyncQueryService):
        self._app = app
        self._gateway = gateway
        self._ready = threading.Event()
        self._stop: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread = threading.Thread(target=self._run, name="bench-http")
        self.address: tuple[str, int] | None = None

    def _run(self) -> None:
        asyncio.run(self._serve())

    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        server = HTTPServer(self._app, host="127.0.0.1", port=0)
        await server.start()
        self.address = (server.host, server.port)
        self._ready.set()
        try:
            await self._stop.wait()
        finally:
            await server.stop()
            await self._gateway.close()

    def __enter__(self) -> LoopbackServer:
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("in-process server did not start")
        return self

    def __exit__(self, *exc) -> None:
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=60)


# ------------------------------------------------------------- measurement
def _mean(values) -> float | None:
    values = list(values)
    return statistics.fmean(values) if values else None


def _median(values) -> float | None:
    values = list(values)
    return statistics.median(values) if values else None


def _share(part: float, whole: float) -> float | None:
    return part / whole if whole else None


def _timed(fn, *args) -> float:
    started = time.perf_counter()
    fn(*args)
    return time.perf_counter() - started


def replay_c1(
    address, requests: list[bytes], recorder: SpanRecorder, first_request: int = 0
) -> tuple[list[float], float]:
    """Send ``requests`` one at a time; ``(wall_ms per request, generator
    thread CPU seconds)``.  Sets the recorder's request sequence number."""
    walls = []
    with Connection(*address) as connection:
        cpu_before = time.thread_time()
        for offset, request in enumerate(requests):
            recorder.request = first_request + offset
            started = time.perf_counter()
            status, _ = connection.exchange(request)
            walls.append((time.perf_counter() - started) * 1000.0)
            if status != 200:
                raise RuntimeError(f"traced replay got HTTP {status}")
        cpu = time.thread_time() - cpu_before
    recorder.request = -1
    return walls, cpu


def self_time_rows(
    walls_ms: list[float], spans: dict[int, dict[str, tuple[float, float]]], http: bool
) -> dict[str, float]:
    """Mean self time per request of each layer, in ms, from the spans.

    ``http`` rows start at the client wall and the app span; without HTTP
    (``ingest_mix``) the outermost span is the service call itself and the
    residual belongs to ``service.service.self_ms``.
    """
    outer = "gateway.aservice.submit" if http else "service.service.submit"
    sums: dict[str, float] = {}

    def add(row: str, seconds: float) -> None:
        sums[row] = sums.get(row, 0.0) + seconds * 1000.0

    for request, wall_ms in enumerate(walls_ms):
        names = spans.get(request, {})
        duration = {name: end - start for name, (start, end) in names.items()}
        submit = duration.get(outer, 0.0)
        if http:
            app = duration.get("gateway.app", 0.0)
            add("gateway.server.self_ms", wall_ms / 1000.0 - app)
            add("gateway.app.self_ms", app - submit)
        probe = duration.get("perf.result_cache.get", 0.0)
        admit = duration.get("service.admission.admit", 0.0)
        plan = duration.get("search.plan", 0.0)
        execute = duration.get("search.execute", 0.0)
        put = duration.get("perf.result_cache.put", 0.0)
        dispatch = record = 0.0
        if http and "search.plan" in names and "service.admission.admit" in names:
            dispatch = names["search.plan"][0] - names["service.admission.admit"][1]
        if outer in names:
            # put end (miss) or probe end (hit) -> the call returns.
            last = names.get("perf.result_cache.put") or names.get(
                "perf.result_cache.get"
            )
            if last is not None:
                record = names[outer][1] - last[1]
        add("perf.result_cache.probe_us", probe)
        add("service.admission.admit_us", admit)
        if http:
            add("gateway.aservice.dispatch_ms", dispatch)
        add("search.plan", plan)
        add("search.execute", execute)
        add("perf.result_cache.put_us", put)
        add("service.service.record_ms", record)
        residual = submit - (probe + admit + dispatch + plan + execute + put + record)
        add("gateway.aservice.self_ms" if http else "service.service.self_ms", residual)
    count = max(1, len(walls_ms))
    return {row: total / count for row, total in sums.items()}


def search_counts(results: list, database_size: int) -> dict[str, float | None]:
    """Work/waste metrics from the captured ``SearchStats``."""
    stats = [result.stats for result, _k in results]
    if not stats:
        return {}
    expanded = sum(s.expanded_vertices for s in stats)
    planned = sum(s.shards_planned for s in stats)
    distance = sum(s.distance_cache_hits + s.distance_cache_misses for s in stats)
    text = sum(s.text_cache_hits + s.text_cache_misses for s in stats)
    return {
        "core.search.expanded_vertices": _median(s.expanded_vertices for s in stats),
        "core.search.expanded_vertices_total": float(expanded),
        "core.search.visited_trajectories": _median(
            s.visited_trajectories for s in stats
        ),
        "core.search.similarity_evaluations": _median(
            s.similarity_evaluations for s in stats
        ),
        "core.search.refinements": _median(s.refinements for s in stats),
        "core.search.pruned_trajectories": _median(s.pruned_trajectories for s in stats),
        "core.search.expand_batches": _median(s.expand_batches for s in stats),
        "core.search.visited_per_result": _median(
            result.stats.visited_trajectories / k for result, k in results
        ),
        "core.search.candidate_ratio": _median(
            s.similarity_evaluations / database_size for s in stats
        ),
        "core.search.drift_ratio": _median(
            (s.expanded_vertices + s.similarity_evaluations) / s.estimated_cost
            for s in stats
            if s.estimated_cost > 0
        ),
        "perf.query_cache.distance_hit_share": _share(
            sum(s.distance_cache_hits for s in stats), distance
        ),
        "perf.query_cache.text_hit_share": _share(
            sum(s.text_cache_hits for s in stats), text
        ),
        "shard.searcher.shards_executed": _mean(s.shards_executed for s in stats)
        if planned else None,
        "shard.searcher.shards_pruned": _mean(s.shards_pruned for s in stats)
        if planned else None,
        "shard.searcher.pruned_share": _share(
            sum(s.shards_pruned for s in stats), planned
        ),
        "shard.searcher.shard_seconds": _mean(s.shard_seconds for s in stats)
        if planned else None,
        "shard.searcher.critical_seconds": _mean(
            s.shard_critical_seconds for s in stats
        ) if planned else None,
        "parallel.executor.fork_share": _share(
            sum(1 for s in stats if s.executor == "fork"), len(stats)
        ),
        "parallel.executor.retries": float(sum(s.retries for s in stats)),
    }


def kernel_rows(database, bodies: list[dict], answers: list, registry, seed: int) -> dict:
    """Standalone replays of single layers on the run's own inputs."""
    rows: dict[str, float | None] = {}
    payloads = [json.dumps(body).encode() for body in bodies]
    rows["gateway.schemas.parse_us"] = _median(
        _timed(lambda p=p: QueryRequest.model_validate_json(p).to_query()) * 1e6
        for p in payloads
    )
    rows["gateway.schemas.serialise_us"] = _median(
        _timed(lambda a=a: QueryResponse.from_result(a).model_dump_json()) * 1e6
        for a in answers[-256:]
    )
    queries = [query_from_body(body) for body in bodies]
    index = database.keyword_index
    rows["text.index.candidates_us"] = _median(
        _timed(index.candidates, query.keywords) * 1e6 for query in queries
    )
    rows["text.index.candidates_per_query"] = _median(
        len(index.candidates(query.keywords)) for query in queries
    )
    graph = database.graph
    rng = schedule_rng("kernels", seed, "sources")
    sources = [rng.randrange(graph.num_vertices) for _ in range(KERNEL_SOURCES)]
    settle = []
    for source in sources:
        expansion = IncrementalExpansion(graph, source)
        started = time.perf_counter()
        settled = len(expansion.expand_steps(KERNEL_SETTLES))
        settle.append((time.perf_counter() - started) / max(1, settled) * 1e6)
    rows["network.expansion.settle_us"] = _median(settle)
    rows["network.csr.sssp_ms"] = _median(
        _timed(sssp_array, graph.csr, [source]) * 1000.0 for source in sources
    )
    rows["obs.metrics.render_ms"] = _median(
        _timed(registry.render_prometheus) * 1000.0 for _ in range(5)
    )
    rows["obs.metrics.series"] = float(
        sum(
            1 for line in registry.render_prometheus().splitlines()
            if line and not line.startswith("#")
        )
    )
    return rows


def overhead_share(send_block, recorder: SpanRecorder, blocks: int = 6) -> float:
    """(recording on - off) / off over alternating blocks of cache hits.

    ``send_block()`` replays one block and returns its per-request walls.
    Measured on hits — the cheapest requests — so on the cold lanes it is
    an upper bound of the relative overhead.
    """
    walls = {True: [], False: []}
    for block in range(blocks):
        recorder.enabled = block % 2 == 0
        walls[recorder.enabled].extend(send_block())
    recorder.enabled = False
    off = statistics.median(walls[False])
    return (statistics.median(walls[True]) - off) / off


def build_stack(database, algorithm: str, recorder: SpanRecorder, setup: dict):
    """The ``repro serve`` object graph, with the recording subclasses."""
    registry = MetricsRegistry()
    started = time.perf_counter()
    with traced_algorithm(algorithm, recorder):
        service = QueryService(
            database,
            algorithm,
            admission=TracedAdmission(recorder),
            metrics=registry,
            result_cache=TracedResultCache(RESULT_CACHE_CAPACITY, recorder),
        )
    setup["service.service.build_s"] = time.perf_counter() - started
    return service, registry


def run_traced(
    workload: str, seed: int, data_dir: Path, population: dict
) -> RunResult:
    """One traced run; every :data:`PER_LAYER` metric, ``None`` where n/a.

    Replays are count-limited (:data:`TRACE_REPLAY`), so ``--seconds`` does
    not apply here."""
    result = RunResult(workload, seed, traced=True)
    recorder = SpanRecorder()
    rows: dict[str, float | None] = {}
    database = load_database(data_dir, timings=rows)
    rows["index.database.landmarks_s"] = _timed(lambda: database.landmark_index)
    populations = population["populations"]
    if workload == "ingest_mix":
        _trace_ingest(result, rows, recorder, database, populations, seed)
    else:
        _trace_http(result, rows, recorder, database, populations, workload, seed)
    for name, unit, _better in PER_LAYER:
        result.add(name, rows.get(name), unit)
    return result


def _finish_rows(rows, recorder, walls, http, prefix, database) -> float:
    """Fold spans and captured stats into the metric rows; returns the sum
    of the self-time rows in ms (to print beside the mean wall)."""
    layers = self_time_rows(walls, recorder.by_request(), http)
    plan = layers.pop("search.plan")
    execute = layers.pop("search.execute")
    executed = len(recorder.results)
    per_executed = len(walls) / executed if executed else 0.0
    for row, value in layers.items():
        rows[row] = value * 1000.0 if row.endswith("_us") else value
    # plan/execute: mean per request for the sum, mean per *executed* search
    # for the row itself (a hit lane executes nothing).
    rows[f"{prefix}.plan_ms"] = plan * per_executed if executed else None
    rows[f"{prefix}.execute_ms"] = execute * per_executed if executed else None
    rows["trace.client_wall_ms"] = statistics.fmean(walls)
    rows.update(search_counts(recorder.results, len(database)))
    expanded = sum(r.stats.expanded_vertices for r, _k in recorder.results)
    if expanded:
        rows["core.search.us_per_expanded_vertex"] = (
            execute * len(walls) * 1000.0 / expanded
        )
    if executed and prefix == "shard.searcher":
        critical = rows.get("shard.searcher.critical_seconds") or 0.0
        rows["parallel.executor.scatter_overhead_ms"] = (
            rows[f"{prefix}.execute_ms"] - critical * 1000.0
        )
    total = sum(layers.values()) + plan + execute
    return total


def _trace_http(result, rows, recorder, database, populations, workload, seed) -> None:
    lane = HTTP_LANES[workload]
    algorithm = lane.serve_args[1] if lane.serve_args else "collaborative"
    prefix = "shard.searcher" if algorithm == "sharded" else "core.search"
    service, registry = build_stack(database, algorithm, recorder, rows)
    gateway = TracedAsyncQueryService(service, recorder)
    app = traced_app(create_app(gateway), recorder)
    encode = lambda row: encode_request("POST", "/query", row["body"])  # noqa: E731
    replay_count = TRACE_REPLAY[workload]
    with LoopbackServer(app, gateway) as server:
        replay_c1(server.address, [encode(r) for r in populations["warmup"]], recorder)
        phases = phase_rows(workload, seed, populations)
        if lane.hit_pool is not None:
            pool = phases["fill"]
            replay_c1(server.address, [encode(r) for r in pool], recorder)
            replayed = [pool[i % len(pool)] for i in range(replay_count)]
        else:
            replayed = phases["c1"][:replay_count]
        burst = phases["c2"]
        cache_before = service.result_cache.stats.snapshot()
        recorder.enabled = True
        walls, cpu = replay_c1(server.address, [encode(r) for r in replayed], recorder)
        recorder.enabled = False
        cache = service.result_cache.stats.delta_since(cache_before)
        # Fold the spans now: the overhead blocks below record more of them.
        total = _finish_rows(rows, recorder, walls, True, prefix, database)
        hits_pool = [encode(r) for r in replayed[-32:]]
        rows["trace.overhead_share"] = overhead_share(
            lambda: replay_c1(server.address, hits_pool * 4, recorder)[0], recorder
        )
        phase = run_phase(
            "c2-burst", server.address, [encode(r) for r in burst],
            connections=lane.c2_connections, count=C2_BURST[workload],
            deadline_s=60.0, keep=lambda position: False,
        )
    rows["perf.result_cache.hit_share"] = _share(cache.hits, cache.lookups)
    rows["perf.result_cache.evictions"] = float(cache.evictions)
    rows["service.admission.rejected"] = float(
        sum(1 for a in gateway.answers if a.error and "AdmissionError" in a.error)
    )
    rows["gateway.aservice.pending_max"] = float(gateway.pending_max)
    rows["loadgen.cpu_us_per_request"] = cpu / len(walls) * 1e6
    rows["loadgen.share"] = cpu / (sum(walls) / 1000.0)
    rows["loadgen.c2_latency_p90_ms"] = percentile(phase.latencies_ms, 0.9)
    rows.update(
        kernel_rows(
            database, [r["body"] for r in replayed[:256]], gateway.answers,
            registry, seed,
        )
    )
    result.attempted = len(walls) + phase.sent
    result.failed = phase.sent - phase.ok
    if phase.error:
        result.problems.append(f"c2 burst: {phase.error}")
    result.say(
        f"traced replay: c1 n={len(walls)} executed={len(recorder.results)} "
        f"spans={len(recorder.spans)} p50={statistics.median(walls):.3f}ms; "
        f"c2 burst n={phase.sent} (recording off)"
    )
    result.say(
        f"self-time rows sum to {total:.4f} ms; mean client wall "
        f"{statistics.fmean(walls):.4f} ms"
    )


def _trace_ingest(result, rows, recorder, database, populations, seed) -> None:
    service, registry = build_stack(database, "collaborative", recorder, rows)
    pool = [query_from_body(row["body"]) for row in populations["ingest_pool"]]
    for row in populations["warmup"]:
        service.submit(query_from_body(row["body"]))
    for query in pool:
        service.submit(query)
    ops, _checked = ingest_schedule(len(pool), seed)
    ops = ops[: TRACE_REPLAY["ingest_mix"]]
    writes = iter(
        ingest_writes(database.trajectories.ids(), len(ops) // INGEST_WRITE_EVERY)
    )
    cache = service.result_cache
    cache_before = cache.stats.snapshot()
    answers = []
    write_ms = {"add": [], "remove": []}
    recorder.enabled = True
    cpu_before = time.thread_time()
    for op in ops:
        if op is None:
            write = next(writes)
            recorder.request = -1
            write_ms[write[0]].append(timed_write(database, *write) * 1000.0)
            continue
        recorder.request = len(answers)
        with recorder.span("service.service.submit"):
            answers.append(service.submit(pool[op]))
    cpu = time.thread_time() - cpu_before
    recorder.enabled = False
    recorder.request = -1
    # The read wall *is* the outer span, so the rows sum to it exactly.
    walls = [
        (end - start) * 1000.0 for name, start, end, _p, _r in recorder.spans
        if name == "service.service.submit"
    ]
    delta = cache.stats.delta_since(cache_before)
    total = _finish_rows(rows, recorder, walls, False, "core.search", database)
    events = [
        end - start for name, start, end, _p, _r in recorder.spans
        if name == "perf.result_cache.on_event"
    ]
    rows["perf.result_cache.on_event_us"] = _median(e * 1e6 for e in events)
    rows["perf.result_cache.hit_share"] = _share(delta.hits, delta.lookups)
    rows["perf.result_cache.evictions"] = float(delta.evictions)
    rows["perf.result_cache.entries_dropped_per_event"] = _share(
        cache.invalidation_entries_dropped, cache.invalidation_events
    )
    rows["perf.result_cache.entries_retained_per_event"] = _share(
        cache.invalidation_entries_retained, cache.invalidation_events
    )
    rows["index.database.add_ms"] = _median(write_ms["add"])
    rows["index.database.remove_ms"] = _median(write_ms["remove"])
    rows["index.database.write_p90_ms"] = percentile(
        write_ms["add"] + write_ms["remove"], 0.9
    )
    rows["service.admission.rejected"] = float(
        sum(1 for a in answers if a.error and "AdmissionError" in a.error)
    )
    # One caller, no generator: the "load generator" is the loop itself.
    rows["loadgen.cpu_us_per_request"] = None
    rows["loadgen.share"] = None
    hit_queries = [pool[op] for op in ops if op is not None][-32:]

    def send_block() -> list[float]:
        return [_timed(service.submit, query) * 1000.0 for query in hit_queries * 4]

    send_block()  # re-cache whatever the last writes dropped
    rows["trace.overhead_share"] = overhead_share(send_block, recorder)
    bodies = [populations["ingest_pool"][op]["body"] for op in ops if op is not None]
    rows.update(kernel_rows(database, bodies[:256], answers, registry, seed))
    result.attempted = len(ops)
    result.failed = sum(1 for a in answers if a.error is not None)
    result.say(
        f"traced replay: ops={len(ops)} reads={len(walls)} "
        f"writes={len(ops) - len(walls)} executed={len(recorder.results)} "
        f"spans={len(recorder.spans)} cpu={cpu:.2f}s"
    )
    result.say(
        f"self-time rows sum to {total:.4f} ms; mean read wall "
        f"{statistics.fmean(walls):.4f} ms"
    )
