"""The four workloads, measured end to end with tracing off.

============  =========================================================
cold_miss     ``repro serve`` defaults; every fingerprint unique, so the
              result cache never hits: search does >95% of the work.
cache_hit     same server; a 40-query pool that fits the 256-entry
              result cache, filled once, then only hits: gateway,
              schemas and cache probe are the whole cost.
sharded_cold  ``repro serve --algorithm sharded`` on a prefix of the
              cold populations: the shard/fork path on trial.
ingest_mix    in-process ``QueryService`` with adds/removes between
              reads (no HTTP write path exists yet): invalidation cost.
============  =========================================================

Load model (all HTTP lanes): closed loop, two phases over disjoint inputs.
**c1** is one keep-alive connection — the single-request wall cost, where
the latency metrics come from.  **c2** is ``min(2, nproc)`` connections —
throughput under concurrency, where GIL/thread-bridge convoys show.  An
open-loop rate ladder would be the honest model for independent
travellers, but at ~9 req/s cold capacity one rung costs minutes.

Phase sizes are constants sized so a run measures for about
``RUN_SECONDS`` on the commit that introduced the benchmark; ``--seconds``
scales the per-phase deadlines that cap a run on a slower machine (a
truncated phase is reported as such).
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import random
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

from data import POPULATION_SEED, load_database, query_from_body
from loadgen import LOADGEN_SHARE_WARN, Connection, Phase, encode_request, run_phase
from oracle import Rescorer, Verdict, check_answer
from report import P50_BAND, P90_BAND, RunResult, percentile, quantile_band
from server import ServeProcess, ServerError, peak_rss_mb

#: Nominal measuring time of one run; ``BENCHMARK.json`` ``run_seconds``.
RUN_SECONDS = 20
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: The server's default ``--result-cache-size``.
RESULT_CACHE_CAPACITY = 256

WORKLOADS = {
    "cold_miss": "unique queries on default serve: 0 cache hits, search is >95% of the work",
    "cache_hit": "40-query pool inside the 256-entry result cache: 100% hits, gateway+cache only",
    "sharded_cold": "same unique queries on serve --algorithm sharded: shard/fork path on trial",
    "ingest_mix": "in-process service, every 10th op an add/remove: scoped invalidation beside reads",
}


@dataclass(frozen=True)
class HttpLane:
    """One HTTP workload: server flags and the phases it runs."""

    serve_args: tuple[str, ...]
    c1: tuple[str, int] | None = None  # cold phases: (population, count)
    c2: tuple[str, int] | None = None
    hit_pool: str | None = None  # set: fill once, then time-limited hit phases
    c2_connections: int = 2  # callers clamp to nproc


HTTP_LANES = {
    "cold_miss": HttpLane((), ("cold_c1", 100), ("cold_c2", 60)),
    # Sharded queries cost ~2x flat here, so the lane runs the first two
    # stratified blocks of each cold population (same queries, fewer).  Its
    # c2 phase has ONE connection: at the commit that introduced the
    # benchmark a second concurrent sharded request dies in
    # ``parallel.executor._worker_handoff`` ("re-entrant parallel fan-out")
    # and the server resets the connection, and a benchmark workload must
    # not contain failing operations.  Raising this to 2 is a benchmark
    # change of its own once the program survives it.
    "sharded_cold": HttpLane(
        ("--algorithm", "sharded"), ("cold_c1", 40), ("cold_c2", 40),
        c2_connections=1,
    ),
    "cache_hit": HttpLane((), hit_pool="hit_pool"),
}

#: Deadline of each phase as a share of ``--seconds``.
COLD_DEADLINES = {"c1": 0.75, "c2": 0.5}
HIT_DEADLINES = {"fill": 0.6, "c1": 0.2, "c2": 0.2}
#: The hit lane cuts c1 and c2 into this many alternating segments each.
HIT_SEGMENTS = 4

# ingest_mix: op stream shape.
INGEST_OPS = 2000
INGEST_WRITE_EVERY = 10
INGEST_ORACLE_READS = 12
INGEST_DEADLINE = 0.9

READYZ = encode_request("GET", "/readyz")
METRICS = encode_request("GET", "/metrics")


def tail_note(n: int) -> str:
    """How many samples lie beyond the reported p90 (the guide asks >= 10)."""
    return f"{n - math.ceil(0.9 * n)} samples beyond"


def schedule_rng(workload: str, seed: int, phase: str) -> random.Random:
    """The seeded generator of one phase's schedule (order, samples)."""
    return random.Random(f"{workload}:{seed}:{phase}")


def seeded_order(rows: list, rng: random.Random) -> list:
    order = list(rows)
    rng.shuffle(order)
    return order


def phase_rows(workload: str, seed: int, populations: dict) -> dict[str, list[dict]]:
    """The population rows each phase of an HTTP lane sends, in send order.

    This is everything ``--seed`` decides on the HTTP lanes: the order
    within each (fixed) population.
    """
    lane = HTTP_LANES[workload]
    if lane.hit_pool is not None:
        pool = populations[lane.hit_pool]
        if len(pool) > RESULT_CACHE_CAPACITY:
            raise ValueError("hit pool exceeds the result cache")
        order = seeded_order(pool, schedule_rng(workload, seed, "pool"))
        return {"fill": order, "c1": order, "c2": order}
    return {
        name: seeded_order(
            populations[population][:count], schedule_rng(workload, seed, name)
        )
        for name, (population, count) in (("c1", lane.c1), ("c2", lane.c2))
    }


def stream_sha256(requests: list[bytes]) -> str:
    digest = hashlib.sha256()
    for request in requests:
        digest.update(request)
    return digest.hexdigest()


def ranking_of(body: bytes) -> list[tuple[int, float]]:
    """The ``(trajectory id, score)`` ranking in one ``POST /query`` reply."""
    return [
        (item["trajectory_id"], item["score"]) for item in json.loads(body)["items"]
    ]


def scrape(connection: Connection) -> dict[str, float]:
    """``GET /metrics`` as ``{series: value}`` (labels kept in the key)."""
    status, body = connection.exchange(METRICS)
    if status != 200:
        raise ServerError(f"/metrics answered {status}")
    series = {}
    for line in body.decode().splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            series[name] = float(value)
    return series


class HttpRun:
    """One untraced run of an HTTP lane against a fresh ``repro serve``."""

    def __init__(
        self,
        workload: str,
        seed: int,
        seconds: float,
        data_dir: Path,
        population: dict,
        scratch: Path,
        nproc: int,
    ):
        self.workload = workload
        self.lane = HTTP_LANES[workload]
        self.seed = seed
        self.seconds = seconds
        self.data_dir = data_dir
        self.populations = population["populations"]
        self.scratch = scratch
        self.c2_connections = min(self.lane.c2_connections, nproc)
        self.result = RunResult(workload, seed, traced=False)
        self.verdict = Verdict()
        self.rescore = Rescorer(lambda: load_database(data_dir))
        self.loadgen_share = 0.0  # the busiest phase's generator work share

    # ------------------------------------------------------------- set-up
    def _set_up(self, attempt: int) -> tuple[ServeProcess, float]:
        """Spawn -> ``/readyz`` 200 -> warm-up batch answered; timed."""
        rows = self.populations["warmup"]
        requests = [encode_request("POST", "/query", row["body"]) for row in rows]
        log = self.scratch / f"serve-{self.workload}-{attempt}.stderr"
        started = time.perf_counter()
        server = ServeProcess(self.data_dir, log, self.lane.serve_args)
        try:
            server.start()
            with Connection(*server.address) as connection:
                status, _ = connection.exchange(READYZ)
                if status != 200:
                    raise ServerError(f"/readyz answered {status}")
                replies = [connection.exchange(request) for request in requests]
            elapsed = time.perf_counter() - started
        except OSError:
            server.stop()
            raise
        self._check_replies(rows, dict(enumerate(replies)))
        return server, elapsed

    def _check_replies(self, rows: list[dict], replies: dict) -> None:
        """Oracle-check ``{send position: (status, body)}``; the position
        modulo the pool size names the row that was sent."""
        for position, (status, body) in replies.items():
            self.result.attempted += 1
            if status != 200:
                self.result.failed += 1
                continue
            row = rows[position % len(rows)]
            self.result.failed += not check_answer(
                self.verdict,
                row["body"],
                ranking_of(body),
                [tuple(pair) for pair in row["oracle"]],
                self.rescore,
            )

    # -------------------------------------------------------------- phases
    def _phase(
        self,
        server: ServeProcess,
        name: str,
        rows: list[dict],
        *,
        connections: int,
        count: int | None,
        deadline_share: float,
        expect_hits: bool,
        keep=lambda position: True,
    ) -> Phase:
        """Run one phase, check its traffic and answers, report its row."""
        result = self.result
        requests = [encode_request("POST", "/query", row["body"]) for row in rows]
        with Connection(*server.address) as control:
            before = scrape(control)
            phase = run_phase(
                name,
                server.address,
                requests,
                connections=connections,
                count=count,
                deadline_s=deadline_share * self.seconds,
                keep=keep,
            )
            if phase.error is not None or not server.alive():
                # Every request of the phase counts as failed, and without a
                # server there is nothing left to measure: abort the run.
                raise ServerError(
                    f"{name}: server lost mid-phase ({phase.error}); "
                    f"{max(phase.sent, count or 0)} requests failed"
                )
            after = scrape(control)
        # Answers: every kept body against the oracle.
        replies = {
            position: (phase.statuses[i], phase.bodies[position])
            for i, position in enumerate(phase.positions)
            if position in phase.bodies
        }
        self._check_replies(rows, replies)
        unkept = [
            status
            for position, status in zip(phase.positions, phase.statuses)
            if position not in phase.bodies
        ]
        result.attempted += len(unkept)
        result.failed += sum(1 for status in unkept if status != 200)
        # Traffic: the server's own counters must agree with the replies.
        hits = "repro_service_result_cache_hits_total"
        misses = "repro_service_result_cache_misses_total"
        hit_delta = after[hits] - before[hits]
        probe_delta = hit_delta + after[misses] - before[misses]
        if hit_delta != phase.hits or probe_delta != phase.sent:
            result.problems.append(
                f"{name}: /metrics saw {probe_delta:.0f} probes, {hit_delta:.0f} hits; "
                f"replies say {phase.sent} requests, {phase.hits} hits"
            )
        if phase.hits != (phase.sent if expect_hits else 0):
            result.problems.append(
                f"{name}: {phase.hits}/{phase.sent} cache hits, expected "
                + ("all" if expect_hits else "none")
            )
        rejected = 'repro_service_queries_total{outcome="rejected"}'
        if after[rejected] != before[rejected]:
            result.problems.append(f"{name}: admission rejected requests")
        result.say(
            f"phase {name}: connections={connections} sent={phase.sent} "
            f"ok={phase.ok} failed={phase.sent - phase.ok} wall={phase.wall_s:.2f}s "
            f"qps={phase.qps:.2f} hit_share={phase.hit_share:.3f} "
            f"loadgen_busy_share={phase.loadgen_share:.3f} "
            f"stream_sha256={stream_sha256(requests)[:16]}"
            + (" TRUNCATED by deadline" if phase.truncated else "")
        )
        self.loadgen_share = max(self.loadgen_share, phase.loadgen_share)
        return phase

    def _cold_phases(self, server: ServeProcess) -> dict[str, list[Phase]]:
        rows = phase_rows(self.workload, self.seed, self.populations)
        return {
            name: [
                self._phase(
                    server, name, rows[name],
                    connections=connections, count=len(rows[name]),
                    deadline_share=COLD_DEADLINES[name], expect_hits=False,
                )
            ]
            for name, connections in (("c1", 1), ("c2", self.c2_connections))
        }

    def _hit_phases(self, server: ServeProcess) -> dict[str, list[Phase]]:
        """Fill the cache, then alternate short c1 and c2 segments.

        Hits can be repeated, so each phase is cut into segments that
        alternate (c1, c2, c1, ...) and the run reports the median over
        segments: a noisy second on a shared host moves one segment, not
        the metric, and both phases see the same stretch of machine time.
        """
        rows = phase_rows(self.workload, self.seed, self.populations)["fill"]
        self._phase(
            server, "fill", rows, connections=1, count=len(rows),
            deadline_share=HIT_DEADLINES["fill"], expect_hits=False,
        )
        # Decode the first pass over the pool plus every 61st reply after it
        # (61 is coprime to the pool size, so the sample walks the pool).
        keep = lambda position: position < len(rows) or position % 61 == 0  # noqa: E731
        phases: dict[str, list[Phase]] = {"c1": [], "c2": []}
        for segment in range(HIT_SEGMENTS):
            for name, connections in (("c1", 1), ("c2", self.c2_connections)):
                phases[name].append(
                    self._phase(
                        server, f"{name}.{segment}", rows,
                        connections=connections, count=None,
                        deadline_share=HIT_DEADLINES[name] / HIT_SEGMENTS,
                        expect_hits=True, keep=keep,
                    )
                )
        return phases

    # ----------------------------------------------------------------- run
    def run(self) -> RunResult:
        result = self.result
        setups = []
        server = None
        try:
            for attempt in range(SETUP_REPEATS):
                if server is not None:
                    server.stop()
                server, elapsed = self._set_up(attempt)
                setups.append(elapsed)
            result.say(
                "set-ups (spawn -> /readyz -> warm-up answered): "
                + ", ".join(f"{s:.3f}s" for s in setups)
            )
            if self.lane.hit_pool is not None:
                phases = self._hit_phases(server)
            else:
                phases = self._cold_phases(server)
            rss = server.peak_rss_mb()
        finally:
            if server is not None:
                server.stop()
        c1 = [
            [ms for ms, status in zip(p.latencies_ms, p.statuses) if status == 200]
            for p in phases["c1"]
        ]
        c2 = phases["c2"]
        n = sum(len(segment) for segment in c1)
        over = f"median of {len(c1)} segments, " if len(c1) > 1 else ""
        result.add("setup_s", median(setups), "s", f"median of {len(setups)}")
        result.add(
            "latency_p50_ms",
            median([quantile_band(segment, *P50_BAND) for segment in c1 if segment]),
            "ms",
            f"c1 {over}n={n}",
        )
        result.add(
            "latency_p90_ms",
            median([quantile_band(segment, *P90_BAND) for segment in c1 if segment]),
            "ms",
            f"c1 {over}n={n}, {tail_note(min(map(len, c1)))}",
        )
        result.add(
            "throughput_qps",
            median([p.qps for p in c2]),
            "req/s",
            f"c2 {over}{c2[0].connections} conn n={sum(p.ok for p in c2)} "
            f"hit_share={sum(p.hits for p in c2) / max(1, sum(p.sent for p in c2)):.3f}",
        )
        result.add("peak_rss_mb", rss, "MB", "server VmHWM at end of run")
        if self.loadgen_share > LOADGEN_SHARE_WARN:
            result.say(
                f"warning: the generator's own work reached {self.loadgen_share:.0%} "
                "of the wall clock; such phases partly measure the generator"
            )
        result.say(self.verdict.summary())
        result.problems.extend(self.verdict.details)
        return result


# ------------------------------------------------------------- ingest_mix
def ingest_writes(
    database_ids: list[int], count: int
) -> list[tuple[str, int, int | None]]:
    """The fixed write sequence, alternating ``("add", source id, clone id)``
    and ``("remove", id, None)``.

    Drawn from :data:`POPULATION_SEED`, not the run seed: which entries a
    write invalidates decides how many reads miss, and a seed-random write
    set moves throughput by more than any bound (see ``data.py``).  Removes
    pick from the ids alive at that point (originals or earlier clones).
    """
    rng = random.Random(POPULATION_SEED + 1)
    live = list(database_ids)
    next_id = max(live) + 1
    writes = []
    for number in range(count):
        if number % 2 == 0:
            writes.append(("add", rng.choice(live), next_id))
            live.append(next_id)
            next_id += 1
        else:
            at = rng.randrange(len(live))
            live[at], live[-1] = live[-1], live[at]
            writes.append(("remove", live.pop(), None))
    return writes


def timed_write(database, kind: str, trajectory_id: int, clone_id: int | None) -> float:
    """Apply one write of the sequence; seconds spent inside ``database.add``
    / ``database.remove`` (listener dispatch included, clone building not).
    An add clones a live member under a fresh id with at most 3 keywords."""
    if kind == "add":
        source = database.get(trajectory_id)
        clone = source.with_id(clone_id).with_keywords(sorted(source.keywords)[:3])
        started = time.perf_counter()
        database.add(clone)
    else:
        started = time.perf_counter()
        database.remove(trajectory_id)
    return time.perf_counter() - started


def ingest_schedule(pool_size: int, seed: int) -> tuple[list[int | None], set[int]]:
    """The op stream: pool indices to read, ``None`` where a write goes, and
    the op numbers (reads right after a write) to oracle-check."""
    writes = INGEST_OPS // INGEST_WRITE_EVERY
    reads = INGEST_OPS - writes
    rng = schedule_rng("ingest_mix", seed, "ops")
    # A balanced multiset (every pool query read equally often), shuffled.
    read_order = [i % pool_size for i in range(reads)]
    rng.shuffle(read_order)
    remaining = iter(read_order)
    ops: list[int | None] = [
        None if number % INGEST_WRITE_EVERY == INGEST_WRITE_EVERY - 1
        else next(remaining)
        for number in range(INGEST_OPS)
    ]
    after_write = [n + 1 for n, op in enumerate(ops[:-1]) if op is None]
    checked = set(rng.sample(after_write, INGEST_ORACLE_READS))
    return ops, checked


def run_ingest(
    seed: int, seconds: float, data_dir: Path, population: dict
) -> RunResult:
    """``ingest_mix``: reads beside writes on an in-process service."""
    from repro.core.registry import make_searcher
    from repro.obs.metrics import MetricsRegistry
    from repro.service.service import QueryService

    result = RunResult("ingest_mix", seed, traced=False)
    verdict = Verdict()
    populations = population["populations"]
    warmup = populations["warmup"]
    pool = [query_from_body(row["body"]) for row in populations["ingest_pool"]]

    def checked_against(body, answer, want) -> None:
        got = [(item.trajectory_id, item.score) for item in answer.items]
        result.failed += not check_answer(verdict, body, got, want, rescore)

    setups = []
    for _ in range(SETUP_REPEATS):
        database = service = answers = None  # one copy alive: honest peak RSS
        gc.collect()
        started = time.perf_counter()
        database = load_database(data_dir)
        service = QueryService(
            database, "collaborative", result_cache=RESULT_CACHE_CAPACITY,
            metrics=MetricsRegistry(),
        )
        answers = [service.submit(query_from_body(row["body"])) for row in warmup]
        setups.append(time.perf_counter() - started)
    rescore = Rescorer(lambda: database)
    for row, answer in zip(warmup, answers):
        result.attempted += 1
        checked_against(row["body"], answer, [tuple(p) for p in row["oracle"]])
    result.say(
        "set-ups (load files -> database -> service -> warm-up reads): "
        + ", ".join(f"{s:.3f}s" for s in setups)
    )

    for query in pool:  # fill: every pool query cached before the clock starts
        service.submit(query)
    oracle = make_searcher(database, "brute-force")
    writes = iter(
        ingest_writes(database.trajectories.ids(), INGEST_OPS // INGEST_WRITE_EVERY)
    )
    ops, checked = ingest_schedule(len(pool), seed)
    clock = time.perf_counter
    read_ms: list[float] = []
    write_ms: list[float] = []
    hits = 0
    busy = 0.0
    done = 0
    deadline = clock() + INGEST_DEADLINE * seconds
    for number, op in enumerate(ops):
        if clock() >= deadline:
            break
        if op is None:
            elapsed = timed_write(database, *next(writes))
            write_ms.append(elapsed * 1000.0)
        else:
            query = pool[op]
            started = clock()
            answer = service.submit(query)
            elapsed = clock() - started
            read_ms.append(elapsed * 1000.0)
            result.failed += answer.error is not None
            hits += answer.stats.cache == "result"
            if number in checked:
                truth = oracle.search(query)
                checked_against(
                    populations["ingest_pool"][op]["body"], answer,
                    [(item.trajectory_id, item.score) for item in truth.items],
                )
        busy += elapsed
        done += 1
    result.attempted += done
    cache = service.result_cache
    result.say(
        f"phase ops: one caller, ops={done}/{INGEST_OPS} reads={len(read_ms)} "
        f"writes={len(write_ms)} busy={busy:.2f}s hit_share={hits / max(1, len(read_ms)):.3f} "
        f"entries_dropped={cache.invalidation_entries_dropped}"
        + (" TRUNCATED by deadline" if done < INGEST_OPS else "")
    )
    result.say(
        f"writes: p50={median(write_ms):.3f}ms p90={percentile(write_ms, 0.9):.3f}ms "
        f"n={len(write_ms)}"
    )
    n = len(read_ms)
    result.add("setup_s", median(setups), "s", f"median of {len(setups)}")
    result.add(
        "latency_p50_ms", quantile_band(read_ms, *P50_BAND), "ms", f"reads n={n}"
    )
    result.add(
        "latency_p90_ms", quantile_band(read_ms, *P90_BAND), "ms",
        f"reads n={n}, {tail_note(n)}",
    )
    result.add(
        "throughput_qps", done / busy, "req/s",
        f"1 caller, all ops n={done} hit_share={hits / max(1, n):.3f}",
    )
    result.add(
        "peak_rss_mb", peak_rss_mb("self"), "MB", "bench process VmHWM at end of run"
    )
    result.say(verdict.summary())
    result.problems.extend(verdict.details)
    return result
