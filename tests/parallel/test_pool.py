"""The pre-forked search worker pool (tentpole contract).

Correctness through the pool (every registry algorithm equals brute force),
coherence by replication (read-your-writes), containment by subtraction
(a killed worker costs nothing but itself), honest deadlines (queue time is
charged), and process hygiene (no orphan under close / SIGTERM / SIGKILL;
an inherited handle is inert).
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

from repro.core.query import UOTSQuery
from repro.core.registry import ALGORITHMS, make_searcher
from repro.index.database import TrajectoryDatabase
from repro.obs.metrics import MetricsRegistry
from repro.parallel.executor import fork_available
from repro.parallel.pool import SearchWorkerPool, serving_workers, usable_cpus
from repro.resilience.budget import SearchBudget
from repro.service import QueryService
from repro.trajectory.model import Trajectory, TrajectorySet
from tests.conftest import series
from tests.core.test_scan import assert_oracle_equal

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="fork start method not available"
)

SRC = str(Path(__file__).resolve().parents[2] / "src")

QUERIES = [
    UOTSQuery.create([5, 210], ["park"], lam=0.7, k=5),
    UOTSQuery.create([0, 399], [], lam=0.9, k=4),
    UOTSQuery.create([37, 199, 361], ["museum", "walk"], lam=0.5, k=6),
    UOTSQuery.create([120, 300], ["seafood"], lam=0.3, k=3),
    UOTSQuery.create([42], ["park", "lake"], lam=0.0, k=4),  # text only
    UOTSQuery.create([7, 77], ["park"], lam=1.0, k=4),  # spatial only
]


def _gone(pid: int) -> bool:
    """Whether ``pid`` no longer runs (absent, or a zombie awaiting reaping)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return True
    return stat.rpartition(")")[2].split()[0] == "Z"


def _wait_gone(pids, seconds=2.0) -> bool:
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        if all(_gone(pid) for pid in pids):
            return True
        time.sleep(0.02)
    return all(_gone(pid) for pid in pids)


def _assert_equal(result, reference):
    assert result.error is None
    assert result.ids == reference.ids
    assert result.scores == pytest.approx(reference.scores, abs=1e-9)


@pytest.fixture()
def own_database(grid20, annotated_trips):
    """A private database over a private trajectory set: these tests
    mutate it (the session fixtures share theirs)."""
    return TrajectoryDatabase(grid20, TrajectorySet(list(annotated_trips)))


class _SlowInWorker:
    """Delegates to ``scan``; in a forked worker it sleeps first, so a test
    can catch a query in flight."""

    def __init__(self, database, seconds=0.4):
        self._inner = make_searcher(database, "scan")
        self._parent = os.getpid()
        self._seconds = seconds

    def search(self, query, budget=None):
        if os.getpid() != self._parent:
            time.sleep(self._seconds)
        return self._inner.search(query, budget=budget)


# ------------------------------------------------------------- correctness
@pytest.mark.parametrize("cached", [False, True], ids=["uncached", "cached"])
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_every_algorithm_through_the_pool_equals_brute_force(
    database, algorithm, cached
):
    oracle = make_searcher(database, "brute-force")
    service = QueryService(
        database, algorithm, pool=2, result_cache=16 if cached else None
    )
    try:
        for _ in range(2):  # the second pass is all hits when cached
            for query in QUERIES:
                result = service.submit(query)
                assert_oracle_equal(database, query, result, oracle.search(query))
                assert (result.stats.executor == "fork") != (
                    result.stats.cache == "result"
                )
        hits = series(service, "repro_service_result_cache_hits_total")
        assert hits == (len(QUERIES) if cached else 0)
        # Budgets travel with the query: a generous one stays exact, a tight
        # one degrades exactly as the same searcher does in process.
        local = make_searcher(database, algorithm)
        generous = SearchBudget(max_expanded_vertices=10**9, deadline_seconds=60.0)
        tight = SearchBudget(max_expanded_vertices=10)
        for query in QUERIES[:3]:
            assert_oracle_equal(
                database, query, service.submit(query, generous), oracle.search(query)
            )
            pooled, direct = service.submit(query, tight), local.search(query, tight)
            assert pooled.stats.executor == "fork"
            assert (pooled.exact, pooled.ids) == (direct.exact, direct.ids)
            assert pooled.residual_bound == pytest.approx(direct.residual_bound)
    finally:
        service.close()


def test_eight_threads_hammering_one_pool_stay_oracle_equal(database):
    oracle = make_searcher(database, "brute-force")
    queries = [
        UOTSQuery.create([i * 7 % 400, (i * 31 + 5) % 400], ["park"], k=3)
        for i in range(40)
    ]
    references = [oracle.search(query) for query in queries]
    registry = MetricsRegistry()
    service = QueryService(database, "scan", pool=2, metrics=registry)
    failures: list[BaseException] = []

    def caller(offset: int) -> None:
        try:
            for step in range(len(queries)):
                i = (offset * 5 + step) % len(queries)
                _assert_equal(service.submit(queries[i]), references[i])
        except BaseException as exc:  # noqa: BLE001 - reported below
            failures.append(exc)

    threads = [threading.Thread(target=caller, args=(n,)) for n in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # force interleavings a lost update would show in
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures, failures
        registry.collect()
        dispatched = registry.counter("repro_pool_dispatched_total")
        counts = [dispatched.value(worker=str(i)) for i in range(2)]
        assert all(count > 0 for count in counts), counts
        assert sum(counts) == 8 * len(queries)
        assert registry.counter("repro_pool_fallbacks_total").value() == 0
        assert registry.gauge("repro_pool_workers").value() == 2
        assert registry.histogram("repro_pool_wait_seconds").count() == sum(counts)
    finally:
        sys.setswitchinterval(interval)
        service.close()


# --------------------------------------------------------------- coherence
def test_read_your_writes_across_fifty_interleavings(own_database):
    """Every round one thread writes (add or remove), then four threads
    query at once: each answer equals a fresh brute-force search of the
    parent database — cached, so scoped invalidation rides along."""
    database = own_database
    oracle = make_searcher(database, "brute-force")
    service = QueryService(database, "scan", pool=2, result_cache=32)
    base = database.get(next(iter(database.trajectories.ids())))
    next_id = max(database.trajectories.ids()) + 1
    barrier = threading.Barrier(4)
    failures: list[BaseException] = []
    added: list[int] = []

    def write(round_number: int) -> None:
        if round_number % 3 == 2 and added:
            database.remove(added.pop(0))
        else:  # a clone that scores high for QUERIES[round % n]
            tid = next_id + round_number
            database.add(Trajectory(tid, base.points, ["park", "museum"]))
            added.append(tid)

    def caller(number: int) -> None:
        try:
            for round_number in range(50):
                if number == 0:
                    write(round_number)
                barrier.wait(timeout=30)
                query = QUERIES[(round_number + number) % len(QUERIES)]
                _assert_equal(service.submit(query), oracle.search(query))
                barrier.wait(timeout=30)
        except BaseException as exc:  # noqa: BLE001 - reported below
            failures.append(exc)
            barrier.abort()

    threads = [threading.Thread(target=caller, args=(n,)) for n in range(4)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures, failures
        assert service.pool.live_workers == 2 and service.pool.fallbacks == 0
        assert service.result_cache.stats.hits > 0  # some entries survived writes
    finally:
        service.close()


def test_workers_drop_the_parents_listeners(own_database):
    """A replicated write must not run the parent's result-cache
    invalidation inside a worker (the pool passes it as ``parent_only``)."""
    service = QueryService(own_database, "scan", pool=1, result_cache=8)
    try:
        assert service._on_mutation in own_database._mutation_listeners
        removed = own_database.remove(next(iter(own_database.trajectories.ids())))
        result = service.submit(QUERIES[0])  # the worker applied it and lives
        assert result.stats.executor == "fork"
        assert removed.id not in result.ids
        assert service.pool.live_workers == 1
    finally:
        service.close()
    # close() unregistered the pool's own listener from the parent database.
    assert not any(
        getattr(listener, "__self__", None) is service.pool
        for listener in own_database._mutation_listeners
    )


# ------------------------------------------------------------- containment
def test_sigkill_mid_query_is_contained(database, monkeypatch):
    monkeypatch.setitem(ALGORITHMS, "slow-in-worker", _SlowInWorker)
    oracle = make_searcher(database, "brute-force")
    registry = MetricsRegistry()
    service = QueryService(database, "slow-in-worker", pool=2, metrics=registry)
    pool = service.pool
    gauge = registry.gauge("repro_pool_workers")
    try:
        outcome = {}
        caller = threading.Thread(
            target=lambda: outcome.update(result=service.submit(QUERIES[0]))
        )
        caller.start()
        time.sleep(0.1)  # the query is asleep inside worker 0 (top of the stack)
        os.kill(pool.worker_pids[0], signal.SIGKILL)
        caller.join(timeout=30)
        assert not caller.is_alive()
        result = outcome["result"]
        _assert_equal(result, oracle.search(QUERIES[0]))
        assert result.stats.executor == "sequential-fallback"
        assert result.stats.retries == 1
        registry.collect()
        assert gauge.value() == 1 and pool.live_workers == 1
        assert registry.counter("repro_pool_fallbacks_total").value() == 1
        # Later queries ride the survivor.
        later = service.submit(QUERIES[1])
        _assert_equal(later, oracle.search(QUERIES[1]))
        assert later.stats.executor == "fork"
        # With the last worker gone the service answers in process.
        os.kill(pool.worker_pids[0], signal.SIGKILL)
        assert _wait_gone(pool.worker_pids)
        for query in QUERIES[2:4]:
            _assert_equal(service.submit(query), oracle.search(query))
        registry.collect()
        assert gauge.value() == 0 and pool.live_workers == 0
        assert series(service, "repro_service_queries_total", outcome="failed") == 0
    finally:
        service.close()


def test_zero_workers_is_the_in_process_path(database):
    plain = QueryService(database, "scan")
    service = QueryService(database, "scan", pool=2)
    service.close()
    assert service.pool.live_workers == 0
    for query in QUERIES:
        pooled, direct = service.submit(query), plain.submit(query)
        assert pooled.stats.executor == direct.stats.executor == ""
        assert (pooled.ids, pooled.scores) == (direct.ids, direct.scores)
    assert service.pool.dispatched == [0, 0]


# --------------------------------------------------------- deadline honesty
def test_queue_time_is_charged_to_the_deadline(database, monkeypatch):
    monkeypatch.setitem(ALGORITHMS, "slow-in-worker", _SlowInWorker)
    registry = MetricsRegistry()
    service = QueryService(database, "slow-in-worker", pool=1, metrics=registry)
    try:
        hog = threading.Thread(target=service.submit, args=(QUERIES[0],))
        hog.start()
        time.sleep(0.05)  # the only worker is busy for another ~350 ms
        started = time.perf_counter()
        result = service.submit(QUERIES[1], SearchBudget(deadline_seconds=0.05))
        elapsed = time.perf_counter() - started
        hog.join(timeout=30)
        assert not hog.is_alive()
        # The deadline ran out in the queue: a labelled degraded answer, in
        # process, without ever occupying the worker.
        assert not result.exact and result.error is None
        assert "50.0 ms deadline spent waiting for a worker" in (
            result.degradation_reason
        )
        assert result.stats.executor != "fork"
        assert elapsed < 0.3
        assert service.pool.dispatched == [1]
        waits = registry.histogram("repro_pool_wait_seconds")
        assert waits.count() == 2 and waits.sum() >= 0.05
        # An idle pool charges (next to) nothing and stays exact.
        relaxed = service.submit(QUERIES[2], SearchBudget(deadline_seconds=30.0))
        assert relaxed.exact and relaxed.stats.executor == "fork"
    finally:
        service.close()


# ---------------------------------------------------------------- hygiene
def test_close_leaves_no_child_and_is_idempotent(database):
    pool = SearchWorkerPool(make_searcher(database, "scan"), database, 2)
    pids = pool.worker_pids
    assert len(pids) == 2 and not any(_gone(pid) for pid in pids)
    pool.close()
    assert _wait_gone(pids)
    pool.close()
    assert pool.live_workers == 0
    assert pool.search(QUERIES[0]).ok  # answered in process


def test_an_inherited_pool_handle_cannot_dispatch(database):
    with SearchWorkerPool(make_searcher(database, "scan"), database, 2) as pool:
        pid = os.fork()
        if pid == 0:  # any forked child: the handle is inert
            code = 1
            try:
                result = pool.search(QUERIES[0])  # in process, no pipe touched
                inert = pool.live_workers == 0 and pool.dispatched == [0, 0]
                code = 0 if inert and result.ok and not result.stats.executor else 2
            finally:
                os._exit(code)
        assert os.waitpid(pid, 0)[1] == 0
        # ...and the parent's own handle still works.
        assert pool.search(QUERIES[0]).stats.executor == "fork"
        assert pool.dispatched == [1, 0]


_HOLDER = textwrap.dedent(
    """
    import sys, time
    from repro.core.registry import make_searcher
    from repro.index.database import TrajectoryDatabase
    from repro.network.generators import grid_network
    from repro.parallel.pool import SearchWorkerPool
    from repro.trajectory.generator import generate_trips

    graph = grid_network(6, 6, seed=1)
    database = TrajectoryDatabase(graph, generate_trips(graph, 20, seed=2))
    pool = SearchWorkerPool(make_searcher(database, "scan"), database, 2)
    print(*pool.worker_pids, flush=True)
    time.sleep(60)
    """
)


@pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGKILL])
def test_a_dead_parent_leaves_no_orphan(sig):
    """No handler runs for either signal in this holder process: the
    workers notice the pipe's EOF and exit on their own."""
    holder = subprocess.Popen(
        [sys.executable, "-c", _HOLDER],
        stdout=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=SRC),
        text=True,
    )
    try:
        pids = [int(pid) for pid in holder.stdout.readline().split()]
        assert len(pids) == 2 and not any(_gone(pid) for pid in pids)
        holder.send_signal(sig)
        holder.wait(timeout=10)
        assert _wait_gone(pids)
    finally:
        holder.kill()
        holder.wait()
        holder.stdout.close()


def _serve(tmp_path, gateway_workers: int):
    """Start ``repro serve`` on a fresh dataset; returns the process and
    its address.  Forking with threads alive warns on 3.12+; the warning is
    an error here, BLAS pools pinned to one thread so only *our* threads
    could trip it."""
    import re

    from repro.cli import main

    data = tmp_path / "ds"
    assert main([
        "generate", "--output", str(data), "--topology", "grid",
        "--vertices", "400", "--trajectories", "300", "--seed", "3",
    ]) == 0
    env = dict(
        os.environ, PYTHONPATH=SRC, PYTHONUNBUFFERED="1",
        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
    )
    server = subprocess.Popen(
        [
            sys.executable, "-W", "error:This process:DeprecationWarning",
            "-m", "repro.cli", "serve", "--data", str(data), "--port", "0",
            "--gateway-workers", str(gateway_workers),
        ],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True,
    )
    line = server.stdout.readline()
    match = re.search(r"serving on http://([^:]+):(\d+)", line)
    if not match:
        server.kill()
        server.wait()
        pytest.fail(f"serve did not start: {line!r} {server.stderr.read()}")
    return server, (match.group(1), int(match.group(2)))


def _children(pid: int) -> list[int]:
    path = Path(f"/proc/{pid}/task/{pid}/children")
    return [int(child) for child in path.read_text().split()]


def _stop(server) -> None:
    server.kill()
    server.wait()
    server.stdout.close()
    server.stderr.close()


def test_serve_startup_forks_before_any_thread_and_sigterm_reaps(tmp_path):
    """``repro serve`` end to end: the pool forks while the process is
    still single-threaded, two connections are served by two workers, and
    SIGTERM leaves no child behind."""
    if usable_cpus() < 2:
        pytest.skip("one usable CPU: repro serve forks one worker")
    assert serving_workers(8) == min(usable_cpus(), 8)
    import http.client
    import json
    import re

    server, address = _serve(tmp_path, 2)
    try:
        children = _children(server.pid)
        assert len(children) == 2

        def fire(statuses: list, offset: int) -> None:
            connection = http.client.HTTPConnection(*address)
            for i in range(offset, offset + 10):  # disjoint: no cache hits
                body = json.dumps({"locations": [i, 399 - 7 * i], "k": 3})
                connection.request(
                    "POST", "/query", body, {"Content-Type": "application/json"}
                )
                response = connection.getresponse()
                statuses.append((response.status, json.loads(response.read())))
            connection.close()

        replies: list = []
        callers = [
            threading.Thread(target=fire, args=(replies, offset)) for offset in (0, 10)
        ]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=30)
        assert not any(caller.is_alive() for caller in callers)
        assert [status for status, _ in replies] == [200] * 20
        assert {body["stats"]["executor"] for _, body in replies} == {"fork"}
        connection = http.client.HTTPConnection(*address)
        connection.request("GET", "/readyz")
        assert json.loads(connection.getresponse().read())["pool_workers"] == 2
        connection.request("GET", "/metrics")
        metrics = connection.getresponse().read().decode()
        connection.close()
        assert "repro_pool_workers 2" in metrics
        assert "repro_pool_fallbacks_total 0" in metrics
        counts = re.findall(r'repro_pool_dispatched_total\{worker="\d"\} (\d+)', metrics)
        assert len(counts) == 2 and sum(map(int, counts)) == 20
        server.send_signal(signal.SIGTERM)
        assert server.wait(timeout=15) == 0
        assert _wait_gone(children)
    finally:
        _stop(server)


def test_serve_with_one_gateway_worker_forks_one_and_a_batch_forks_none(tmp_path):
    """Even one bridge thread gets a worker, so the parent never searches;
    a batch rides that worker and forks nothing more."""
    import http.client
    import json

    assert serving_workers(1) == 1
    server, address = _serve(tmp_path, 1)
    try:
        children = _children(server.pid)
        assert len(children) == 1
        connection = http.client.HTTPConnection(*address)
        body = json.dumps(
            {"queries": [{"locations": [i, 399 - 7 * i], "k": 3} for i in range(6)]}
        )
        connection.request(
            "POST", "/query/batch", body, {"Content-Type": "application/json"}
        )
        response = connection.getresponse()
        assert response.status == 200
        results = json.loads(response.read())["results"]
        connection.close()
        assert [result["stats"]["executor"] for result in results] == ["fork"] * 6
        assert _children(server.pid) == children
        server.send_signal(signal.SIGTERM)
        assert server.wait(timeout=15) == 0
        assert _wait_gone(children)
    finally:
        _stop(server)
