"""X2 (extension) — Parallel fan-out of independent searches.

Claim checked: per-query (and per-trajectory, for the join) searches are
independent, so batch throughput scales with workers while results stay
identical, and the join's merge phase is worker-independent.  The batch
grain rides the search worker pool: each width is timed through
``execute_many`` on a held ``QueryService(pool=N)``, forked and warmed
before the timer, so the rows measure fan-out rather than the pool's fork,
warm-up and close.  The held-pool section drives a pool the way
``repro serve`` uses it — one caller (c1) against two (c2) — which is the
c2/c1 ratio ROADMAP item 2 asks for.

Honesty note: the measured speedup is a property of the host.  On a
single-core machine (like some CI sandboxes) fork overhead makes the
multi-worker rows *slower* — the bench reports whatever the hardware gives;
the correctness assertion (identical results) is the portable part.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from statistics import median

import pytest

from common import SMOKE, bundle_for, paper_profile
from repro.bench.reporting import format_table, print_header
from repro.bench.workloads import WorkloadConfig, make_queries
from repro.join.tsjoin import TwoPhaseJoin
from repro.parallel.executor import fork_available, parallel_search
from repro.service import QueryService

WORKERS = [1, 2, 4]
#: The batch sweep runs the paper's algorithm and the serving default.
ALGORITHMS = ["collaborative", "scan"]
#: Timed runs per table cell (the median is reported): one forked run
#: spreads by +-20% on a shared 2-vCPU host.
REPEATS = 3
#: Gate (2+ CPU hosts): a pool that serialised its workers reads ~1.0x.
#: The rows committed for fork-per-batch read 1.61x for ``scan``; the same
#: parent code reads 1.40-1.48x in the hour this was re-measured, so the
#: floor sits below that spread, not at the best run on record.
MIN_SCAN_SPEEDUP = 1.3


def _median_seconds(run):
    """``(median wall seconds over REPEATS runs, the last run's output)``."""
    samples = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        output = run()
        samples.append(time.perf_counter() - started)
    return median(samples), output


@pytest.mark.benchmark(group="x2-parallel")
@pytest.mark.parametrize("workers", [1, 2])
def test_x2_batch_search(benchmark, workers):
    if workers > 1 and not fork_available():
        pytest.skip("fork not available")
    bundle = bundle_for(SMOKE)
    queries = make_queries(bundle, WorkloadConfig(num_queries=8, seed=10))
    results = benchmark.pedantic(
        lambda: parallel_search(bundle.database, queries, workers=workers),
        rounds=1, iterations=1, warmup_rounds=0,
    )
    assert len(results) == len(queries)


def run_experiment() -> None:
    """Worker sweep for batch queries and the self join."""
    profile = paper_profile()
    bundle = bundle_for(profile)
    print_header(
        "X2  Parallel batch search",
        f"{bundle.describe()}  (host CPUs: {os.cpu_count()})",
    )
    queries = make_queries(
        bundle, WorkloadConfig(num_queries=profile.queries * 2, seed=10)
    )
    rows = []
    for algorithm in ALGORITHMS:
        reference = None
        for workers in WORKERS:
            service = QueryService(
                bundle.database, algorithm, pool=workers if fork_available() else 0
            )
            try:
                service.execute_many(queries)  # untimed: workers touch their pages
                elapsed, results = _median_seconds(
                    lambda service=service: service.execute_many(queries)
                )
            finally:
                service.close()
            scores = [tuple(r.scores) for r in results]
            if reference is None:
                reference, base = scores, elapsed
            identical = "yes" if scores == reference else "NO"
            rows.append((
                algorithm, workers, f"{elapsed:.2f}", f"{base / elapsed:.2f}",
                identical,
            ))
    print(format_table(
        ["algorithm", "workers", "seconds", "speedup", "identical"], rows
    ))
    assert all(row[-1] == "yes" for row in rows), "results differ across workers"
    scan_at_two = next(
        float(row[3]) for row in rows if row[0] == "scan" and row[1] == 2
    )
    if (os.cpu_count() or 1) >= 2:
        assert scan_at_two >= MIN_SCAN_SPEEDUP, (
            f"scan batch speed-up at 2 workers {scan_at_two:.2f} < {MIN_SCAN_SPEEDUP}"
        )

    print_header("X2  Held pool (forked once): one caller vs two")
    rows = []
    for algorithm in ALGORITHMS:
        service = QueryService(bundle.database, algorithm, pool=2)
        try:
            rates = {}
            for callers in (1, 2):
                def lane(part):
                    for query in part:
                        service.submit(query)

                def run(callers=callers):
                    threads = [
                        threading.Thread(target=lane, args=(queries[i::callers],))
                        for i in range(callers)
                    ]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join()

                run()  # untimed: both workers touch their pages once
                elapsed, _ = _median_seconds(run)
                rates[callers] = len(queries) / elapsed
            rows.append((
                algorithm, f"{rates[1]:.1f}", f"{rates[2]:.1f}",
                f"{rates[2] / rates[1]:.2f}", service.pool.fallbacks,
            ))
        finally:
            service.close()
    print(format_table(
        ["algorithm", "c1 q/s", "c2 q/s", "c2/c1", "fallbacks"], rows
    ))

    print_header("X2  Parallel self join (phase 1 fan-out)")
    small = bundle_for(
        type(profile)(scale=profile.scale, trajectories=profile.trajectories // 8,
                      queries=profile.queries)
    )
    reference = None
    rows = []
    for workers in WORKERS:
        join = TwoPhaseJoin(small.database, workers=workers)
        elapsed, result = _median_seconds(lambda: join.self_join(1.9))
        # Pairs with their scores, and the work phase 1 did: a fan-out
        # that ran a different configuration reads "NO" here.
        observed = (
            result.pairs, result.candidate_pairs, result.stats.expanded_vertices,
            result.stats.visited_trajectories, result.stats.similarity_evaluations,
        )
        if reference is None:
            reference, base = observed, elapsed
        identical = "yes" if observed == reference else "NO"
        rows.append((workers, f"{elapsed:.2f}", f"{base / elapsed:.2f}", identical))
    print(format_table(["workers", "seconds", "speedup", "identical"], rows))
    assert all(row[-1] == "yes" for row in rows), "join differs across workers"


if __name__ == "__main__":
    sys.exit(run_experiment())
