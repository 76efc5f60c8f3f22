"""S1 — service-level result cache on a hot repeated workload: A/B.

Claim checked: with the ISSUE 5 result cache enabled, a paper-scale
workload where 50% of queries are repeats of earlier ones serves each
repeat >= 5x faster than the uncached service — with answers identical
per position (ids, scores, ``exact``).  Two fresh
:class:`~repro.service.service.QueryService` instances over one shared
bundle run the same interleaved stream: U unique queries, each followed
later by one exact repeat (the "popular trips" shape of the UOTS serving
workload).

Reported per dataset:

- ``stream_speedup`` — whole-stream wall time, uncached / cached.  With a
  50% hit rate this is bounded near 2x (Amdahl: the unique half still
  pays full searches) and is *not* the enforced floor.
- ``repeat_speedup`` — time summed over the repeat positions only,
  uncached / cached.  This is where the cache acts and where the >= 5x
  floor is enforced at paper scale; hits are O(1) lookups, so the
  observed ratio is typically orders of magnitude above the floor.

Script mode writes machine-readable results to
``benchmarks/results/BENCH_s1.json`` and a table to
``benchmarks/results/s1_result_cache.txt``; ``--smoke`` runs tiny sizes
(CI) and reports without enforcing the floor — sub-millisecond smoke
searches leave too little work for a stable ratio.
"""

from __future__ import annotations

import random
import sys
import time

import pytest

from common import SMOKE, Profile, bundle_for, paper_profile, write_results
from repro.bench.reporting import format_table, print_header
from repro.bench.workloads import WorkloadConfig, make_queries
from repro.service import QueryService


#: Acceptance floor: repeats must be served at least this much faster.
REPEAT_SPEEDUP_MIN = 5.0

#: Fraction of the stream that repeats an earlier query.
REPEAT_SHARE = 0.5


def make_stream(bundle, num_unique: int, seed: int):
    """A hot workload: ``num_unique`` distinct queries, each repeated once,
    repeats interleaved after their first occurrence (never before)."""
    unique = make_queries(
        bundle, WorkloadConfig(num_queries=num_unique, seed=seed)
    )
    rng = random.Random(seed + 1)
    stream = []
    is_repeat = []
    for i, query in enumerate(unique):
        stream.append(query)
        is_repeat.append(False)
        # Re-ask one of the queries seen so far, at a random earlier point.
        repeat = unique[rng.randrange(0, i + 1)]
        stream.append(repeat)
        is_repeat.append(True)
    return stream, is_repeat


def run_stream(bundle, stream, cached: bool):
    """Serve the stream through one fresh service; per-query wall times."""
    service = QueryService(
        bundle.database,
        "collaborative",
        result_cache=1024 if cached else None,
    )
    results = []
    times = []
    for query in stream:
        started = time.perf_counter()
        results.append(service.search(query))
        times.append(time.perf_counter() - started)
    return service, results, times


def compare(bundle, num_unique: int, seed: int) -> dict:
    stream, is_repeat = make_stream(bundle, num_unique, seed)
    __, uncached_results, uncached_times = run_stream(bundle, stream, cached=False)
    service, cached_results, cached_times = run_stream(bundle, stream, cached=True)

    for position, (a, b) in enumerate(zip(uncached_results, cached_results)):
        assert a.ids == b.ids, f"cache changed ids at position {position}"
        assert a.scores == b.scores, f"cache changed scores at position {position}"
        assert a.exact == b.exact, f"cache changed exactness at position {position}"

    hits = sum(1 for r in cached_results if r.stats.cache == "result")
    repeat_uncached = sum(t for t, rep in zip(uncached_times, is_repeat) if rep)
    repeat_cached = sum(t for t, rep in zip(cached_times, is_repeat) if rep)
    return {
        "stream_queries": len(stream),
        "unique_queries": num_unique,
        "repeat_share": REPEAT_SHARE,
        "cache_hits": hits,
        "result_cache_hits_stat": service.result_cache.stats.hits,
        "uncached_ms": round(sum(uncached_times) * 1000, 2),
        "cached_ms": round(sum(cached_times) * 1000, 2),
        "repeat_uncached_ms": round(repeat_uncached * 1000, 2),
        "repeat_cached_ms": round(repeat_cached * 1000, 3),
        "stream_speedup": round(sum(uncached_times) / sum(cached_times), 2),
        "repeat_speedup": round(repeat_uncached / repeat_cached, 1),
    }


def run_suite(profile: Profile) -> dict:
    report: dict = {
        "profile": {
            "scale": profile.scale,
            "trajectories": profile.trajectories,
            "queries": profile.queries,
        },
        "targets": {"repeat_speedup_min": REPEAT_SPEEDUP_MIN},
        "datasets": {},
    }
    for dataset in ("brn", "nrn"):
        bundle = bundle_for(profile, dataset)
        report["datasets"][dataset] = compare(bundle, profile.queries, seed=7)
    report["pass"] = {
        "identical_results": True,  # asserted per position in compare()
        "all_repeats_hit": all(
            d["cache_hits"] == d["unique_queries"]
            for d in report["datasets"].values()
        ),
        "repeat_speedup": all(
            d["repeat_speedup"] >= REPEAT_SPEEDUP_MIN
            for d in report["datasets"].values()
        ),
    }
    return report


def _render(report: dict) -> str:
    rows = []
    for dataset, data in report["datasets"].items():
        rows.append((
            dataset,
            f"{data['stream_queries']}",
            f"{data['cache_hits']}",
            f"{data['uncached_ms']:.0f}",
            f"{data['cached_ms']:.0f}",
            f"{data['stream_speedup']:.2f}x",
            f"{data['repeat_speedup']:.0f}x",
        ))
    table = format_table(
        ["dataset", "queries", "hits", "uncached ms", "cached ms",
         "stream speedup", "repeat speedup"],
        rows,
    )
    verdict = (
        f"target: repeat speedup >= {REPEAT_SPEEDUP_MIN:.0f}x "
        f"({'PASS' if report['pass']['repeat_speedup'] else 'FAIL'}), "
        f"identical top-k at every position"
    )
    if not report.get("enforced", True):
        verdict += "  [floor not enforced at smoke scale]"
    return f"{table}\n{verdict}\n"


def run_experiment(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    smoke = "--smoke" in argv
    profile = SMOKE if smoke else paper_profile()
    print_header(
        "S1  result cache on a 50%-repeated workload",
        f"profile={'smoke' if smoke else 'paper'} scale={profile.scale}",
    )
    report = run_suite(profile)
    report["enforced"] = not smoke
    text = _render(report)
    print(text)
    write_results("s1_result_cache", report, text, smoke)
    if not report["enforced"]:
        return 0
    return 0 if all(report["pass"].values()) else 1


# ------------------------------------------------------ pytest-benchmark
@pytest.mark.benchmark(group="s1-result-cache")
@pytest.mark.parametrize("mode", ["uncached", "cached"])
def test_s1_repeated_stream(benchmark, mode):
    bundle = bundle_for(SMOKE, "brn")
    stream, __ = make_stream(bundle, SMOKE.queries, seed=7)
    benchmark.pedantic(
        lambda: run_stream(bundle, stream, cached=mode == "cached"),
        rounds=1, iterations=1, warmup_rounds=1,
    )


if __name__ == "__main__":
    sys.exit(run_experiment())
