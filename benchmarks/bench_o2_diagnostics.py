"""O2 — full-diagnostics overhead on the pooled batch path: A/B.

Claims checked, on an ``execute_many`` batch riding a two-worker service's
search worker pool (the one place a query's work leaves the process — the
pool forks when the service is built, outside the timed region on both
sides of the A/B):

1. **Overhead** — running with the whole diagnostics stack on (tracing +
   metrics registry + cross-process span harvest + slow-query
   journal + drift accounting) costs <= 5% wall time versus the same
   batch with observability off.
2. **Span coverage** — the stitched trace accounts for the worker-side
   work: the ``execute`` trees harvested home by :mod:`repro.obs.harvest`
   and grafted under the pooled ``query`` spans cover >= 90% of the
   worker-measured ``elapsed_seconds`` the result stats report.

A worker's work counts come home in its result stats and are exported
once, as ``repro_search_*_total``; there is no second, harvested copy to
audit.

Results must stay identical across modes (diagnostics are measurement,
never behaviour).  Script mode writes ``benchmarks/results/BENCH_o2.json``
and ``o2_diagnostics.txt``; ``--smoke`` runs tiny sizes (CI) and reports
without enforcing the overhead floor — sub-millisecond smoke queries put
fixed per-span costs far above the paper-scale ratio (coverage, being a
ratio of measured work, is enforced at every scale).
"""

from __future__ import annotations

import sys
import time
from statistics import median

import pytest

from common import SMOKE, Profile, bundle_for, paper_profile, write_results
from repro.bench.reporting import format_table, print_header
from repro.bench.workloads import WorkloadConfig, make_queries
from repro.obs.metrics import MetricsRegistry
from repro.parallel.executor import fork_available
from repro.service import QueryService


#: Acceptance ceiling: full diagnostics may cost this fraction of wall time.
OVERHEAD_MAX = 0.05
#: Acceptance floor: grafted worker trees must cover this share of the
#: worker-measured seconds the stats report.
SPAN_COVERAGE_MIN = 0.90

ALGORITHM = "collaborative"
WORKERS = 2

def _make_service(bundle, **service_kwargs) -> QueryService:
    return QueryService(bundle.database, ALGORITHM, pool=WORKERS, **service_kwargs)


def _make_diagnosed(bundle) -> QueryService:
    return _make_service(
        bundle, trace=True, metrics=MetricsRegistry(), slowlog=True
    )


def _run_battery(service, queries):
    """One batch on ``service``, whose workers are stopped afterwards."""
    try:
        return service.execute_many(queries)
    finally:
        service.close()


def _timed_battery(service, queries) -> float:
    try:
        started = time.perf_counter()
        service.execute_many(queries)
        return time.perf_counter() - started
    finally:
        service.close()


def _time_paired(bundle, queries, repeats: int) -> tuple[float, float]:
    """``(off_seconds, diagnosed_seconds)`` from paired per-batch samples.

    A pooled batch's wall time carries pipe and scheduler noise that
    spikes under contention and drifts as the parent accumulates memory,
    so the two modes run back-to-back per repeat (adjacent samples
    share the machine state the noise comes from) with the order flipped
    every repeat, and the diagnostics cost is the **median of the paired
    differences** — pairing cancels the common-mode drift, the median
    discards the throttle spikes.
    """
    offs, diffs = [], []
    for repeat in range(repeats):
        off_service, diag_service = _make_service(bundle), _make_diagnosed(bundle)
        if repeat % 2:
            diagnosed = _timed_battery(diag_service, queries)
            off = _timed_battery(off_service, queries)
        else:
            off = _timed_battery(off_service, queries)
            diagnosed = _timed_battery(diag_service, queries)
        offs.append(off)
        diffs.append(diagnosed - off)
    return median(offs), median(offs) + median(diffs)


def _audit_diagnostics(service, results) -> dict:
    """Span-coverage readouts from one fully-diagnosed batch."""
    forked = [
        span
        for root in service.tracer.traces
        for span in root.walk()
        if span.name == "query" and span.attributes.get("forked")
    ]
    span_seconds = sum(
        c.duration_s for s in forked for c in s.children if c.name == "execute"
    )
    worker_seconds = sum(r.stats.elapsed_seconds for r in results)
    coverage = span_seconds / worker_seconds if worker_seconds > 0 else 1.0
    return {
        "forked_query_spans": len(forked),
        "span_seconds": round(span_seconds, 6),
        "worker_seconds": round(worker_seconds, 6),
        "span_coverage": round(coverage, 4),
        "slowlog_entries": len(service.slowlog),
    }


def compare_modes(bundle, queries, repeats: int) -> dict:
    """Time the batch bare vs. under the full diagnostics stack."""
    off_results = _run_battery(_make_service(bundle), queries)
    diagnosed = _make_diagnosed(bundle)
    diag_results = _run_battery(diagnosed, queries)
    for a, b in zip(off_results, diag_results):  # measurement, not behaviour
        assert a.ids == b.ids, f"diagnostics changed results: {a.ids} vs {b.ids}"
        assert a.scores == b.scores
    audit = _audit_diagnostics(diagnosed, diag_results)
    off_s, diag_s = _time_paired(bundle, queries, repeats)
    return {
        "num_queries": len(queries),
        "off_ms": round(off_s * 1000, 2),
        "diagnostics_ms": round(diag_s * 1000, 2),
        "overhead": round(diag_s / off_s - 1.0, 4),
        **audit,
    }


def run_suite(profile: Profile, repeats: int) -> dict:
    report: dict = {
        "profile": {
            "scale": profile.scale,
            "trajectories": profile.trajectories,
            "queries": profile.queries,
        },
        "config": {"algorithm": ALGORITHM, "workers": WORKERS},
        "targets": {
            "overhead_max": OVERHEAD_MAX,
            "span_coverage_min": SPAN_COVERAGE_MIN,
        },
        "datasets": {},
    }
    for dataset in ("brn", "nrn"):
        bundle = bundle_for(profile, dataset)
        queries = make_queries(
            bundle, WorkloadConfig(num_queries=profile.queries, seed=7)
        )
        report["datasets"][dataset] = compare_modes(bundle, queries, repeats)
    datasets = report["datasets"].values()
    report["pass"] = {
        "overhead": all(d["overhead"] <= OVERHEAD_MAX for d in datasets),
        "span_coverage": all(
            d["span_coverage"] >= SPAN_COVERAGE_MIN for d in datasets
        ),
    }
    return report


def _render(report: dict) -> str:
    rows = []
    for dataset, data in report["datasets"].items():
        rows.append((
            dataset, f"{data['off_ms']:.1f}", f"{data['diagnostics_ms']:.1f}",
            f"{data['overhead']:+.1%}", f"{data['span_coverage']:.1%}",
            str(data["forked_query_spans"]),
        ))
    table = format_table(
        ["dataset", "off ms", "diagnosed ms", "overhead", "span coverage",
         "forked spans"],
        rows,
    )
    checks = report["pass"]
    verdict = (
        f"targets: overhead <= {OVERHEAD_MAX:.0%} "
        f"({'PASS' if checks['overhead'] else 'FAIL'}), "
        f"span coverage >= {SPAN_COVERAGE_MIN:.0%} "
        f"({'PASS' if checks['span_coverage'] else 'FAIL'})"
    )
    if not report.get("enforced", True):
        verdict += "  [overhead floor not enforced at smoke scale]"
    return f"{table}\n{verdict}\n"


def run_experiment(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not fork_available():
        print("O2 needs the fork start method; nothing to measure here")
        return 0
    smoke = "--smoke" in argv
    profile = SMOKE if smoke else paper_profile()
    repeats = 3 if smoke else 25
    print_header(
        "O2  full-diagnostics overhead on the forked batch path",
        f"profile={'smoke' if smoke else 'paper'} scale={profile.scale}",
    )
    report = run_suite(profile, repeats)
    report["enforced"] = not smoke
    text = _render(report)
    print(text)
    write_results("o2_diagnostics", report, text, smoke)
    if not report["pass"]["span_coverage"]:
        return 1
    if not report["enforced"]:
        return 0
    return 0 if report["pass"]["overhead"] else 1


# ------------------------------------------------------ pytest-benchmark
@pytest.mark.benchmark(group="o2-diagnostics")
@pytest.mark.parametrize("mode", ["off", "diagnosed"])
def test_o2_forked_batch(benchmark, mode):
    if not fork_available():
        pytest.skip("fork not available")
    bundle = bundle_for(SMOKE, "brn")
    queries = make_queries(
        bundle, WorkloadConfig(num_queries=SMOKE.queries, seed=7)
    )
    make = _make_diagnosed if mode == "diagnosed" else _make_service
    benchmark.pedantic(
        lambda: _run_battery(make(bundle), queries),
        rounds=1, iterations=1, warmup_rounds=1,
    )


if __name__ == "__main__":
    sys.exit(run_experiment())
