"""O1 — tracing overhead on the P1 search path: A/B, enabled vs off.

Claim checked: enabling the ISSUE 4 tracing subsystem costs <= 5% wall
time on the paper-scale collaborative search path.  One process runs the
same query battery three ways — observability off, tracing enabled, and
tracing + metrics enabled — through identical fresh
:class:`~repro.service.service.QueryService` instances, and compares
best-of-``repeats`` times.  Results must stay identical across modes
(tracing is measurement, never behaviour).

Script mode writes machine-readable results to
``benchmarks/results/BENCH_o1.json`` and a table to
``benchmarks/results/o1_observability.txt``; ``--smoke`` runs tiny sizes
(CI) and reports without enforcing the floor — sub-millisecond smoke
queries put fixed per-span costs far above the paper-scale ratio.
"""

from __future__ import annotations

import sys
import time

import pytest

from common import SMOKE, Profile, bundle_for, paper_profile, write_results
from repro.bench.reporting import format_table, print_header
from repro.bench.workloads import WorkloadConfig, make_queries
from repro.obs.metrics import MetricsRegistry
from repro.service import QueryService

_INF = float("inf")

#: Acceptance ceiling: tracing may cost at most this fraction of wall time.
TRACE_OVERHEAD_MAX = 0.05


def _time_repeats(fn, repeats: int) -> float:
    """Best-of-``repeats`` wall time in seconds (noise-resistant)."""
    best = _INF
    for __ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _run_battery(bundle, queries, **service_kwargs):
    service = QueryService(bundle.database, "collaborative", **service_kwargs)
    return [service.submit(query) for query in queries]


def compare_modes(bundle, queries, repeats: int) -> dict:
    """Time the battery with observability off / traced / traced+metrics."""
    off_results = _run_battery(bundle, queries)
    traced_results = _run_battery(bundle, queries, trace=True)
    for a, b in zip(off_results, traced_results):  # tracing never changes answers
        assert a.ids == b.ids, f"tracing changed results: {a.ids} vs {b.ids}"
        assert a.scores == b.scores

    off_s = _time_repeats(lambda: _run_battery(bundle, queries), repeats)
    traced_s = _time_repeats(
        lambda: _run_battery(bundle, queries, trace=True), repeats
    )
    full_s = _time_repeats(
        lambda: _run_battery(
            bundle, queries, trace=True, metrics=MetricsRegistry()
        ),
        repeats,
    )
    return {
        "num_queries": len(queries),
        "off_ms": round(off_s * 1000, 2),
        "traced_ms": round(traced_s * 1000, 2),
        "traced_metrics_ms": round(full_s * 1000, 2),
        "trace_overhead": round(traced_s / off_s - 1.0, 4),
        "full_overhead": round(full_s / off_s - 1.0, 4),
    }


def run_suite(profile: Profile, repeats: int) -> dict:
    report: dict = {
        "profile": {
            "scale": profile.scale,
            "trajectories": profile.trajectories,
            "queries": profile.queries,
        },
        "targets": {"trace_overhead_max": TRACE_OVERHEAD_MAX},
        "datasets": {},
    }
    for dataset in ("brn", "nrn"):
        bundle = bundle_for(profile, dataset)
        queries = make_queries(
            bundle, WorkloadConfig(num_queries=profile.queries, seed=7)
        )
        report["datasets"][dataset] = compare_modes(bundle, queries, repeats)
    report["pass"] = {
        "trace_overhead": all(
            d["trace_overhead"] <= TRACE_OVERHEAD_MAX
            for d in report["datasets"].values()
        )
    }
    return report


def _render(report: dict) -> str:
    rows = []
    for dataset, data in report["datasets"].items():
        rows.append((
            dataset, f"{data['off_ms']:.1f}", f"{data['traced_ms']:.1f}",
            f"{data['traced_metrics_ms']:.1f}",
            f"{data['trace_overhead']:+.1%}",
            f"{data['full_overhead']:+.1%}",
        ))
    table = format_table(
        ["dataset", "off ms", "traced ms", "traced+metrics ms",
         "trace overhead", "full overhead"],
        rows,
    )
    verdict = (
        f"target: trace overhead <= {TRACE_OVERHEAD_MAX:.0%} "
        f"({'PASS' if report['pass']['trace_overhead'] else 'FAIL'})"
    )
    if not report.get("enforced", True):
        verdict += "  [floor not enforced at smoke scale]"
    return f"{table}\n{verdict}\n"


def run_experiment(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    smoke = "--smoke" in argv
    profile = SMOKE if smoke else paper_profile()
    repeats = 2 if smoke else 5
    print_header(
        "O1  tracing overhead on the search path",
        f"profile={'smoke' if smoke else 'paper'} scale={profile.scale}",
    )
    report = run_suite(profile, repeats)
    report["enforced"] = not smoke
    text = _render(report)
    print(text)
    write_results("o1_observability", report, text, smoke)
    if not report["enforced"]:
        return 0
    return 0 if all(report["pass"].values()) else 1


# ------------------------------------------------------ pytest-benchmark
@pytest.mark.benchmark(group="o1-observability")
@pytest.mark.parametrize("mode", ["off", "traced"])
def test_o1_search_battery(benchmark, mode):
    bundle = bundle_for(SMOKE, "brn")
    queries = make_queries(
        bundle, WorkloadConfig(num_queries=SMOKE.queries, seed=7)
    )
    kwargs = {"trace": True} if mode == "traced" else {}
    benchmark.pedantic(
        lambda: _run_battery(bundle, queries, **kwargs),
        rounds=1, iterations=1, warmup_rounds=1,
    )


if __name__ == "__main__":
    sys.exit(run_experiment())
