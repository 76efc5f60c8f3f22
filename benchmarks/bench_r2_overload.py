"""R2 — overload protection: interactive goodput under a hog-tenant flood.

Claim checked: under a sustained >= 4x synthetic overload driven by one
hog tenant flooding expensive (8-location, stress-shaped) queries, the
ISSUE 6 admission policy — per-tenant fair-share quotas, priority
classes, and the cost ceiling over ``QueryPlan.estimated_cost`` — keeps
the interactive tenant's goodput intact: success rate >= 95% (expected:
100%) with p95 latency within 2x of the unloaded baseline.  The *same*
mixed stream pushed through a plain global in-flight cap (a policy of
``max_inflight`` alone, every priority class shed only at the cap) lets
the hog monopolize the slots, dropping interactive queries roughly in
proportion to its share of the offered load.

Three conditions over one shared bundle, all using the same interactive
client (2 threads, think time between queries):

- ``unloaded``   — interactive tenant alone, no admission control: the
  latency baseline.
- ``naive``      — interactive + hog flood through a plain global cap
  (first come, first served): the failure mode.
- ``policy``     — the same flood through an :class:`AdmissionController`
  whose cost ceiling is calibrated *from the measured plans* to sit
  between the interactive and hog cost bands, with weighted fair-share
  quotas and priority classes backing it up.

The hog's queries are shed at the admission desk (plan-first, then
reject), so its flood costs the service planning work only; the policy
run's measured overload factor (offered submissions / served queries)
stays far above the 4x floor.

Script mode writes ``benchmarks/results/BENCH_r2.json`` and a table to
``benchmarks/results/r2_overload.txt``; ``--smoke`` runs tiny sizes
(CI) and reports without enforcing the floors — sub-millisecond smoke
latencies make the p95 ratio noise, not signal.
"""

from __future__ import annotations

import statistics
import sys
import threading
import time

import pytest

from common import (
    SMOKE,
    Profile,
    bundle_for,
    paper_profile,
    shed_counts,
    write_results,
)
from repro.bench.reporting import format_table, print_header
from repro.bench.workloads import WorkloadConfig, make_queries
from repro.service import (
    PRIORITY_CLASSES,
    AdmissionController,
    AdmissionPolicy,
    QueryService,
)


#: Global in-flight capacity for both loaded conditions.
CAPACITY = 3

#: Client shape: (interactive + hog threads) / CAPACITY = 4x thread-level
#: overload; the measured factor (submissions / served) runs far higher.
INTERACTIVE_THREADS = 2
HOG_THREADS = 10

#: Seconds an interactive thread thinks between queries, and a hog client
#: backs off after a rejection (a polite retry loop, not a spin).
THINK_SECONDS = 0.002
HOG_BACKOFF_SECONDS = 0.01

#: Acceptance floors (enforced at paper scale only).
OVERLOAD_MIN = 4.0
INTERACTIVE_SUCCESS_MIN = 0.95
P95_RATIO_MAX = 2.0
#: The naive cap must actually exhibit the failure the policy prevents.
NAIVE_SUCCESS_MAX = 0.75


def make_workloads(bundle, profile: Profile):
    """The two tenants' query mixes.

    Interactive: cheap anchored 2-location lookups (the trip-recommender
    front-end).  Hog: 8-location, 6-keyword, k=20 stress queries with
    random (un-anchored) locations — the shape that maximizes
    ``estimated_cost`` (cost ~ candidates + locations x |V|) and search
    work alike.
    """
    interactive = make_queries(
        bundle,
        WorkloadConfig(
            num_queries=profile.queries * INTERACTIVE_THREADS,
            num_locations=2, num_keywords=3, k=5, seed=11,
        ),
    )
    hog = make_queries(
        bundle,
        WorkloadConfig(
            num_queries=8, num_locations=8, num_keywords=6, k=20,
            anchored_fraction=0.0, seed=13,
        ),
    )
    return interactive, hog


def calibrate_policy(service: QueryService, interactive, hog) -> AdmissionPolicy:
    """An :class:`AdmissionPolicy` whose cost ceiling sits between the two
    tenants' measured cost bands.

    The ceiling is the midpoint of ``max(interactive cost)`` and
    ``min(hog cost)``; ``min_cost_fraction`` keeps the loaded ceiling
    above every interactive plan (cheap queries always fit) and
    ``degrade_headroom`` stays below the hog band (expensive queries are
    shed outright, not degraded).  Quotas and priorities back the ceiling
    up in case a hog query slips under it.
    """
    int_costs = [service.plan(q).estimated_cost for q in interactive]
    hog_costs = [service.plan(q).estimated_cost for q in hog]
    int_max, hog_min = max(int_costs), min(hog_costs)
    if hog_min <= int_max:  # pragma: no cover - workload shapes prevent this
        raise AssertionError(
            f"hog cost band ({hog_min:.0f}) must sit above the interactive "
            f"band ({int_max:.0f}); re-shape the workloads"
        )
    max_cost = (int_max + hog_min) / 2.0
    return AdmissionPolicy(
        max_inflight=CAPACITY,
        tenant_weights={"interactive": 3.0, "hog": 1.0},
        max_cost=max_cost,
        cost_pressure=0.3,
        min_cost_fraction=min(1.0, 1.02 * int_max / max_cost),
        degrade_headroom=max(1.0, min(1.5, 0.95 * hog_min / max_cost)),
    )


def _percentile(values: list[float], fraction: float) -> float:
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return ordered[index]


def _interactive_worker(service, queries, outcomes, latencies):
    for query in queries:
        started = time.perf_counter()
        result = service.submit(
            query, tenant="interactive", priority="interactive"
        )
        elapsed = time.perf_counter() - started
        outcomes.append(result.error is None)
        if result.error is None:
            latencies.append(elapsed)
        time.sleep(THINK_SECONDS)


def _hog_worker(service, queries, offset, stop, counts, lock):
    index = offset
    while not stop.is_set():
        query = queries[index % len(queries)]
        index += 1
        result = service.submit(query, tenant="hog", priority="best_effort")
        with lock:
            counts["submitted"] += 1
            if result.error is None:
                counts["served"] += 1
                if not result.exact:
                    counts["degraded"] += 1
        if result.error is not None:
            # A real client backs off after a shed; a pure spin would just
            # measure GIL contention from the reject loop itself.
            time.sleep(HOG_BACKOFF_SECONDS)


def run_condition(bundle, interactive, hog, admission) -> dict:
    """One loaded (or unloaded) run: the interactive client plus, when hog
    queries are given, a flood of hog threads that stops when the
    interactive stream completes."""
    service = QueryService(bundle.database, "collaborative", admission=admission)
    per_thread = len(interactive) // INTERACTIVE_THREADS
    outcomes: list[list[bool]] = [[] for _ in range(INTERACTIVE_THREADS)]
    latencies: list[list[float]] = [[] for _ in range(INTERACTIVE_THREADS)]
    workers = [
        threading.Thread(
            target=_interactive_worker,
            args=(
                service,
                interactive[i * per_thread:(i + 1) * per_thread],
                outcomes[i],
                latencies[i],
            ),
        )
        for i in range(INTERACTIVE_THREADS)
    ]
    stop = threading.Event()
    hog_counts = {"submitted": 0, "served": 0, "degraded": 0}
    hog_lock = threading.Lock()
    hogs = [
        threading.Thread(
            target=_hog_worker,
            args=(service, hog, i, stop, hog_counts, hog_lock),
        )
        for i in range(HOG_THREADS if hog else 0)
    ]
    started = time.perf_counter()
    for thread in workers + hogs:
        thread.start()
    for thread in workers:
        thread.join()
    stop.set()
    for thread in hogs:
        thread.join()
    duration = time.perf_counter() - started

    flat_outcomes = [o for lane in outcomes for o in lane]
    flat_latencies = [t for lane in latencies for t in lane]
    served_total = sum(flat_outcomes) + hog_counts["served"]
    submitted_total = len(flat_outcomes) + hog_counts["submitted"]
    return {
        "duration_s": round(duration, 2),
        "interactive": {
            "submitted": len(flat_outcomes),
            "served": sum(flat_outcomes),
            "success_rate": round(
                sum(flat_outcomes) / max(1, len(flat_outcomes)), 4
            ),
            "p50_ms": round(
                statistics.median(flat_latencies) * 1000, 3
            ) if flat_latencies else None,
            "p95_ms": round(
                _percentile(flat_latencies, 0.95) * 1000, 3
            ) if flat_latencies else None,
        },
        "hog": dict(hog_counts),
        "overload_factor": round(
            submitted_total / max(1, served_total), 1
        ),
        "shed_reasons": shed_counts(service),
    }


def naive_controller() -> AdmissionController:
    """The naive arm: a plain first-come-first-served cap of ``CAPACITY``
    (every priority class is shed by the cap alone, never earlier)."""
    return AdmissionController(
        AdmissionPolicy(
            max_inflight=CAPACITY,
            priority_thresholds=dict.fromkeys(PRIORITY_CLASSES, 1.0),
        )
    )


def run_suite(profile: Profile) -> dict:
    bundle = bundle_for(profile, "brn")
    interactive, hog = make_workloads(bundle, profile)

    # Warm the bundle's cross-query caches so the baseline and the loaded
    # conditions see the same (steady-state) substrate.
    warm = QueryService(bundle.database, "collaborative")
    for query in interactive:
        warm.search(query)

    policy = calibrate_policy(warm, interactive, hog)
    unloaded = run_condition(bundle, interactive, [], None)
    naive = run_condition(bundle, interactive, hog, naive_controller())
    policied = run_condition(
        bundle, interactive, hog, AdmissionController(policy)
    )

    baseline_p95 = unloaded["interactive"]["p95_ms"]
    policy_p95 = policied["interactive"]["p95_ms"]
    p95_ratio = (
        round(policy_p95 / baseline_p95, 2)
        if policy_p95 is not None and baseline_p95 else None
    )
    report = {
        "profile": {
            "scale": profile.scale,
            "trajectories": profile.trajectories,
            "queries": profile.queries,
        },
        "shape": {
            "capacity": CAPACITY,
            "interactive_threads": INTERACTIVE_THREADS,
            "hog_threads": HOG_THREADS,
            "thread_overload": round(
                (INTERACTIVE_THREADS + HOG_THREADS) / CAPACITY, 1
            ),
        },
        "policy": {
            "max_inflight": policy.max_inflight,
            "tenant_weights": dict(policy.tenant_weights),
            "max_cost": round(policy.max_cost, 1),
            "min_cost_fraction": round(policy.min_cost_fraction, 3),
            "degrade_headroom": round(policy.degrade_headroom, 3),
        },
        "targets": {
            "overload_min": OVERLOAD_MIN,
            "interactive_success_min": INTERACTIVE_SUCCESS_MIN,
            "p95_ratio_max": P95_RATIO_MAX,
            "naive_success_max": NAIVE_SUCCESS_MAX,
        },
        "conditions": {
            "unloaded": unloaded,
            "naive": naive,
            "policy": policied,
        },
        "p95_ratio": p95_ratio,
    }
    report["pass"] = {
        "overload_reached": (
            naive["overload_factor"] >= OVERLOAD_MIN
            and policied["overload_factor"] >= OVERLOAD_MIN
        ),
        "interactive_success": (
            policied["interactive"]["success_rate"] >= INTERACTIVE_SUCCESS_MIN
        ),
        "interactive_p95": (
            p95_ratio is not None and p95_ratio <= P95_RATIO_MAX
        ),
        "naive_drops_interactive": (
            naive["interactive"]["success_rate"] <= NAIVE_SUCCESS_MAX
        ),
    }
    return report


def _render(report: dict) -> str:
    rows = []
    for name in ("unloaded", "naive", "policy"):
        data = report["conditions"][name]
        inter = data["interactive"]
        rows.append((
            name,
            f"{inter['served']}/{inter['submitted']}",
            f"{inter['success_rate'] * 100:.1f}%",
            "-" if inter["p95_ms"] is None else f"{inter['p95_ms']:.1f}",
            f"{data['hog']['served']}/{data['hog']['submitted']}",
            f"{data['overload_factor']:.1f}x",
        ))
    table = format_table(
        ["condition", "interactive", "success", "p95 ms", "hog", "overload"],
        rows,
    )
    checks = report["pass"]
    verdict = (
        f"targets: interactive success >= "
        f"{report['targets']['interactive_success_min'] * 100:.0f}% "
        f"({'PASS' if checks['interactive_success'] else 'FAIL'}), "
        f"p95 ratio {report['p95_ratio']}x <= "
        f"{report['targets']['p95_ratio_max']:.0f}x "
        f"({'PASS' if checks['interactive_p95'] else 'FAIL'}), "
        f"naive cap drops interactive "
        f"({'PASS' if checks['naive_drops_interactive'] else 'FAIL'}), "
        f"overload >= {report['targets']['overload_min']:.0f}x "
        f"({'PASS' if checks['overload_reached'] else 'FAIL'})"
    )
    if not report.get("enforced", True):
        verdict += "  [floors not enforced at smoke scale]"
    return f"{table}\n{verdict}\n"


def run_experiment(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    smoke = "--smoke" in argv
    profile = SMOKE if smoke else paper_profile()
    print_header(
        "R2  overload protection under a hog-tenant flood",
        f"profile={'smoke' if smoke else 'paper'} scale={profile.scale}",
    )
    report = run_suite(profile)
    report["enforced"] = not smoke
    text = _render(report)
    print(text)
    write_results("r2_overload", report, text, smoke)
    if not report["enforced"]:
        return 0
    return 0 if all(report["pass"].values()) else 1


# ------------------------------------------------------ pytest-benchmark
@pytest.mark.benchmark(group="r2-overload")
@pytest.mark.parametrize("mode", ["naive", "policy"])
def test_r2_overloaded_stream(benchmark, mode):
    bundle = bundle_for(SMOKE, "brn")
    interactive, hog = make_workloads(bundle, SMOKE)
    service = QueryService(bundle.database, "collaborative")

    def run():
        admission = (
            naive_controller()
            if mode == "naive"
            else AdmissionController(calibrate_policy(service, interactive, hog))
        )
        return run_condition(bundle, interactive, hog, admission)

    benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=1)


if __name__ == "__main__":
    sys.exit(run_experiment())
