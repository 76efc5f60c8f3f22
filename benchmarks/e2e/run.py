"""bench_e2e: one end-to-end benchmark over ``repro serve``.

    python3 benchmarks/e2e/run.py --workload cold_miss --seed 0 --seconds 20 --trace 0
    python3 benchmarks/e2e/run.py --workload cache_hit --trace 1     # per-layer table
    python3 benchmarks/e2e/run.py --repeat 10                        # spreads vs bounds

With ``--workload`` the last line of standard output is the result object
the contract in ``BENCHMARK.json`` describes: every end-to-end metric with
``--trace 0``, every per-layer metric with ``--trace 1``.  Without it, every
workload runs in turn, each in a fresh process (so one lane's memory never
shows in another's ``peak_rss_mb``), and ``--repeat N`` does that N times
with seeds ``seed .. seed+N-1``, then prints median, quartiles and spread of
each end-to-end metric against its bound.

See ``README.md`` beside this file for the metric glossary and how layers
map to end-to-end numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import env


def run_one(args: argparse.Namespace) -> int:
    """Run one workload in this process; print report + result line."""
    import data
    import report
    import workloads

    profile = data.SMOKE if args.smoke else data.PAPER
    data_dir = data.ensure_built(profile)
    population = data.load_population(data_dir)
    facts = report.host_facts()
    env.BUILD_ROOT.mkdir(parents=True, exist_ok=True)
    # The driver may end a run with SIGTERM: unwind, so servers are stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    with tempfile.TemporaryDirectory(dir=env.BUILD_ROOT, prefix="run-") as scratch:
        if args.trace:
            import tracing

            result = tracing.run_traced(args.workload, args.seed, data_dir, population)
        elif args.workload == "ingest_mix":
            result = workloads.run_ingest(
                args.seed, args.seconds, data_dir, population
            )
        else:
            result = workloads.HttpRun(
                args.workload, args.seed, args.seconds, data_dir, population,
                Path(scratch), facts["nproc"],
            ).run()
    declared = declared_metrics("per_layer" if args.trace else "end_to_end")
    printed = [metric.name for metric in result.metrics]
    if sorted(printed) != sorted(declared):
        result.problems.append(
            "metrics printed differ from BENCHMARK.json: "
            f"missing {sorted(set(declared) - set(printed))}, "
            f"undeclared {sorted(set(printed) - set(declared))}"
        )
    report.print_result(result, facts, population["dataset"])
    if args.out:
        Path(args.out).write_text(report.result_line(result) + "\n")
    if args.smoke:
        # Smoke sizes exist for the self-checks; their numbers must never be
        # mistaken for (or parsed as) benchmark results.
        print("smoke-result: " + report.result_line(result))
    else:
        print(report.result_line(result))
    return 0 if result.correct else 1


def contract() -> dict:
    return json.loads(env.CONTRACT.read_text())


def declared_metrics(group: str) -> list[str]:
    return [metric["name"] for metric in contract()[group]]


def child_run(workload: str, seed: int, args: argparse.Namespace, trace: int) -> dict:
    """One workload run in a fresh process; its parsed result line."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ]
    if args.smoke:
        command.append("--smoke")
    completed = subprocess.run(
        command, stdout=subprocess.PIPE, text=True, timeout=900, check=False
    )
    sys.stdout.write(completed.stdout)
    last = completed.stdout.rstrip().rsplit("\n", 1)[-1]
    result = json.loads(last.removeprefix("smoke-result: "))
    result["exit"] = completed.returncode
    return result


def run_sets(args: argparse.Namespace) -> int:
    """Every workload, ``--repeat`` times; spreads against the bounds."""
    spec = contract()
    names = [workload["name"] for workload in spec["workloads"]]
    repeats = max(1, args.repeat)
    values: dict[tuple[str, str], list[float]] = {}
    healthy = True
    for repeat in range(repeats):
        for workload in names:
            result = child_run(workload, args.seed + repeat, args, args.trace)
            healthy &= result["exit"] == 0 and result["correct"]
            for metric, reading in result["metrics"].items():
                values.setdefault((workload, metric), []).append(reading["value"])
    if args.trace or repeats < 2:
        return 0 if healthy else 1
    import report

    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    rows = []
    for (workload, metric), readings in values.items():
        low, mid, high = statistics.quantiles(readings, n=4)
        spread = (high - low) / mid
        # The driver accepts a spread within the bound (setup_s exempt); the
        # builder's target is a third of it.
        verdict = (
            "PASS" if spread <= bounds[metric] / 3
            else "pass (over a third)" if spread <= bounds[metric]
            else "exempt" if metric == "setup_s" else "FAIL"
        )
        healthy &= verdict != "FAIL"
        rows.append([
            workload, metric, f"{low:.4g}", f"{mid:.4g}", f"{high:.4g}",
            f"{spread:.4f}", f"{bounds[metric]:.2f}", verdict,
        ])
    print(f"\n== spreads over {repeats} sets (seeds {args.seed}..{args.seed + repeats - 1})")
    print(report.format_table(
        ["workload", "metric", "q1", "median", "q3", "(q3-q1)/median", "bound", "verdict"],
        rows,
    ))
    return 0 if healthy else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", help="one workload (default: all, in turn)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="nominal measuring time (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced in-process run printing per-layer metrics")
    parser.add_argument("--repeat", type=int, default=0,
                        help="run N full sets and print spreads vs bounds")
    parser.add_argument("--out", help="also write the result line to this file")
    parser.add_argument("--smoke", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    env.require_program()
    spec = contract()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.workload is None:
        return run_sets(args)
    if args.workload not in {workload["name"] for workload in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if args.repeat:
        parser.error("--repeat runs every workload; drop --workload")
    try:
        return run_one(args)
    except OSError as exc:  # includes the server failing to start or dying
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    os.environ.pop("REPRO_SCALE", None)  # sizes are constants, never env knobs
    sys.exit(main())
