"""Shared plumbing for the experiment benchmarks.

Every ``bench_*.py`` file is both a ``pytest-benchmark`` target (tiny "smoke"
sizes so the whole suite runs in minutes) and a runnable script
(``python benchmarks/bench_e2_num_locations.py``) that executes the full
paper-style sweep and prints the tables recorded in EXPERIMENTS.md.
Script-mode sizes scale with the ``REPRO_SCALE`` environment variable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.bench.datasets import DatasetBundle, bench_scale, build_bundle
from repro.bench.harness import AlgoMetrics, run_battery
from repro.bench.workloads import WorkloadConfig, make_queries

#: The published algorithm battery, in presentation order.
ALGOS = ["collaborative", "collaborative-rr", "spatial-first", "text-first",
         "brute-force"]

#: Committed artifacts of script-mode runs.
RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: Where ``--smoke`` runs write theirs (git-ignored): a smoke run must
#: never overwrite a committed paper-scale artifact.
SMOKE_RESULTS_DIR = RESULTS_DIR / "smoke"

#: Fast subset used by the pytest-benchmark smoke targets.
SMOKE_ALGOS = ["collaborative", "scan", "brute-force"]


@dataclass(frozen=True)
class Profile:
    """Sizes for one execution mode."""

    scale: float
    trajectories: int
    queries: int


SMOKE = Profile(scale=0.04, trajectories=300, queries=5)


def paper_profile() -> Profile:
    """Script-mode sizes derived from ``REPRO_SCALE``."""
    scale = bench_scale()
    return Profile(
        scale=scale,
        trajectories=max(400, round(8000 * scale)),
        queries=30,
    )


def bundle_for(profile: Profile, dataset: str = "brn", seed: int = 0) -> DatasetBundle:
    """The cached dataset bundle for a profile."""
    return build_bundle(
        dataset, num_trajectories=profile.trajectories, scale=profile.scale,
        seed=seed,
    )


def battery(
    bundle: DatasetBundle,
    config: WorkloadConfig,
    algorithms: list[str] = ALGOS,
) -> dict[str, AlgoMetrics]:
    """Run the standard battery for one workload configuration."""
    return run_battery(bundle, make_queries(bundle, config), algorithms)


def shed_counts(service) -> dict[str, int]:
    """``{reason: count}`` read from the service's ``repro_service_shed_total``."""
    series = service.metrics.snapshot().get("repro_service_shed_total", {})
    return {key.split('"')[1]: int(count) for key, count in series.items()}


def write_results(name: str, report: dict, text: str, smoke: bool) -> None:
    """Write one bench's ``BENCH_<id>.json`` and ``<name>.txt``.

    ``name`` is the table's stem (``"r2_overload"``); its first part is
    the bench id (``BENCH_r2.json``).  Script mode writes the committed
    artifacts under ``results/``, ``--smoke`` writes under
    ``results/smoke/``.
    """
    directory = SMOKE_RESULTS_DIR if smoke else RESULTS_DIR
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"BENCH_{name.split('_')[0]}.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    (directory / f"{name}.txt").write_text(text)
    print(f"wrote {path}")
