"""E1 — Pruning effectiveness (the paper family's candidate/pruning table).

Claim checked: the collaborative search materialises exact similarities for
only a small fraction of the database; the heuristic scheduler does not
visit more than round-robin; both dominate the spatial-first and text-first
baselines; brute force defines ratio 1.  ``scan`` (the serving engine) sits
next to ``collaborative``: the same bound-and-stop idea at array grain, one
bounded Dijkstra round per location, exact scores only where the bound
cannot decide.
"""

from __future__ import annotations

import sys

import pytest

from common import ALGOS, SMOKE, SMOKE_ALGOS, battery, bundle_for, paper_profile
from repro.bench.reporting import format_table, print_header
from repro.bench.workloads import WorkloadConfig, make_queries
from repro.core.engine import make_searcher

#: The pruning table's rows: the paper's battery with the serving engine's
#: array-grain bound-and-stop beside the collaborative expansion.
E1_ALGOS = ["collaborative", "scan", *ALGOS[1:]]


@pytest.mark.benchmark(group="e1-pruning")
@pytest.mark.parametrize("algorithm", SMOKE_ALGOS)
def test_e1_default_workload(benchmark, algorithm):
    bundle = bundle_for(SMOKE)
    queries = make_queries(bundle, WorkloadConfig(num_queries=SMOKE.queries, seed=1))
    searcher = make_searcher(bundle.database, algorithm)

    def run():
        return [searcher.search(query) for query in queries]

    results = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    evals = sum(r.stats.similarity_evaluations for r in results)
    benchmark.extra_info["candidate_ratio"] = evals / (
        len(queries) * len(bundle.database)
    )


def run_experiment() -> None:
    """Full sweep: the pruning-effectiveness table at default settings."""
    profile = paper_profile()
    for dataset in ("brn", "nrn"):
        bundle = bundle_for(profile, dataset)
        print_header(
            f"E1  Pruning effectiveness ({dataset.upper()}-like)",
            bundle.describe(),
        )
        metrics = battery(
            bundle, WorkloadConfig(num_queries=profile.queries, seed=1), E1_ALGOS
        )
        size = len(bundle.database)
        rows = []
        for name in E1_ALGOS:
            m = metrics[name]
            ratio = m.candidate_ratio(size)
            rows.append(
                (name, f"{ratio:.4f}", f"{1.0 - ratio:.4f}",
                 f"{m.mean_visited:.1f}", f"{m.mean_ms:.1f}")
            )
        print(format_table(
            ["algorithm", "candidate ratio", "pruning ratio",
             "visited/query", "ms/query"],
            rows,
        ))


if __name__ == "__main__":
    sys.exit(run_experiment())
