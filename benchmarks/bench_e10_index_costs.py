"""E10 — Index construction cost and memory footprint.

The paper reports the memory its structures occupy (index and network tens
of MB, trajectories hundreds of MB).  This bench measures the analogous
quantities for the reproduction: build time and (deep-ish) memory estimate
of each structure as |P| grows, plus the time ``repro serve`` spends reading
the network back from its JSON file and the trajectories from their
JSON-lines file.  The network is array-native, so its footprint is the
bytes of its arrays (coordinates, edge columns, CSR).

Claim checked: index sizes grow linearly in |P|; the network's footprint is
independent of |P|; trajectory payloads dominate the indexes, matching the
paper's memory breakdown.
"""

from __future__ import annotations

import sys
import tempfile
import time
from pathlib import Path

import pytest

from common import SMOKE, paper_profile
from repro.bench.datasets import build_bundle
from repro.bench.reporting import format_table, print_header
from repro.index.database import TrajectoryDatabase
from repro.network.io import load_json, save_json
from repro.trajectory.io import load_jsonl, save_jsonl


def _deep_size(obj, _seen=None) -> int:
    """Recursive ``sys.getsizeof`` over containers (an estimate, not RSS)."""
    if _seen is None:
        _seen = set()
    if id(obj) in _seen:
        return 0
    _seen.add(id(obj))
    size = sys.getsizeof(obj)
    if isinstance(obj, dict):
        size += sum(
            _deep_size(k, _seen) + _deep_size(v, _seen) for k, v in obj.items()
        )
    elif isinstance(obj, (list, tuple, set, frozenset)):
        size += sum(_deep_size(item, _seen) for item in obj)
    elif hasattr(obj, "__dict__"):
        size += _deep_size(vars(obj), _seen)
    elif hasattr(obj, "__slots__"):
        size += sum(
            _deep_size(getattr(obj, slot), _seen)
            for slot in obj.__slots__
            if hasattr(obj, slot)
        )
    return size


def _megabytes(num_bytes: int) -> str:
    return f"{num_bytes / 1_048_576:.1f}"


@pytest.mark.benchmark(group="e10-index")
def test_e10_database_build(benchmark):
    bundle = build_bundle("brn", num_trajectories=300, scale=SMOKE.scale, seed=0)
    result = benchmark.pedantic(
        lambda: TrajectoryDatabase(
            bundle.graph, bundle.trajectories, sigma=bundle.database.sigma
        ),
        rounds=1, iterations=1, warmup_rounds=0,
    )
    assert len(result) == 300


def run_experiment() -> None:
    """Build-time and footprint table over |P|."""
    profile = paper_profile()
    print_header("E10  Index construction cost and memory footprint")
    rows = []
    for cardinality in (profile.trajectories // 4, profile.trajectories // 2,
                        profile.trajectories):
        bundle = build_bundle("brn", num_trajectories=cardinality,
                              scale=profile.scale, seed=0)
        started = time.perf_counter()
        database = TrajectoryDatabase(
            bundle.graph, bundle.trajectories, sigma=bundle.database.sigma
        )
        vertex_index = database.vertex_index  # built on first access: timed too
        build_seconds = time.perf_counter() - started
        with tempfile.TemporaryDirectory() as scratch:
            network_path = Path(scratch) / "network.json"
            save_json(bundle.graph, network_path)
            started = time.perf_counter()
            load_json(network_path)
            network_seconds = time.perf_counter() - started
            path = Path(scratch) / "trajectories.jsonl"
            save_jsonl(bundle.trajectories, path)
            started = time.perf_counter()
            load_jsonl(path)
            load_seconds = time.perf_counter() - started
        rows.append(
            (
                cardinality,
                f"{build_seconds:.2f}",
                f"{network_seconds:.2f}",
                f"{load_seconds:.2f}",
                _megabytes(bundle.graph.nbytes),
                # The index references the network; that is not its footprint.
                _megabytes(_deep_size(vertex_index, {id(bundle.graph)})),
                _megabytes(_deep_size(database.keyword_index)),
                _megabytes(
                    sum(_deep_size(t) for t in bundle.trajectories)
                ),
            )
        )
    print(format_table(
        ["|P|", "index build s", "network load s", "load s", "network MB", "vertex idx MB",
         "keyword idx MB", "trajectories MB"],
        rows,
    ))


if __name__ == "__main__":
    sys.exit(run_experiment())
