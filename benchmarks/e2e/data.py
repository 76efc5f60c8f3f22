"""The benchmark's fixed inputs: dataset, query populations, oracle answers.

Built once per checkout (the "build" of this benchmark) and cached under
``.bench_build/e2e/``; every later run only reads the files.  Three things
are constants of the benchmark, never knobs:

- the **dataset** — the paper-scale BRN bundle
  (``build_bundle("brn", num_trajectories=8000, scale=1.0)``), written with
  the same ``save_json``/``save_jsonl`` files ``repro serve --data`` loads;
- the **query populations** — mixture ``mix-v1`` (see :data:`SHAPES`) laid
  out in stratified blocks so every run issues exactly the same share of
  light/typical/heavy queries and of each lambda;
- the **oracle answer** of every HTTP-lane query, computed by the
  repository's own ``brute-force`` searcher, so a run can check *every*
  response instead of a sample without paying for brute force again.

Why the populations are fixed and ``--seed`` only draws the schedule
(order, connection interleaving, ingest op stream): per-query cost at paper
scale is heavy-tailed (coefficient of variation 1.7 over ``mix-v1``; a cold
query is 6 ms to 2 s), and a run can afford ~150 cold queries.  Measured on
900 probe queries, ten seed-random runs of that size spread by 18% (QPS)
to 33% (p50) between their quartiles — wider than any bound the contract
allows.  Holding the population fixed leaves order effects and machine
noise, which is what a regression bound can resolve.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

from env import BUILD_ROOT

#: Bump when anything below changes what gets built.
BUILD_VERSION = "v3"

DATASET_SEED = 0
POPULATION_SEED = 20120326  # EDBT 2012

#: ``mix-v1`` shapes: (locations, keywords, k, anchored_fraction).  These are
#: the dimensions search cost depends on: sources to expand, candidate-set
#: size, and how deep the k-th bound sits.
SHAPES = {
    "light": (2, 3, 5, 0.9),
    "typical": (4, 4, 10, 0.9),
    "heavy": (6, 6, 20, 0.5),
}
LAMBDAS = (0.2, 0.5, 0.8)

#: One stratified block: 45% light, 45% typical, 10% heavy, interleaved so a
#: prefix of a population keeps the mixture.
BLOCK = (
    ("light", "typical") * 4 + ("heavy",) + ("light", "typical") * 5 + ("heavy",)
)

#: Population name -> shape sequence.  ``cold_c1``/``cold_c2`` are disjoint
#: so the two closed-loop phases never share a fingerprint; ``hit_pool``
#: must fit the server's 256-entry result cache; ``ingest_pool`` is
#: light/typical only (ISSUE: the ingest lane measures invalidation, not
#: heavy search).
POPULATIONS = {
    "warmup": ("light", "typical") * 3,
    "cold_c1": BLOCK * 5,
    "cold_c2": BLOCK * 3,
    "hit_pool": BLOCK * 2,
    "ingest_pool": ("light", "typical") * 30,
}
#: Populations whose answers never change (static database) get an oracle.
ORACLE_POPULATIONS = ("warmup", "cold_c1", "cold_c2", "hit_pool")
#: The stored oracle ranking runs this far past ``k``, so a tie the program
#: broke differently can usually be judged from the file alone (the id's
#: exact score is right there) without loading the database to rescore.
ORACLE_MARGIN = 8


@dataclass(frozen=True)
class Profile:
    """Dataset sizes.  Only :data:`PAPER` may produce benchmark numbers."""

    name: str
    num_trajectories: int
    scale: float


PAPER = Profile("paper", 8000, 1.0)
SMOKE = Profile("smoke", 300, 0.04)  # self-checks only


def build_dir(profile: Profile) -> Path:
    return BUILD_ROOT / f"{BUILD_VERSION}-{profile.name}"


def request_body(query) -> dict:
    """The ``POST /query`` JSON body of one domain query."""
    return {
        "locations": list(query.locations),
        "keywords": sorted(query.keywords),
        "lam": query.lam,
        "k": query.k,
    }


def query_from_body(body: dict):
    """The domain query a request body denotes (as the gateway builds it)."""
    from repro.core.query import UOTSQuery

    return UOTSQuery.create(
        body["locations"], body["keywords"], lam=body["lam"], k=body["k"]
    )


def load_database(directory: Path, timings: dict | None = None):
    """Load the dataset exactly as ``repro serve --data`` does.

    ``timings`` (optional) receives the per-layer set-up times the traced
    run reports.
    """
    from repro.index.database import TrajectoryDatabase
    from repro.network import io as network_io
    from repro.trajectory import io as trajectory_io

    t0 = time.perf_counter()
    graph = network_io.load_json(directory / "network.json")
    t1 = time.perf_counter()
    trips = trajectory_io.load_jsonl(directory / "trajectories.jsonl")
    t2 = time.perf_counter()
    database = TrajectoryDatabase(graph, trips)
    t3 = time.perf_counter()
    if timings is not None:
        timings["network.io.load_s"] = t1 - t0
        timings["trajectory.io.load_s"] = t2 - t1
        timings["index.database.build_s"] = t3 - t2
    return database


def load_population(directory: Path) -> dict:
    return json.loads((directory / "population.json").read_text())


def _make_populations(bundle) -> dict[str, list[dict]]:
    """Draw every population from :data:`POPULATION_SEED`, all fingerprints
    distinct across populations."""
    from repro.bench.workloads import WorkloadConfig, make_queries
    from repro.perf.result_cache import query_fingerprint

    needed = {shape: 0 for shape in SHAPES}
    for shapes in POPULATIONS.values():
        for shape in shapes:
            needed[shape] += 1
    cells = {}
    for shape_no, (shape, (locations, keywords, k, anchored)) in enumerate(
        SHAPES.items()
    ):
        for lam_no, lam in enumerate(LAMBDAS):
            config = WorkloadConfig(
                # Twice the share: room to skip the odd duplicate fingerprint.
                num_queries=2 * (needed[shape] // len(LAMBDAS) + 1),
                num_locations=locations,
                num_keywords=keywords,
                lam=lam,
                k=k,
                anchored_fraction=anchored,
                seed=POPULATION_SEED + 10 * shape_no + lam_no,
            )
            cells[shape, lam] = iter(make_queries(bundle, config))
    seen = set()
    drawn = {shape: 0 for shape in SHAPES}
    populations = {}
    for name, shapes in POPULATIONS.items():
        rows = []
        for shape in shapes:
            lam = LAMBDAS[drawn[shape] % len(LAMBDAS)]
            drawn[shape] += 1
            while True:
                query = next(cells[shape, lam])
                fingerprint = query_fingerprint(query, "")
                if fingerprint not in seen:
                    seen.add(fingerprint)
                    break
            rows.append({"shape": shape, "body": request_body(query)})
        populations[name] = rows
    return populations


def _build(profile: Profile, target: Path) -> None:
    from repro.bench.datasets import build_bundle
    from repro.core.registry import make_searcher
    from repro.network import io as network_io
    from repro.trajectory import io as trajectory_io

    bundle = build_bundle(
        "brn",
        num_trajectories=profile.num_trajectories,
        scale=profile.scale,
        seed=DATASET_SEED,
    )
    network_io.save_json(bundle.graph, target / "network.json")
    trajectory_io.save_jsonl(bundle.trajectories, target / "trajectories.jsonl")
    populations = _make_populations(bundle)
    oracle = make_searcher(bundle.database, "brute-force")
    for name in ORACLE_POPULATIONS:
        for row in populations[name]:
            deeper = dict(row["body"], k=row["body"]["k"] + ORACLE_MARGIN)
            result = oracle.search(query_from_body(deeper))
            row["oracle"] = [
                [item.trajectory_id, item.score] for item in result.items
            ]
    document = {
        "profile": profile.name,
        "dataset": {
            "name": "brn",
            "seed": DATASET_SEED,
            "scale": profile.scale,
            "V": bundle.graph.num_vertices,
            "E": bundle.graph.num_edges,
            "P": len(bundle.trajectories),
            "sigma": bundle.database.sigma,
        },
        "populations": populations,
    }
    (target / "population.json").write_text(json.dumps(document))


def ensure_built(profile: Profile) -> Path:
    """The directory holding the built inputs, building them on first use.

    The build lands in a private directory and is renamed into place, so a
    killed or concurrent build never leaves a half-written cache behind.
    """
    final = build_dir(profile)
    if (final / "population.json").is_file():
        return final
    BUILD_ROOT.mkdir(parents=True, exist_ok=True)
    staging = BUILD_ROOT / f"{final.name}.staging-{os.getpid()}"
    staging.mkdir()
    try:
        started = time.perf_counter()
        print(f"building benchmark inputs ({profile.name}) ...", flush=True)
        _build(profile, staging)
        try:
            staging.rename(final)
        except OSError:
            if not (final / "population.json").is_file():
                raise
        print(f"built in {time.perf_counter() - started:.1f} s", flush=True)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return final
