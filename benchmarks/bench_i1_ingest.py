"""I1 — scoped vs wholesale result-cache invalidation under live ingest: A/B.

Claim checked: under a sustained 95/5 read/write stream at paper scale,
scoped invalidation (a reverse index for removals; for adds, one Dijkstra
from the newcomer's vertices bounded at the scan's phase-1 radius
``2 sigma``, capping every unreached query location at ``exp(-2)``, plus
the newcomer's exact text similarity) sustains a result-cache hit rate
>= 10x the wholesale
clear-on-any-mutation baseline — while every single read, including the
one immediately following every mutation, stays identical to a cold
oracle (a cache-free service over an identically mutated database, so
every oracle answer is a from-scratch search) up to *proven score ties*:
the collaborative search's float score for a candidate depends on which
internal path (expansion accumulation vs refinement) evaluated it, so a
mathematical tie at the kth boundary can resolve toward a different
(equally correct) id once unrelated mutations shift the search dynamics.
An id substitution at a rank is therefore accepted only after exact
rescoring proves both trajectories genuinely achieve that score — the
same acceptance rule ``benchmarks/e2e/oracle.py`` applies on the wire.

Stream shape: ``U`` unique queries read uniformly (the worst case for a
wholesale cache: a wide working set rebuilds slowly after every clear),
writes every 20th operation alternating add (a cloned member under a
fresh id with a keyword subset) and remove (a random live member), so the
database size stays roughly level under churn.  All three arms — scoped,
wholesale, oracle — replay the exact same pre-generated operation list
against private databases over the shared immutable graph.

Reported per dataset: per-arm hit rates and wall times, the enforced
``hit_rate_ratio`` (scoped / wholesale), the scoped cache's
dropped/retained invalidation counters (how selective the proofs were)
and its median per-add invalidation time (what the proof costs: the
bounded Dijkstra plus one bound per cached entry).

Script mode writes machine-readable results to
``benchmarks/results/BENCH_i1.json`` and a table to
``benchmarks/results/i1_ingest.txt``; ``--smoke`` runs tiny sizes (CI)
and reports without enforcing the floor — a handful of writes leaves too
little churn for a stable ratio (the byte-equality oracle is enforced at
every scale).
"""

from __future__ import annotations

import random
import statistics
import sys
import time

import pytest

from common import SMOKE, Profile, bundle_for, paper_profile, write_results
from repro.bench.datasets import DatasetBundle
from repro.core.similarity import ExactScorer
from repro.bench.reporting import format_table, print_header
from repro.bench.workloads import WorkloadConfig, make_queries
from repro.index.database import TrajectoryDatabase
from repro.perf import ResultCache
from repro.service import QueryService
from repro.trajectory.model import Trajectory, TrajectorySet


#: Acceptance floor: scoped hit rate over wholesale hit rate.
HIT_RATE_RATIO_MIN = 10.0

#: Float tolerance for score equality (same as the e2e oracle's tie rule).
TIE_EPS = 1e-9

#: One write per this many operations (19 reads : 1 write = 95/5).
WRITE_EVERY = 20


def make_ops(bundle: DatasetBundle, num_unique: int, num_ops: int, seed: int):
    """The pre-generated operation list all arms replay identically.

    Each element is ``("read", query)``, ``("add", trajectory)`` or
    ``("remove", trajectory_id)``.  Mutations are concretised up front
    against a scratch id map so every arm sees the same trajectories in
    the same order; a write never lands on the final operation, so each
    mutation is followed by at least one oracle-verified read.
    """
    pool = make_queries(
        bundle,
        WorkloadConfig(num_queries=num_unique, num_locations=3, k=5, seed=seed),
    )
    rng = random.Random(seed + 1)
    live = {t.id: t for t in bundle.trajectories}
    max_id = max(live)
    removed: list[Trajectory] = []
    ops: list[tuple] = []
    next_is_add = True
    for i in range(num_ops):
        if i % WRITE_EVERY == WRITE_EVERY - 1 and i != num_ops - 1:
            if next_is_add:
                donor = live[rng.choice(sorted(live))]
                max_id += 1
                fresh = donor.with_id(max_id).with_keywords(sorted(donor.keywords)[:3])
                live[max_id] = fresh
                ops.append(("add", fresh))
            else:
                victim = rng.choice(sorted(live))
                removed.append(live.pop(victim))
                ops.append(("remove", victim))
            next_is_add = not next_is_add
        else:
            ops.append(("read", rng.choice(pool)))
    return ops


def _private_database(bundle: DatasetBundle, cache_size: int | None) -> TrajectoryDatabase:
    """A fresh mutable database over the bundle's immutable graph."""
    return TrajectoryDatabase(
        bundle.graph,
        TrajectorySet(list(bundle.trajectories)),
        sigma=bundle.database.sigma,
        cache_size=cache_size,
    )


class _TimedCache(ResultCache):
    """A result cache that clocks each add's invalidation, proof included."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.add_seconds: list[float] = []

    def on_event(self, event, database=None):
        started = time.perf_counter()
        outcome = super().on_event(event, database)
        if event.kind == "add":
            self.add_seconds.append(time.perf_counter() - started)
        return outcome


def run_arm(bundle: DatasetBundle, ops: list[tuple], arm: str) -> dict:
    """Replay the stream through one arm; returns read answers + stats.

    ``arm``: ``"scoped"`` (per-entry invalidation), ``"wholesale"``
    (clear-on-any-mutation baseline), or ``"oracle"`` (no result cache
    *and* no cross-query caches — every answer is a from-scratch search).
    """
    if arm == "oracle":
        database = _private_database(bundle, cache_size=0)
        cache = None
    else:
        database = _private_database(bundle, cache_size=None)
        cache = _TimedCache(1024, scoped=arm == "scoped")
    service = QueryService(database, "collaborative", result_cache=cache)
    read_results = []
    started = time.perf_counter()
    for op in ops:
        if op[0] == "read":
            read_results.append(service.search(op[1]))
        elif op[0] == "add":
            database.add(op[1])
        else:
            database.remove(op[1])
    elapsed = time.perf_counter() - started
    hits = sum(1 for r in read_results if r.stats.cache == "result")
    out = {
        "elapsed_ms": round(elapsed * 1000, 1),
        "reads": len(read_results),
        "hits": hits,
        "hit_rate": round(hits / len(read_results), 4),
        "results": read_results,
    }
    if cache is not None:
        out["invalidation_events"] = cache.invalidation_events
        out["entries_dropped"] = cache.invalidation_entries_dropped
        out["entries_retained"] = cache.invalidation_entries_retained
        out["add_invalidation_us_p50"] = round(
            statistics.median(cache.add_seconds) * 1e6, 1
        )
    return out


def compare(bundle: DatasetBundle, num_unique: int, num_ops: int, seed: int) -> dict:
    ops = make_ops(bundle, num_unique, num_ops, seed)
    writes = sum(1 for op in ops if op[0] != "read")
    read_queries = [op[1] for op in ops if op[0] == "read"]
    # Every trajectory any arm ever held, for tie rescoring (scoring needs
    # only the immutable graph + sigma + the trajectory itself).
    catalog = {t.id: t for t in bundle.trajectories}
    catalog.update((op[1].id, op[1]) for op in ops if op[0] == "add")
    arms = {arm: run_arm(bundle, ops, arm) for arm in ("oracle", "wholesale", "scoped")}

    # THE correctness gate: every read — in particular the one right after
    # each mutation — must match the cold oracle, tolerating only id
    # substitutions that exact rescoring proves are genuine score ties.
    oracle_results = arms["oracle"].pop("results")
    tie_substitutions = {}
    for arm in ("wholesale", "scoped"):
        ties = 0
        for position, (got, want) in enumerate(
            zip(arms[arm].pop("results"), oracle_results)
        ):
            assert got.exact and want.exact
            for x, y in zip(got.scores, want.scores):
                assert abs(x - y) <= TIE_EPS, (
                    f"{arm} scores diverge at read {position}"
                )
            if got.ids == want.ids:
                continue
            scorer = ExactScorer(bundle.database, read_queries[position])
            for rank, (x, y) in enumerate(zip(got.ids, want.ids)):
                if x == y:
                    continue
                sx = scorer.score(catalog[x]).score
                sy = scorer.score(catalog[y]).score
                assert abs(sx - sy) <= TIE_EPS and abs(sx - got.scores[rank]) <= TIE_EPS, (
                    f"{arm} ids diverge at read {position} rank {rank} "
                    f"({x}@{sx} != {y}@{sy}) without a score tie"
                )
                ties += 1
        tie_substitutions[arm] = ties

    scoped_rate = arms["scoped"]["hit_rate"]
    wholesale_rate = arms["wholesale"]["hit_rate"]
    return {
        "operations": len(ops),
        "unique_queries": num_unique,
        "reads": arms["scoped"]["reads"],
        "writes": writes,
        "write_share": round(writes / len(ops), 3),
        "oracle_ms": arms["oracle"]["elapsed_ms"],
        "wholesale": arms["wholesale"],
        "scoped": arms["scoped"],
        "hit_rate_ratio": (
            round(scoped_rate / wholesale_rate, 1)
            if wholesale_rate
            else float("inf")
        ),
        "oracle_identical": True,  # asserted above, per read position
        "tie_substitutions": tie_substitutions,
    }


def run_suite(profile: Profile, num_unique: int, num_ops: int) -> dict:
    report: dict = {
        "profile": {
            "scale": profile.scale,
            "trajectories": profile.trajectories,
            "unique_queries": num_unique,
            "operations": num_ops,
            "write_every": WRITE_EVERY,
        },
        "targets": {"hit_rate_ratio_min": HIT_RATE_RATIO_MIN},
        "datasets": {},
    }
    for dataset in ("brn", "nrn"):
        bundle = bundle_for(profile, dataset)
        report["datasets"][dataset] = compare(bundle, num_unique, num_ops, seed=7)
    report["pass"] = {
        "oracle_identical": all(
            d["oracle_identical"] for d in report["datasets"].values()
        ),
        "hit_rate_ratio": all(
            d["hit_rate_ratio"] >= HIT_RATE_RATIO_MIN
            for d in report["datasets"].values()
        ),
    }
    return report


def _render(report: dict) -> str:
    rows = []
    for dataset, data in report["datasets"].items():
        scoped, wholesale = data["scoped"], data["wholesale"]
        rows.append((
            dataset,
            f"{data['reads']}/{data['writes']}",
            f"{wholesale['hit_rate']:.1%}",
            f"{scoped['hit_rate']:.1%}",
            f"{data['hit_rate_ratio']:.1f}x",
            f"{scoped['entries_dropped']}/{scoped['entries_retained']}",
            f"{scoped['add_invalidation_us_p50']:.0f}",
            f"{wholesale['elapsed_ms']:.0f}",
            f"{scoped['elapsed_ms']:.0f}",
        ))
    table = format_table(
        ["dataset", "reads/writes", "wholesale hits", "scoped hits",
         "ratio", "dropped/retained", "add inval p50 us", "wholesale ms",
         "scoped ms"],
        rows,
    )
    ties = sum(
        sum(d["tie_substitutions"].values()) for d in report["datasets"].values()
    )
    verdict = (
        f"target: scoped hit rate >= {HIT_RATE_RATIO_MIN:.0f}x wholesale "
        f"({'PASS' if report['pass']['hit_rate_ratio'] else 'FAIL'}), "
        f"every read oracle-identical up to proven score ties "
        f"({'PASS' if report['pass']['oracle_identical'] else 'FAIL'}, "
        f"{ties} tie substitution(s))"
    )
    if not report.get("enforced", True):
        verdict += "  [floor not enforced at smoke scale]"
    return f"{table}\n{verdict}\n"


def run_experiment(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    smoke = "--smoke" in argv
    if smoke:
        profile, num_unique, num_ops = SMOKE, 12, 80
    else:
        profile, num_unique, num_ops = paper_profile(), 200, 1000
    print_header(
        "I1  scoped vs wholesale invalidation under a 95/5 ingest stream",
        f"profile={'smoke' if smoke else 'paper'} scale={profile.scale}",
    )
    report = run_suite(profile, num_unique, num_ops)
    report["enforced"] = not smoke
    text = _render(report)
    print(text)
    write_results("i1_ingest", report, text, smoke)
    if not report["enforced"]:
        return 0
    return 0 if all(report["pass"].values()) else 1


# ------------------------------------------------------ pytest-benchmark
@pytest.mark.benchmark(group="i1-ingest")
@pytest.mark.parametrize("arm", ["wholesale", "scoped"])
def test_i1_ingest_stream(benchmark, arm):
    bundle = bundle_for(SMOKE, "brn")
    ops = make_ops(bundle, num_unique=12, num_ops=80, seed=7)
    benchmark.pedantic(
        lambda: run_arm(bundle, ops, arm),
        rounds=1, iterations=1, warmup_rounds=1,
    )


if __name__ == "__main__":
    sys.exit(run_experiment())
