"""P1 — CSR kernels, ALT pruning, and cross-query caching vs the dict path.

Claim checked: the flat-CSR shortest-path kernels give >= 2x on
``single_source_distances`` and the full hot-path stack (batched CSR
expansion + ALT frontier caps + cross-query caches) gives >= 1.5x on
end-to-end ``CollaborativeSearcher.search``, at identical results.  The
historical dict-based kernels are embedded here as the baseline so one
process runs a true A/B on the same data (the library itself only ships
the fast path).

Script mode writes machine-readable results to
``benchmarks/results/BENCH_p1.json`` and a table to
``benchmarks/results/p1_kernels.txt``; ``--smoke`` runs tiny sizes (CI).
"""

from __future__ import annotations

import functools
import heapq
import sys
import time

import pytest

from common import SMOKE, Profile, bundle_for, paper_profile, write_results
from repro.bench.reporting import format_table, print_header
from repro.bench.workloads import WorkloadConfig, make_queries
from repro.core.search import CollaborativeSearcher
from repro.index.database import TrajectoryDatabase
from repro.network.dijkstra import single_source_distances

_INF = float("inf")

#: Acceptance floors for the P1 change.
SSSP_SPEEDUP_MIN = 2.0
SEARCH_SPEEDUP_MIN = 1.5


# --------------------------------------------------------- legacy baseline
@functools.lru_cache(maxsize=None)
def legacy_adjacency(graph):
    """The pre-CSR per-vertex ``(neighbor, weight)`` lists, in edge order."""
    adjacency = [[] for _ in range(graph.num_vertices)]
    for u, v, w in graph.edges():
        adjacency[u].append((v, w))
        adjacency[v].append((u, w))
    return adjacency


class LegacyIncrementalExpansion:
    """The pre-CSR expansion: dict distances over list-of-tuples adjacency.

    Interface-compatible with the current class (``expand_steps``,
    ``exhausted``, finite post-exhaustion ``radius``) so it can be swapped
    into ``repro.core.sources`` for an in-process end-to-end baseline; the
    *data layout* is the historical one being benchmarked against.
    """

    def __init__(self, graph, source):
        graph._check_vertex(source)
        self._adjacency = legacy_adjacency(graph)
        self._heap = [(0.0, source)]
        self._dist = {source: 0.0}
        self._settled: dict[int, float] = {}
        self._radius = 0.0

    @property
    def radius(self):
        return self._radius

    @property
    def exhausted(self):
        return not self._heap

    def expand(self):
        steps = self.expand_steps(1)
        return steps[0] if steps else None

    def expand_steps(self, max_steps):
        out = []
        heap = self._heap
        settled = self._settled
        dist = self._dist
        adjacency = self._adjacency
        while heap and len(out) < max_steps:
            d, u = heapq.heappop(heap)
            if u in settled:
                continue
            settled[u] = d
            self._radius = d
            for v, w in adjacency[u]:
                nd = d + w
                if v not in settled and nd < dist.get(v, _INF):
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
            out.append((u, d))
        while heap and heap[0][1] in settled:
            heapq.heappop(heap)
        return out


def legacy_single_source_distances(graph, source, cutoff=None):
    """The pre-CSR dict Dijkstra (the kernel the new one replaced)."""
    dist = {source: 0.0}
    settled: dict[int, float] = {}
    heap = [(0.0, source)]
    adjacency = legacy_adjacency(graph)
    while heap:
        d, u = heapq.heappop(heap)
        if u in settled:
            continue
        if cutoff is not None and d > cutoff:
            break
        settled[u] = d
        for v, w in adjacency[u]:
            nd = d + w
            if v not in settled and nd < dist.get(v, _INF):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return settled


def legacy_trajectory_to_locations_distances(graph, vertex_set, locations):
    """Pre-CSR multi-source refinement Dijkstra with early exit."""
    if not vertex_set:
        return [_INF] * len(locations)
    unique = list(dict.fromkeys(locations))
    remaining = set(unique)
    dist = {v: 0.0 for v in vertex_set}
    heap = [(0.0, v) for v in vertex_set]
    heapq.heapify(heap)
    settled: dict[int, float] = {}
    found: dict[int, float] = {}
    adjacency = legacy_adjacency(graph)
    while heap and remaining:
        d, u = heapq.heappop(heap)
        if u in settled:
            continue
        settled[u] = d
        if u in remaining:
            found[u] = d
            remaining.discard(u)
        for v, w in adjacency[u]:
            nd = d + w
            if v not in settled and nd < dist.get(v, _INF):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return [found.get(loc, _INF) for loc in locations]


class _LegacySearchStack:
    """Context manager swapping the legacy kernels into the search path."""

    def __enter__(self):
        import repro.core.search as search_mod
        import repro.core.sources as sources_mod

        self._search_mod = search_mod
        self._sources_mod = sources_mod
        self._expansion = sources_mod.IncrementalExpansion
        self._refine = search_mod.trajectory_to_locations_distances
        sources_mod.IncrementalExpansion = LegacyIncrementalExpansion
        search_mod.trajectory_to_locations_distances = (
            legacy_trajectory_to_locations_distances
        )
        return self

    def __exit__(self, *exc):
        self._sources_mod.IncrementalExpansion = self._expansion
        self._search_mod.trajectory_to_locations_distances = self._refine
        return False


# ------------------------------------------------------------ measurement
def _time_repeats(fn, repeats: int) -> float:
    """Best-of-``repeats`` wall time in seconds (noise-resistant)."""
    best = _INF
    for __ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def compare_sssp(bundle, num_sources: int, repeats: int) -> dict:
    """Time ``single_source_distances`` new vs legacy on one network."""
    graph = bundle.database.graph
    step = max(1, graph.num_vertices // num_sources)
    sources = list(range(0, graph.num_vertices, step))[:num_sources]

    for s in sources[:2]:  # semantics gate before timing anything
        new = single_source_distances(graph, s)
        old = legacy_single_source_distances(graph, s)
        assert set(new) == set(old)
        assert all(abs(new[v] - old[v]) < 1e-9 for v in old)

    new_s = _time_repeats(
        lambda: [single_source_distances(graph, s) for s in sources], repeats
    )
    legacy_s = _time_repeats(
        lambda: [legacy_single_source_distances(graph, s) for s in sources], repeats
    )
    return {
        "num_vertices": graph.num_vertices,
        "num_sources": len(sources),
        "new_ms": round(new_s * 1000, 3),
        "legacy_ms": round(legacy_s * 1000, 3),
        "speedup": round(legacy_s / new_s, 2) if new_s > 0 else _INF,
    }


def compare_search(bundle, queries, repeats: int) -> dict:
    """Time end-to-end search: full new stack vs embedded legacy stack."""
    graph = bundle.database.graph
    trajectories = bundle.database.trajectories

    new_db = TrajectoryDatabase(graph, trajectories, sigma=bundle.database.sigma)
    landmark_started = time.perf_counter()
    new_db.landmark_index  # one-time index cost, reported separately
    landmark_ms = (time.perf_counter() - landmark_started) * 1000

    def run_new():
        searcher = CollaborativeSearcher(new_db)
        return [searcher.search(q) for q in queries]

    legacy_db = TrajectoryDatabase(
        graph, trajectories, sigma=bundle.database.sigma, cache_size=0
    )

    def run_legacy():
        with _LegacySearchStack():
            searcher = CollaborativeSearcher(legacy_db, alt=False)
            return [searcher.search(q) for q in queries]

    new_results = run_new()
    legacy_results = run_legacy()
    for a, b in zip(new_results, legacy_results):  # identical exact top-k
        assert a.ids == b.ids, f"semantics drifted: {a.ids} vs {b.ids}"
        assert all(
            abs(x - y) < 1e-9 for x, y in zip(a.scores, b.scores)
        ), "scores drifted"

    new_s = _time_repeats(run_new, repeats)
    legacy_s = _time_repeats(run_legacy, repeats)

    stats = None
    for result in new_results:
        if stats is None:
            stats = result.stats
        else:
            stats.merge(result.stats)
    return {
        "num_queries": len(queries),
        "new_ms": round(new_s * 1000, 2),
        "legacy_ms": round(legacy_s * 1000, 2),
        "speedup": round(legacy_s / new_s, 2) if new_s > 0 else _INF,
        "landmark_build_ms": round(landmark_ms, 2),
        "counters": {
            "expand_batches": stats.expand_batches,
            "expanded_vertices": stats.expanded_vertices,
            "refinements": stats.refinements,
            "alt_pruned": stats.alt_pruned,
            "distance_cache_hits": stats.distance_cache_hits,
            "distance_cache_misses": stats.distance_cache_misses,
            "text_cache_hits": stats.text_cache_hits,
            "text_cache_misses": stats.text_cache_misses,
        },
    }


def run_suite(profile: Profile, repeats: int) -> dict:
    report: dict = {
        "profile": {
            "scale": profile.scale,
            "trajectories": profile.trajectories,
            "queries": profile.queries,
        },
        "targets": {
            "sssp_speedup_min": SSSP_SPEEDUP_MIN,
            "search_speedup_min": SEARCH_SPEEDUP_MIN,
        },
        "datasets": {},
    }
    for dataset in ("brn", "nrn"):
        bundle = bundle_for(profile, dataset)
        queries = make_queries(
            bundle, WorkloadConfig(num_queries=profile.queries, seed=7)
        )
        report["datasets"][dataset] = {
            "sssp": compare_sssp(bundle, num_sources=20, repeats=repeats),
            "search": compare_search(bundle, queries, repeats=repeats),
        }
    sssp_ok = all(
        d["sssp"]["speedup"] >= SSSP_SPEEDUP_MIN
        for d in report["datasets"].values()
    )
    search_ok = all(
        d["search"]["speedup"] >= SEARCH_SPEEDUP_MIN
        for d in report["datasets"].values()
    )
    report["pass"] = {"sssp": sssp_ok, "search": search_ok}
    return report


def _render(report: dict) -> str:
    rows = []
    for dataset, data in report["datasets"].items():
        sssp = data["sssp"]
        search = data["search"]
        rows.append((
            dataset, f"{sssp['legacy_ms']:.1f}", f"{sssp['new_ms']:.1f}",
            f"{sssp['speedup']:.2f}x", f"{search['legacy_ms']:.0f}",
            f"{search['new_ms']:.0f}", f"{search['speedup']:.2f}x",
        ))
    table = format_table(
        ["dataset", "sssp legacy ms", "sssp new ms", "sssp speedup",
         "search legacy ms", "search new ms", "search speedup"],
        rows,
    )
    verdict = (
        f"targets: sssp >= {SSSP_SPEEDUP_MIN}x "
        f"({'PASS' if report['pass']['sssp'] else 'FAIL'}), "
        f"search >= {SEARCH_SPEEDUP_MIN}x "
        f"({'PASS' if report['pass']['search'] else 'FAIL'})"
    )
    if not report.get("enforced", True):
        verdict += "  [floors not enforced at smoke scale]"
    return f"{table}\n{verdict}\n"


def run_experiment(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    smoke = "--smoke" in argv
    profile = SMOKE if smoke else paper_profile()
    repeats = 2 if smoke else 3
    print_header(
        "P1  CSR kernels + ALT + caches vs dict baseline",
        f"profile={'smoke' if smoke else 'paper'} scale={profile.scale}",
    )
    report = run_suite(profile, repeats)
    # The floors are calibrated for paper scale; tiny smoke graphs
    # under-reward the compiled tiers, so smoke runs report without
    # enforcing (semantics assertions inside compare_* still apply).
    report["enforced"] = not smoke
    text = _render(report)
    print(text)
    write_results("p1_kernels", report, text, smoke)
    if not report["enforced"]:
        return 0
    return 0 if all(report["pass"].values()) else 1


# ------------------------------------------------------ pytest-benchmark
@pytest.mark.benchmark(group="p1-kernels")
@pytest.mark.parametrize("kernel", ["csr", "legacy-dict"])
def test_p1_single_source(benchmark, kernel):
    bundle = bundle_for(SMOKE, "brn")
    graph = bundle.database.graph
    fn = (
        single_source_distances if kernel == "csr"
        else legacy_single_source_distances
    )
    benchmark.pedantic(
        lambda: fn(graph, graph.num_vertices // 2),
        rounds=3, iterations=1, warmup_rounds=1,
    )


@pytest.mark.benchmark(group="p1-search")
def test_p1_end_to_end_search(benchmark):
    bundle = bundle_for(SMOKE, "brn")
    queries = make_queries(bundle, WorkloadConfig(num_queries=SMOKE.queries, seed=7))
    searcher = CollaborativeSearcher(bundle.database)
    benchmark.pedantic(
        lambda: [searcher.search(q) for q in queries],
        rounds=1, iterations=1, warmup_rounds=0,
    )


if __name__ == "__main__":
    sys.exit(run_experiment())
