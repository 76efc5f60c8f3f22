"""The flat exact ``scan`` engine against the brute-force oracle.

One tie rule throughout (ROADMAP aim 3): a result matches the oracle when,
rank by rank, the scores agree to 1e-9; it may name a *different*
trajectory at a rank only when that trajectory's exact score — recomputed
here with :class:`ExactScorer`, not taken from the result — equals the
oracle's score at that rank.  The generic registry contract (protocol,
plan, statelessness, budgets) covers ``scan`` through the suites
parametrised over ``ALGORITHMS``; this file covers what is particular to
it: the vectorised kernel's edge cases, the array snapshot under
mutation, budget delegation, the serving paths and the plan estimate.
"""

from __future__ import annotations

import asyncio
import random

import numpy as np
import pytest

from repro.core.query import UOTSQuery
from repro.core.registry import ALGORITHMS, SERVING_ALGORITHM, make_searcher
from repro.core.scan import ScanArrays, ScanSearcher, scan_topk
from repro.core.similarity import ExactScorer
from repro.errors import BudgetExceededError, QueryError
from repro.index.database import TrajectoryDatabase
from repro.network.csr import scipy_available
from repro.network.generators import grid_network
from repro.obs.metrics import MetricsRegistry
from repro.resilience.budget import SearchBudget
from repro.service.service import QueryService
from repro.text.assignment import annotate_trajectories, assign_vertex_keywords
from repro.text.vocabulary import Vocabulary
from repro.trajectory.generator import generate_trips

LAMBDAS = (0.0, 0.2, 0.5, 0.8, 1.0)
TOLERANCE = 1e-9


def build_world(cache_size=None) -> TrajectoryDatabase:
    """A fresh, private database (tests here mutate it)."""
    graph = grid_network(12, 12, seed=31)
    trips = generate_trips(graph, 150, seed=32)
    vertex_keywords = assign_vertex_keywords(graph, Vocabulary.build(40, seed=33), seed=34)
    trips = annotate_trajectories(trips, vertex_keywords, seed=35)
    return TrajectoryDatabase(graph, trips, cache_size=cache_size)


@pytest.fixture(scope="module")
def world():
    """Shared and read-only; mutating tests call :func:`build_world`."""
    return build_world()


def keyword_pool(database) -> list[str]:
    return sorted(set().union(*(t.keywords for t in database.trajectories)))


def seeded_queries(database, seed: int, count: int) -> list[UOTSQuery]:
    """Random queries over every lambda, with and without keywords."""
    rng = random.Random(seed)
    words = keyword_pool(database)
    vertices = range(database.graph.num_vertices)
    queries = []
    for number in range(count):
        queries.append(
            UOTSQuery.create(
                rng.sample(vertices, rng.randint(1, 4)),
                rng.sample(words, rng.randint(0, 3)),
                lam=LAMBDAS[number % len(LAMBDAS)],
                k=rng.choice((1, 3, 10)),
            )
        )
    return queries


def assert_oracle_equal(database, query, got, want) -> int:
    """The single tie rule; returns the number of tie substitutions."""
    assert got.exact and got.error is None
    assert len(got.items) == len(want.items)
    assert len(set(got.ids)) == len(got.ids), "duplicate ids in a ranking"
    scorer = ExactScorer(database, query)
    substitutions = 0
    for rank, (item, truth) in enumerate(zip(got.items, want.items)):
        assert item.score == pytest.approx(truth.score, abs=TOLERANCE), rank
        if item.trajectory_id != truth.trajectory_id:
            exact = scorer.score(database.get(item.trajectory_id)).score
            assert exact == pytest.approx(truth.score, abs=TOLERANCE), (
                f"rank {rank}: id {item.trajectory_id} is not a tie of "
                f"oracle id {truth.trajectory_id}"
            )
            substitutions += 1
    return substitutions


def oracle_of(database):
    return make_searcher(database, "brute-force")


# ----------------------------------------------------------------- registry
def test_scan_is_registered_and_the_serving_default():
    assert SERVING_ALGORITHM == "scan"
    assert ALGORITHMS["scan"].factory is ScanSearcher
    assert not ALGORITHMS["scan"].accepts  # no tuning knobs


def test_serve_defaults_to_scan_and_library_defaults_stay_collaborative(world):
    from repro.cli import build_parser

    serve = build_parser().parse_args(["serve", "--data", "x"])
    assert serve.algorithm == SERVING_ALGORITHM
    query = build_parser().parse_args(["query", "--data", "x", "--locations", "1"])
    assert query.algorithm == "collaborative"
    assert type(make_searcher(world)).plan_name == "collaborative"
    assert QueryService(world).algorithm == "collaborative"


# -------------------------------------------------------------------- sweep
def test_seeded_sweep_matches_brute_force(world):
    scan, oracle = make_searcher(world, "scan"), oracle_of(world)
    queries = seeded_queries(world, seed=7, count=60)
    assert {q.lam for q in queries} == set(LAMBDAS)
    assert any(not q.keywords for q in queries)
    substitutions = sum(
        assert_oracle_equal(world, q, scan.search(q), oracle.search(q))
        for q in queries
    )
    # Reported, never silently accepted: this seeded world has no exact
    # spatial ties, so none are expected.
    assert substitutions == 0


@pytest.mark.parametrize("lam", LAMBDAS)
def test_k_beyond_database_size_returns_everything_once(world, lam):
    query = UOTSQuery.create([3, 100], ["park"], lam=lam, k=len(world) + 5)
    got = make_searcher(world, "scan").search(query)
    assert len(got.items) == len(world)
    assert_oracle_equal(world, query, got, oracle_of(world).search(query))


def test_text_only_query_runs_no_sssp(world, monkeypatch):
    """``lam == 0`` is answered by the scan itself, without any SSSP."""
    import repro.core.scan as scan_module

    def no_sssp(*args, **kwargs):
        raise AssertionError("a text-only scan must not run an SSSP")

    monkeypatch.setattr(scan_module, "sssp_arrays_batch", no_sssp)
    query = UOTSQuery.create([5], ["park", "museum"], lam=0.0, k=4)
    got = make_searcher(world, "scan").search(query)
    assert got.stats.expanded_vertices == 0
    assert_oracle_equal(world, query, got, oracle_of(world).search(query))


def test_duplicate_query_locations_are_rejected_before_any_engine():
    with pytest.raises(QueryError, match="duplicate"):
        UOTSQuery.create([4, 4], ["park"])


def test_out_of_range_location_raises_typed_error(world):
    query = UOTSQuery.create([world.graph.num_vertices], ["park"])
    with pytest.raises(QueryError, match="not a vertex"):
        make_searcher(world, "scan").search(query)


def test_disconnected_query_vertex_contributes_zero():
    """An unreachable location scores ``exp(-inf) = 0``, never NaN."""
    from repro.network.builder import GraphBuilder
    from repro.trajectory.model import Trajectory, TrajectoryPoint, TrajectorySet

    builder = GraphBuilder()
    for i in range(5):
        builder.add_vertex(float(i), 0.0)
    for i in range(5):
        builder.add_vertex(100.0 + i, 0.0)
    for i in range(4):
        builder.add_edge(i, i + 1, 1.0)
        builder.add_edge(5 + i, 6 + i, 1.0)

    def trajectory(tid, vertices, keywords):
        points = [TrajectoryPoint(v, 60.0 * i) for i, v in enumerate(vertices)]
        return Trajectory(tid, points, keywords)

    database = TrajectoryDatabase(
        builder.build(),
        TrajectorySet([
            trajectory(0, [0, 1, 2], ["park"]),
            trajectory(1, [2, 3, 4], ["seafood"]),
            trajectory(2, [5, 6, 7], ["park", "museum"]),
            trajectory(3, [7, 8, 9], ["museum"]),
        ]),
        sigma=2.0,
    )
    scan, oracle = make_searcher(database, "scan"), oracle_of(database)
    for lam in LAMBDAS:
        query = UOTSQuery.create([0, 9], ["park"], lam=lam, k=4)
        got = scan.search(query)
        assert all(np.isfinite(item.score) for item in got.items)
        assert_oracle_equal(database, query, got, oracle.search(query))


# ------------------------------------------------------------------ kernel
def test_kernel_breaks_ties_toward_lower_ids_and_honours_the_floor(world):
    arrays = ScanArrays(world).snapshot()
    query = UOTSQuery.create([0], [], lam=0.0, k=3)
    # No maps, no text: every score is exactly 0.0 — one big tie.
    tied = scan_topk(arrays, (), {}, query)
    assert tied.ids == sorted(world.trajectories.ids())[:3]
    assert tied.stats.similarity_evaluations == len(world)
    # A floor above every score leaves nothing; at the tie it keeps all.
    assert scan_topk(arrays, (), {}, query, score_floor=0.5).items == []
    assert scan_topk(arrays, (), {}, query, score_floor=0.0).ids == tied.ids


def test_kernel_skips_text_ids_missing_from_its_snapshot(world):
    """A trajectory added after the snapshot was captured must not break
    (or enter) an in-flight scan."""
    arrays = ScanArrays(world).snapshot()
    known = int(arrays[0][4])
    beyond, between = int(arrays[0][-1]) + 7, -1
    query = UOTSQuery.create([0], ["park"], lam=0.0, k=2)
    got = scan_topk(arrays, (), {beyond: 0.9, known: 0.6, between: 0.8}, query)
    assert got.ids[0] == known
    assert got.items[0].text_similarity == pytest.approx(0.6)
    assert beyond not in got.ids and between not in got.ids


# ---------------------------------------------------------------- mutation
def test_array_snapshot_is_lazy_dropped_on_mutation_and_never_served_stale():
    database = build_world()
    arrays = ScanArrays(database)
    assert arrays._built is None  # nothing built until first use
    first = arrays.snapshot()
    assert arrays.snapshot() is first  # cached between queries
    victim = database.trajectories.ids()[0]
    removed = database.remove(victim)
    assert arrays._built is None  # dropped by the typed mutation listener
    second = arrays.snapshot()
    assert victim not in second[0] and victim in first[0]
    # A build that raced a mutation is stamped with the old count: storing
    # it late must not make it the served snapshot.
    arrays._built = (arrays._mutations - 1, first)
    assert victim not in arrays.snapshot()[0]
    database.add(removed)
    assert victim in arrays.snapshot()[0]


def test_add_remove_interleavings_stay_oracle_equal():
    database = build_world()
    scan, oracle = make_searcher(database, "scan"), oracle_of(database)
    rng = random.Random(11)
    queries = seeded_queries(database, seed=12, count=20)
    next_id = max(database.trajectories.ids()) + 1
    for step, query in enumerate(queries):
        if step % 2 == 0:
            source = database.get(rng.choice(database.trajectories.ids()))
            database.add(source.with_id(next_id))
            next_id += 1
        else:
            database.remove(rng.choice(database.trajectories.ids()))
        assert_oracle_equal(database, query, scan.search(query), oracle.search(query))


# ------------------------------------------------------------------ budgets
BUDGETS = (
    SearchBudget(deadline_seconds=0.0),
    SearchBudget(max_expanded_vertices=40),
    SearchBudget(max_expanded_vertices=400, max_refinements=1),
)


@pytest.mark.parametrize("budget", BUDGETS, ids=("deadline", "expansions", "mixed"))
def test_budgeted_queries_return_exactly_what_collaborative_returns(budget):
    database = build_world(cache_size=0)  # no caches: runs are repeatable
    scan = make_searcher(database, "scan")
    reference = make_searcher(database, "collaborative")
    for query in seeded_queries(database, seed=3, count=10):
        got, want = scan.search(query, budget), reference.search(query, budget)
        assert got.items == want.items
        assert got.exact == want.exact
        assert got.degradation_reason == want.degradation_reason
        assert got.residual_bound == want.residual_bound
        assert got.confirmed_prefix() == want.confirmed_prefix()
        carried = UOTSQuery.create(
            query.locations, query.keywords, lam=query.lam, k=query.k, budget=budget
        )
        assert scan.search(carried).items == want.items  # query.budget counts too


def test_strict_budget_raises_like_collaborative(world):
    query = UOTSQuery.create([5, 100], ["park"], lam=0.5, k=3)
    with pytest.raises(BudgetExceededError):
        make_searcher(world, "scan").search(
            query, SearchBudget(deadline_seconds=0.0, strict=True)
        )


# ------------------------------------------------------------ serving paths
@pytest.mark.parametrize("result_cache", (None, 32), ids=("uncached", "cached"))
def test_query_service_answers_stay_oracle_equal_under_mutation(result_cache):
    database = build_world()
    service = QueryService(database, "scan", result_cache=result_cache)
    oracle = oracle_of(database)
    queries = seeded_queries(database, seed=21, count=12)
    next_id = max(database.trajectories.ids()) + 1
    for round_number in range(3):
        for query in queries:
            answer = service.submit(query)
            assert_oracle_equal(database, query, answer, oracle.search(query))
        hot = service.submit(queries[0])  # a repeat: a hit when caching is on
        assert (hot.stats.cache == "result") == (result_cache is not None)
        database.add(database.get(database.trajectories.ids()[round_number]).with_id(next_id))
        database.remove(database.trajectories.ids()[round_number + 5])
        next_id += 1


def test_http_answers_are_oracle_equal_and_errors_typed(world):
    pytest.importorskip("pydantic")
    from repro.gateway import AsyncQueryService
    from repro.gateway.app import create_app
    from repro.gateway.testing import ASGITestClient

    registry = MetricsRegistry()
    service = QueryService(world, SERVING_ALGORITHM, metrics=registry, result_cache=16)
    gateway = AsyncQueryService(service, max_workers=2)
    client = ASGITestClient(create_app(gateway, registry=registry))
    oracle = oracle_of(world)
    try:
        for query in seeded_queries(world, seed=5, count=10):
            body = {
                "locations": list(query.locations),
                "keywords": sorted(query.keywords),
                "lam": query.lam,
                "k": query.k,
            }
            response = client.post("/query", json=body)
            assert response.status == 200, response
            reply = response.json()
            assert reply["exact"] and reply["error"] is None
            want = oracle.search(query)
            assert [i["trajectory_id"] for i in reply["items"]] == want.ids
            assert [i["score"] for i in reply["items"]] == pytest.approx(
                want.scores, abs=TOLERANCE
            )
        duplicate = client.post("/query", json={"locations": [4, 4]})
        assert duplicate.status == 400
        assert duplicate.json()["error"] == "query_error"
        budgeted = client.post(
            "/query", json={"locations": [3, 90], "preference": "park", "deadline_ms": 0}
        )
        assert budgeted.status == 200 and budgeted.json()["exact"] is False
    finally:
        asyncio.run(gateway.close())


# --------------------------------------------------------------- estimates
def test_plan_estimate_is_in_the_units_the_stats_report(world):
    """``estimated_cost = |q.O| * |V| + |P|``; the executed stats count the
    same settles and evaluations, so plan drift reads ~1.0 by construction."""
    registry = MetricsRegistry()
    service = QueryService(world, "scan", metrics=registry)
    queries = seeded_queries(world, seed=9, count=15)
    for query in queries:
        plan = service.plan(query)
        settles = 0 if query.lam == 0.0 else query.num_locations * world.graph.num_vertices
        assert plan.estimated_cost == settles + len(world)
        stats = service.submit(query).stats
        assert stats.expanded_vertices == settles
        assert stats.similarity_evaluations == len(world)
        assert stats.estimated_cost == plan.estimated_cost
    histogram = registry.histogram("repro_plan_drift_ratio")
    assert histogram.count(algorithm="scan") == len(queries)
    mean = histogram.sum(algorithm="scan") / histogram.count(algorithm="scan")
    assert 0.5 <= mean <= 2.0
    summary = service.stats.drift_summary("scan")
    assert 0.5 <= summary["min_ratio"] <= summary["max_ratio"] <= 2.0


@pytest.mark.skipif(not scipy_available(), reason="the interpreted tier reads the lists")
def test_scan_path_never_materialises_the_csr_list_mirrors():
    database = build_world()
    csr = database.graph.csr
    make_searcher(database, "scan").search(
        UOTSQuery.create([3, 77, 140], ["park"], lam=0.5, k=5)
    )
    assert csr._lists is None
    assert csr.indptr_list == csr.indptr.tolist()  # built on first access...
    assert csr._lists is not None and csr.weights_list is csr._lists[2]  # ...once
