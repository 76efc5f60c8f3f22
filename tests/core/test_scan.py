"""The two-phase exact ``scan`` engine against the brute-force oracle.

One tie rule throughout (ROADMAP aim 3): a result matches the oracle when,
rank by rank, the scores agree to 1e-9; it may name a *different*
trajectory at a rank only when that trajectory's exact score — recomputed
here with :class:`ExactScorer`, not taken from the result — equals the
oracle's score at that rank.  The generic registry contract (protocol,
plan, statelessness, budgets) covers ``scan`` through the suites
parametrised over ``ALGORITHMS``; this file covers what is particular to
it: the vectorised kernels' edge cases, both phases forced on and off, the
array snapshot and its transpose under mutation, the phase-boundary budget
stop, the serving paths, the plan estimate and what the serving path never
builds.
"""

from __future__ import annotations

import asyncio
import math
import random
import sys
import threading

import numpy as np
import pytest

import repro.core.scan as scan_module
import repro.index.database as database_module
from repro.core.query import UOTSQuery
from repro.core.registry import ALGORITHMS, SERVING_ALGORITHM, make_searcher
from repro.core.scan import ScanArrays, ScanSearcher, scan_topk
from repro.core.results import SearchResult
from repro.core.search import exact_text_scores
from repro.core.similarity import ExactScorer
from repro.errors import BudgetExceededError, QueryError
from repro.index.database import TrajectoryDatabase
from repro.index.events import MutationEvent
from repro.network.csr import CSRAdjacency
from repro.network.generators import grid_network
from repro.network.io import load_json, save_json
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer, activated
from repro.perf import ResultCache
from repro.resilience.budget import SearchBudget
from repro.service.service import QueryService
from repro.text.assignment import annotate_trajectories, assign_vertex_keywords
from repro.text.vocabulary import Vocabulary
from repro.trajectory.generator import generate_trips
from repro.trajectory.io import load_jsonl, save_jsonl
from repro.trajectory.model import Trajectory, TrajectoryPoint, TrajectorySet

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


def trajectory(tid, vertices, keywords):
    points = [TrajectoryPoint(v, 60.0 * i) for i, v in enumerate(vertices)]
    return Trajectory(tid, points, keywords)


def two_component_world() -> TrajectoryDatabase:
    """Two 5-vertex paths with no edge between them."""
    from repro.network.builder import GraphBuilder

    builder = GraphBuilder()
    for i in range(5):
        builder.add_vertex(float(i), 0.0)
    for i in range(5):
        builder.add_vertex(100.0 + i, 0.0)
    for i in range(4):
        builder.add_edge(i, i + 1, 1.0)
        builder.add_edge(5 + i, 6 + i, 1.0)
    return TrajectoryDatabase(
        builder.build(),
        TrajectorySet([
            trajectory(0, [0, 1, 2], ["park"]),
            trajectory(1, [2, 3, 4], ["seafood"]),
            trajectory(2, [5, 6, 7], ["park", "museum"]),
            trajectory(3, [7, 8, 9], ["museum"]),
        ]),
        sigma=2.0,
    )


def test_disconnected_query_vertex_contributes_zero():
    """An unreachable location scores ``exp(-inf) = 0``, never NaN."""
    database = two_component_world()
    scan, oracle = make_searcher(database, "scan"), oracle_of(database)
    for lam in LAMBDAS:
        query = UOTSQuery.create([0, 9], ["park"], lam=lam, k=4)
        got = scan.search(query)
        assert all(np.isfinite(item.score) for item in got.items)
        assert_oracle_equal(database, query, got, oracle.search(query))


# --------------------------------------------------------------- two phases
def traced_search(searcher, query):
    """The result and the attributes of its ``execute`` span."""
    tracer = Tracer()
    with activated(tracer):
        result = searcher.search(query)
    return result, tracer.last_trace().attributes


def forcing_cases(database) -> list[UOTSQuery]:
    """Seeded queries over every lambda, plus k > |P|."""
    queries = seeded_queries(database, seed=17, count=30)
    queries += [
        UOTSQuery.create([3, 100], ["park"], lam=lam, k=len(database) + 3)
        for lam in (0.0, 0.5, 1.0)
    ]
    return queries


@pytest.mark.parametrize("sigmas", (0.0, math.inf), ids=("radius-0", "radius-inf"))
def test_forced_phases_stay_oracle_equal_under_interleaved_writes(monkeypatch, sigmas):
    """Radius 0 leaves every spatial query to phase 2; an infinite radius
    makes every score exact, so the blocking set is empty and phase 1
    answers every query, ties at the k-th score included.  Clones make
    duplicate-score ties; the writes between queries exercise the folded
    snapshot and its rebuilt transpose."""
    monkeypatch.setattr(scan_module, "PHASE1_RADIUS_SIGMAS", sigmas)
    database = build_world()
    scan, oracle = make_searcher(database, "scan"), oracle_of(database)
    rng = random.Random(23)
    next_id = max(database.trajectories.ids()) + 1
    for source in rng.sample(database.trajectories.ids(), 12):
        database.add(database.get(source).with_id(next_id))  # exact twins
        next_id += 1
    phases = {1: 0, 2: 0}
    for step, query in enumerate(forcing_cases(database)):
        if step % 3 == 1:
            database.add(database.get(rng.choice(database.trajectories.ids())).with_id(next_id))
            next_id += 1
        elif step % 3 == 2:
            database.remove(rng.choice(database.trajectories.ids()))
        got, span = traced_search(scan, query)
        assert span["radius"] == sigmas * database.sigma
        assert_oracle_equal(database, query, got, oracle.search(query))
        phases[span["phase"]] += 1
        if sigmas == 0.0 and query.lam != 0.0:
            assert span["phase"] == 2, query
        if sigmas == math.inf:
            assert span["phase"] == 1 and span["blocking"] == 0, query
    if sigmas == 0.0:
        assert phases[1] and phases[2]  # text-only queries stop in phase 1


@pytest.mark.parametrize("sigmas", (0.0, 0.5, 2.0, math.inf))
def test_phase1_bounds_bracket_every_exact_score(world, sigmas):
    """The paper's bound at array grain: for every trajectory the lower
    bound (unreached locations at 0) and the upper bound (unreached at
    ``exp(-r/sigma)``) bracket the exact score, and meet where phase 1
    calls the trajectory exact."""
    scan_arrays = ScanArrays(world)
    arrays, transpose, postings = scan_arrays.transposed()
    trajectories = [world.get(int(tid)) for tid in arrays.ids]
    for query in seeded_queries(world, seed=19, count=20):
        words = scan_arrays.keyword_ids(query.keywords)
        textual = scan_module._simt(arrays, postings, words, query)
        _, _, lower, upper, exact, _, _ = scan_module._phase1(
            arrays, transpose, world.graph.csr, textual, query, sigmas * world.sigma
        )
        scorer = ExactScorer(world, query)
        truth = np.array([scorer.score(t).score for t in trajectories])
        assert (lower <= truth + TOLERANCE).all() and (truth <= upper + TOLERANCE).all()
        assert np.allclose(lower[exact], truth[exact], rtol=0.0, atol=TOLERANCE)


@pytest.mark.parametrize("sigmas", (0.0, 2.0, math.inf))
def test_forced_phases_on_a_disconnected_query_vertex(monkeypatch, sigmas):
    monkeypatch.setattr(scan_module, "PHASE1_RADIUS_SIGMAS", sigmas)
    database = two_component_world()
    scan, oracle = make_searcher(database, "scan"), oracle_of(database)
    for lam in LAMBDAS:
        for k in (1, 2, 6):
            query = UOTSQuery.create([0, 9], ["park"], lam=lam, k=k)
            assert_oracle_equal(database, query, scan.search(query), oracle.search(query))


def test_default_radius_answers_through_both_phases(world):
    scan, oracle = make_searcher(world, "scan"), oracle_of(world)
    phases = []
    for query in seeded_queries(world, seed=13, count=40):
        got, span = traced_search(scan, query)
        assert_oracle_equal(world, query, got, oracle.search(query))
        assert span["radius"] == scan_module.PHASE1_RADIUS_SIGMAS * world.sigma
        assert got.stats.similarity_evaluations + got.stats.pruned_trajectories == len(world)
        if span["phase"] == 1:
            assert span["blocking"] == 0
        phases.append(span["phase"])
    assert set(phases) == {1, 2}


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


@pytest.mark.parametrize("measure", ("jaccard", "dice", "overlap", "cosine"))
def test_snapshot_text_equals_exact_text_scores_bit_for_bit(measure):
    """The postings kernel against the per-id set scoring of the keyword
    index, scattered by id, through the writes that move the vocabulary: a
    query word nothing holds, a trajectory with no keywords, an add that
    brings a new word and the remove of that word's last holder."""
    database = build_world(cache_size=0)
    scan_arrays = ScanArrays(database)
    words = keyword_pool(database)
    source = database.get(database.trajectories.ids()[0])
    bare, holder = max(database.trajectories.ids()) + 1, max(database.trajectories.ids()) + 2
    probes = [
        UOTSQuery.create([0], [words[0], "nowhere"], lam=0.5, k=3),
        UOTSQuery.create([0], ["novel", words[1]], lam=0.5, k=3),
        UOTSQuery.create([0], ["novel"], lam=0.5, k=3),
    ]

    def check():
        for query in seeded_queries(database, seed=43, count=15) + probes:
            query = UOTSQuery.create(
                query.locations, query.keywords, lam=query.lam, k=query.k, text_measure=measure
            )
            arrays, _, postings = scan_arrays.transposed()
            got = scan_module._simt(arrays, postings, scan_arrays.keyword_ids(query.keywords), query)
            want = scan_module._text_vector(arrays.ids, exact_text_scores(database, query))
            assert got.tobytes() == want.tobytes(), query

    check()
    database.add(source.with_id(bare).with_keywords(()))
    check()
    database.add(source.with_id(holder).with_keywords(["novel", words[2]]))
    check()
    assert "novel" in scan_arrays._vocabulary
    database.remove(holder)
    check()
    assert database.keyword_index.postings("novel") == []


def test_plan_candidate_count_is_the_keyword_index_count():
    """``candidate_count`` read from the snapshot's postings equals the
    keyword index's union count, on the seeded sweep and after writes."""
    database = build_world()
    scan = make_searcher(database, "scan")
    queries = seeded_queries(database, seed=7, count=60)
    queries.append(UOTSQuery.create([0], ["nowhere", keyword_pool(database)[0]]))
    source = database.get(database.trajectories.ids()[0])
    next_id = max(database.trajectories.ids()) + 1
    for step, query in enumerate(queries):
        if step % 20 == 19:
            database.add(source.with_id(next_id).with_keywords(["park", f"new{step}"]))
            database.remove(database.trajectories.ids()[step])
            next_id += 1
        want = len(database.keyword_index.candidates(query.keywords)) if query.keywords else 0
        assert scan.plan(query).candidate_count == want, query


def test_a_replace_write_during_execute_never_tears_the_answer(monkeypatch):
    """A remove + re-add of one id, with other vertices and other keywords,
    landing as ``execute`` reads the snapshot: the answer must be one
    database version's (the post-write one here), never the new vertices
    scored with the old keywords."""
    database = build_world()
    scan = make_searcher(database, "scan")
    victim, location = database.trajectories.ids()[7], 5
    assert "tearword" not in database.get(victim).keywords
    query = UOTSQuery.create([location], ["tearword"], lam=0.5, k=3)
    plan = scan.plan(query)
    transposed, writes = ScanArrays.transposed, []

    def write_then_read(self):
        if not writes:
            writes.append(database.remove(victim))
            database.add(trajectory(victim, [location], ["tearword"]))
        return transposed(self)

    monkeypatch.setattr(ScanArrays, "transposed", write_then_read)
    got = scan.execute(plan)
    assert writes
    assert_oracle_equal(database, query, got, oracle_of(database).search(query))
    assert got.items[0].trajectory_id == victim and got.items[0].score == 1.0


# ---------------------------------------------------------------- mutation
def segments(arrays) -> dict[int, set[int]]:
    ids, starts, vertices, *_ = arrays
    ends = np.append(starts[1:], vertices.size)
    return {
        int(tid): set(vertices[start:end].tolist())
        for tid, start, end in zip(ids, starts, ends)
    }


def keyword_segments(scan_arrays, arrays) -> dict[int, frozenset[str]]:
    """Each trajectory's keywords in ``arrays``, read back through the
    vocabulary of the :class:`ScanArrays` that built it."""
    words = {i: word for word, i in scan_arrays._vocabulary.items()}
    ends = np.append(arrays.keyword_starts[1:], arrays.keywords.size)
    return {
        int(tid): frozenset(words[i] for i in arrays.keywords[start:end].tolist())
        for tid, start, end in zip(arrays.ids, arrays.keyword_starts, ends)
    }


def live_segments(database) -> dict[int, set[int]]:
    return {t.id: set(t.vertex_set) for t in database.trajectories}


def live_keywords(database) -> dict[int, frozenset[str]]:
    return {t.id: t.keywords for t in database.trajectories}


def test_array_snapshot_is_lazy_derived_on_mutation_and_never_served_stale():
    database = build_world()
    arrays = ScanArrays(database)
    assert arrays._arrays is None  # nothing built until first use
    first = arrays.snapshot()
    assert first.vertices.dtype == first.keywords.dtype == np.int32
    assert keyword_segments(arrays, first) == live_keywords(database)
    ids, starts, vertices, *_ = first
    for tid, start, end in zip(ids, starts, np.append(starts[1:], vertices.size)):
        # each segment: the trajectory's distinct vertices, ascending
        assert vertices[start:end].tolist() == sorted(database.get(int(tid)).vertex_set)
    assert arrays.snapshot() is first  # cached between queries
    victim = database.trajectories.ids()[0]
    removed = database.remove(victim)
    second = arrays.snapshot()  # folded from ``first`` plus the event
    assert victim not in second[0] and victim in first[0]
    assert segments(second) == live_segments(database)
    # Replaying an event the snapshot already holds (a build that raced
    # the write) changes nothing.
    arrays._pending.append(MutationEvent("remove", victim, frozenset(), np.empty(0)))
    assert segments(arrays.snapshot()) == live_segments(database)
    database.add(removed)
    assert victim in arrays.snapshot()[0]
    assert segments(arrays.snapshot()) == live_segments(database)


def test_a_writer_that_never_searches_holds_a_bounded_queue():
    database = build_world()
    arrays = ScanArrays(database)
    source = database.get(database.trajectories.ids()[0])
    next_id = max(database.trajectories.ids()) + 1
    for build_first in (False, True):
        if build_first:
            arrays.snapshot()
        for _ in range(2 * scan_module._MAX_PENDING):
            database.add(source.with_id(next_id))
            next_id += 1
            assert len(arrays._pending) < scan_module._MAX_PENDING
        assert (arrays._arrays is not None) == build_first  # never built early
    assert segments(arrays.snapshot()) == live_segments(database)


def test_a_write_landing_during_a_fold_is_folded_next_time(monkeypatch):
    database = build_world()
    arrays = ScanArrays(database)
    arrays.snapshot()
    source = database.get(database.trajectories.ids()[0])
    late = max(database.trajectories.ids()) + 1
    fold = scan_module._fold

    def fold_while_a_write_lands(*args):
        if late not in database.trajectories:
            database.add(source.with_id(late))  # queued mid-fold
        return fold(*args)

    monkeypatch.setattr(scan_module, "_fold", fold_while_a_write_lands)
    database.remove(database.trajectories.ids()[1])
    assert late not in arrays.snapshot()[0]  # this fold predates the write
    assert late in arrays.snapshot()[0]
    assert segments(arrays.snapshot()) == live_segments(database)


def test_concurrent_searches_and_writes_lose_no_event():
    """Four searching threads race one writer (a short switch interval makes
    them interleave inside the snapshot build and every fold); the final
    snapshot and transpose must still describe the live set exactly."""
    database = build_world()
    scan = make_searcher(database, "scan")
    queries = [  # the readers' keywords go through the growing vocabulary
        UOTSQuery.create(q.locations, q.keywords or ["park"], lam=0.5, k=q.k)
        for q in seeded_queries(database, seed=31, count=6)
    ]
    stop, errors = threading.Event(), []

    def search_until_stopped():
        try:
            while not stop.is_set():
                for query in queries:
                    got = scan.search(query)
                    assert got.exact and len(set(got.ids)) == len(got.ids)
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    rng = random.Random(5)
    next_id = max(database.trajectories.ids()) + 1
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    readers = [threading.Thread(target=search_until_stopped) for _ in range(4)]
    try:
        for reader in readers:
            reader.start()
        for _ in range(150):
            if rng.random() < 0.5:
                database.add(database.get(rng.choice(database.trajectories.ids())).with_id(next_id))
                next_id += 1
            else:
                database.remove(rng.choice(database.trajectories.ids()))
    finally:
        stop.set()
        for reader in readers:
            reader.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not any(reader.is_alive() for reader in readers)
    assert not errors, errors
    arrays, (indptr, rows), _ = scan._arrays.transposed()
    ids = arrays.ids
    assert segments(arrays) == live_segments(database)
    assert keyword_segments(scan._arrays, arrays) == live_keywords(database)
    covering = {v: set() for v in range(database.graph.num_vertices)}
    for t in database.trajectories:
        for vertex in t.vertex_set:
            covering[vertex].add(t.id)
    for vertex, owners in covering.items():
        assert set(ids[rows[indptr[vertex]:indptr[vertex + 1]]].tolist()) == owners
    oracle = oracle_of(database)
    for query in queries:
        assert_oracle_equal(database, query, scan.search(query), oracle.search(query))


def test_folded_snapshots_equal_a_fresh_build_after_any_write_sequence():
    database = build_world()
    arrays = ScanArrays(database)
    arrays.snapshot()
    rng = random.Random(41)
    next_id = max(database.trajectories.ids()) + 1
    for round_number in range(6):
        for _ in range(round_number):  # batches of 0..5 queued events
            ids = database.trajectories.ids()
            roll = rng.random()
            if roll < 0.4:
                database.add(database.get(rng.choice(ids)).with_id(next_id))
                next_id += 1
            elif roll < 0.7:
                database.remove(rng.choice(ids))
            else:  # re-add an id in the middle of the range, other vertices
                tid = rng.choice(ids)  # and keywords, one of them new
                database.remove(tid)
                other = database.get(rng.choice(database.trajectories.ids()))
                keywords = sorted(other.keywords)[:2] + [f"new{next_id}"]
                database.add(other.with_id(tid).with_keywords(keywords))
                next_id += 1
        folded = arrays.snapshot()
        fresh_arrays = ScanArrays(database)
        fresh = fresh_arrays.snapshot()
        assert folded.ids.tolist() == fresh.ids.tolist() == sorted(database.trajectories.ids())
        for name in ("starts", "vertices", "keyword_starts"):
            assert np.array_equal(getattr(folded, name), getattr(fresh, name)), name
        assert segments(folded) == live_segments(database)
        assert keyword_segments(arrays, folded) == keyword_segments(fresh_arrays, fresh)
        assert keyword_segments(arrays, folded) == live_keywords(database)


def test_transpose_lists_exactly_the_trajectories_on_each_vertex():
    """Both postings: per vertex against the vertex index, per keyword
    against the keyword index."""
    database = build_world()
    database.remove(database.trajectories.ids()[3])
    scan_arrays = ScanArrays(database)
    arrays, (indptr, rows), (keyword_indptr, keyword_rows) = scan_arrays.transposed()
    index = database.vertex_index
    for vertex in range(database.graph.num_vertices):
        owners = arrays.ids[rows[indptr[vertex]:indptr[vertex + 1]]]
        assert sorted(owners.tolist()) == index.trajectories_at(vertex)
    assert scan_arrays._vocabulary.keys() == set(keyword_pool(database))
    for word, i in scan_arrays._vocabulary.items():
        owners = arrays.ids[keyword_rows[keyword_indptr[i]:keyword_indptr[i + 1]]]
        assert sorted(owners.tolist()) == database.keyword_index.postings(word)


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
SWEEP_BUDGETS = {
    "deadline-0ms": SearchBudget(deadline_seconds=0.0),
    "deadline-1ms": SearchBudget(deadline_seconds=0.001),
    "deadline-5ms": SearchBudget(deadline_seconds=0.005),
    "deadline-20ms": SearchBudget(deadline_seconds=0.02),
    "deadline-60s": SearchBudget(deadline_seconds=60.0),
    "cap-40": SearchBudget(max_expanded_vertices=40),
    "cap-400": SearchBudget(max_expanded_vertices=400),
    "cap-1e9": SearchBudget(max_expanded_vertices=10**9),
    "refinements-0": SearchBudget(max_refinements=0),
    "refinements-1": SearchBudget(max_refinements=1),
}


@pytest.fixture(scope="module")
def sweep_world():
    """A cache-free world, its seeded queries, and for each query the
    unbudgeted answer's phase and the oracle's full ranking."""
    database = build_world(cache_size=0)
    scan, oracle = make_searcher(database, "scan"), oracle_of(database)
    cases = []
    for query in seeded_queries(database, seed=3, count=30):
        _, span = traced_search(scan, query)
        everything = UOTSQuery.create(
            query.locations, query.keywords, lam=query.lam, k=len(database)
        )
        cases.append((query, span["phase"], oracle.search(everything).items))
    return database, scan, cases


def budgeted_search(searcher, query, budget):
    """The budgeted result and the attributes of its ``execute`` span."""
    tracer = Tracer()
    with activated(tracer):
        result = searcher.search(query, budget)
    return result, tracer.last_trace().attributes


@pytest.mark.parametrize("name", SWEEP_BUDGETS)
def test_budget_sweep_stops_at_the_phase_boundary_with_sound_bounds(sweep_world, name):
    """Every budgeted answer is exact and oracle-equal, or a labelled stop
    at the phase boundary whose confirmed prefix is the oracle's prefix
    and whose residual bound caps every trajectory outside that prefix.
    A query phase 1 answers is exact under any budget, and phase 2 runs
    only when it keeps every work counter within its cap."""
    budget = SWEEP_BUDGETS[name]
    database, scan, cases = sweep_world
    stops = 0
    for query, unbudgeted_phase, ranking in cases:
        got, span = budgeted_search(scan, query, budget)
        if got.exact:
            want = SearchResult(items=ranking[: query.k])
            assert_oracle_equal(database, query, got, want)
            assert "stopped" not in span
        else:
            stops += 1
            assert unbudgeted_phase == 2, "a phase-1 answer must stay exact"
            assert span["phase"] == 1 and span["stopped"] == got.degradation_reason
            assert got.stats.degraded_queries == 1
            assert len(got.items) == min(query.k, len(database))
            truth = {item.trajectory_id: item.score for item in ranking}
            for item in got.items:
                assert item.score <= truth[item.trajectory_id] + TOLERANCE
                if item.exact:
                    assert item.score == pytest.approx(truth[item.trajectory_id], abs=TOLERANCE)
            prefix = got.confirmed_prefix()
            assert_oracle_equal(
                database, query, SearchResult(items=prefix),
                SearchResult(items=ranking[: len(prefix)]),
            )
            confirmed = {item.trajectory_id for item in prefix}
            missed = max(s for tid, s in truth.items() if tid not in confirmed)
            assert got.residual_bound >= missed - TOLERANCE
        if unbudgeted_phase == 1:
            assert got.exact
        if span["phase"] == 2:
            if budget.max_expanded_vertices is not None:
                assert got.stats.expanded_vertices <= budget.max_expanded_vertices
            if budget.max_refinements is not None:
                assert got.stats.refinements <= budget.max_refinements
        if budget.deadline_seconds is None:  # work caps are deterministic
            carried = UOTSQuery.create(
                query.locations, query.keywords, lam=query.lam, k=query.k, budget=budget
            )
            assert scan.search(carried).items == got.items  # query.budget counts too
    needs_phase2 = sum(phase == 2 for _, phase, _ in cases)
    assert 0 < needs_phase2 < len(cases)
    if name in ("deadline-0ms", "cap-40", "refinements-0"):
        assert stops == needs_phase2  # no phase 2 fits these budgets (|V| = 144)
    if name in ("deadline-60s", "cap-1e9"):
        assert stops == 0


def test_strict_budget_raises_like_collaborative(world):
    scan = make_searcher(world, "scan")
    query = UOTSQuery.create([5, 100], ["park"], lam=0.5, k=3)
    assert traced_search(scan, query)[1]["phase"] == 2
    with pytest.raises(BudgetExceededError):
        scan.search(query, SearchBudget(deadline_seconds=0.0, strict=True))
    # Phase 1 answers this one, so the budget never gets the chance to trip.
    text_free = UOTSQuery.create([5, 100], [], lam=0.5, k=3)
    assert traced_search(scan, text_free)[1]["phase"] == 1
    assert scan.search(text_free, SearchBudget(deadline_seconds=0.0, strict=True)).exact


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
    from repro.gateway import AsyncQueryService
    from repro.gateway.app import create_app
    from repro.gateway.testing import ASGITestClient

    registry = MetricsRegistry()
    service = QueryService(world, SERVING_ALGORITHM, metrics=registry, result_cache=16)
    gateway = AsyncQueryService(service, max_workers=2)
    client = ASGITestClient(create_app(gateway))
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
        assert budgeted.status == 200
        reply = budgeted.json()
        assert reply["exact"] or (
            reply["degradation_reason"] and reply["residual_bound"] > 0
        )
    finally:
        asyncio.run(gateway.close())


# --------------------------------------------------------------- estimates
def test_plan_estimate_is_in_the_units_the_stats_report(world):
    """``estimated_cost`` is the expected settles + exact evaluations of the
    two phases; the executed stats count the same units, so plan drift
    averages near 1.0 (per query it swings with the phase that answered)."""
    registry = MetricsRegistry()
    service = QueryService(world, "scan", metrics=registry)
    queries = seeded_queries(world, seed=9, count=15)
    num_vertices = world.graph.num_vertices
    for query in queries:
        plan = service.plan(query)
        stats = service.submit(query).stats
        assert stats.estimated_cost == plan.estimated_cost
        assert stats.similarity_evaluations + stats.pruned_trajectories == len(world)
        if query.lam == 0.0:
            assert plan.estimated_cost == len(world)
            assert stats.expanded_vertices == 0
        else:
            # Phase 1 settles at most every vertex once per location, and
            # phase 2 at most once more.
            assert 0 < stats.expanded_vertices <= 2 * query.num_locations * num_vertices
    histogram = registry.histogram("repro_plan_drift_ratio")
    assert histogram.count(algorithm="scan") == len(queries)
    mean = histogram.sum(algorithm="scan") / histogram.count(algorithm="scan")
    assert 0.5 <= mean <= 2.0


def test_explain_notes_name_the_radius_and_both_phases(world):
    service = QueryService(world, "scan")
    rendered = service.explain(UOTSQuery.create([3, 77], ["park"], lam=0.5, k=5))
    radius = scan_module.PHASE1_RADIUS_SIGMAS * world.sigma
    assert f"bounded at 2 sigma = {radius:.0f}" in rendered
    assert "phase 2" in rendered and "blocking set" in rendered


def test_scan_path_never_materialises_the_csr_list_mirrors():
    database = build_world()
    csr = database.graph.csr
    make_searcher(database, "scan").search(
        UOTSQuery.create([3, 77, 140], ["park"], lam=0.5, k=5)
    )
    assert csr._lists is None
    assert csr.indptr_list == csr.indptr.tolist()  # built on first access...
    assert csr._lists is not None and csr.weights_list is csr._lists[2]  # ...once


def test_scan_path_never_builds_the_vertex_index_or_vertex_arrays():
    """The serving engine reads its own flat arrays: unbudgeted searches
    and ``warm()`` leave the Python vertex index unbuilt and no trajectory
    holding a distinct-vertex array, and shard snapshots hold no
    transpose (only the flat searcher walks one)."""
    database = build_world()
    scan = make_searcher(database, "scan")
    scan.warm()
    for query in seeded_queries(database, seed=4, count=12):
        scan.search(query)
    assert database._vertex_index is None
    assert all(t._distinct is None for t in database.trajectories)
    sharded = make_searcher(database, "sharded", shards=4)
    sharded.warm()
    sharded.search(UOTSQuery.create([3, 77, 140], ["park"], lam=0.5, k=5))
    for shard in sharded._collection.shards:
        assert shard.arrays._transposed is None
        assert shard.database._vertex_index is None
    budgeted = UOTSQuery.create([3, 77], ["park"], lam=0.5, k=3)
    assert not scan.search(budgeted, SearchBudget(max_expanded_vertices=40)).exact
    assert database._vertex_index is None  # budgets are answered by the scan too


def test_scan_path_never_builds_a_vertex_set(tmp_path):
    """Loading, indexing, ``warm()`` and cold unbudgeted ``scan`` queries
    read the trajectories' arrays only: no trajectory builds its
    ``vertex_set`` frozenset (the collaborative path builds it on demand)."""
    generated = build_world()
    save_jsonl(generated.trajectories, tmp_path / "trips.jsonl")
    database = TrajectoryDatabase(generated.graph, load_jsonl(tmp_path / "trips.jsonl"))
    scan = make_searcher(database, "scan")
    scan.warm()
    for query in seeded_queries(database, seed=5, count=12):
        scan.search(query)
    assert all(t._vertex_set is None for t in database.trajectories)
    make_searcher(database, "collaborative").search(
        UOTSQuery.create([3, 77], ["park"], lam=0.5, k=3)
    )
    assert any(t._vertex_set is not None for t in database.trajectories)


def test_scan_service_writes_never_build_the_landmark_table():
    """A cached ``scan`` service proves adds with one bounded Dijkstra from
    the newcomer, not with ALT bounds: answering queries and then applying
    adds and removes leaves the database's landmark table unbuilt, while
    the proof still keeps entries the adds cannot reach."""
    database = build_world()
    cache = ResultCache(64)
    service = QueryService(database, "scan", result_cache=cache)
    queries = seeded_queries(database, seed=9, count=12)
    rng = random.Random(9)
    next_id = max(database.trajectories.ids()) + 1
    for step in range(6):
        for query in queries:
            service.search(query)
        if step % 2:
            database.remove(rng.choice(database.trajectories.ids()))
        else:
            donor = database.get(rng.choice(database.trajectories.ids()))
            database.add(donor.with_id(next_id))
            next_id += 1
    assert cache.invalidation_events == 6
    assert cache.invalidation_entries_retained > 0
    assert database._landmark_index is database_module._UNSET


def test_serving_holds_no_per_vertex_graph_objects(tmp_path):
    """Load, index, ``scan`` warm-up and queries, ``collaborative`` queries
    (which build the landmark table) and a shard build leave the network
    array-native: every graph attribute is a NumPy array or the CSR, never
    a list, dict or tuple with an entry per vertex or edge."""
    generated = build_world()
    save_json(generated.graph, tmp_path / "network.json")
    save_jsonl(generated.trajectories, tmp_path / "trips.jsonl")
    graph = load_json(tmp_path / "network.json")
    database = TrajectoryDatabase(graph, load_jsonl(tmp_path / "trips.jsonl"))
    scan = make_searcher(database, "scan")
    scan.warm()
    for query in seeded_queries(database, seed=7, count=12):
        scan.search(query)
    collaborative = make_searcher(database, "collaborative")
    for query in seeded_queries(database, seed=8, count=4):
        collaborative.search(query)
    assert database.landmark_index is not None
    sharded = make_searcher(database, "sharded", shards=4)
    sharded.warm()
    sharded.search(UOTSQuery.create([3, 77, 140], ["park"], lam=0.5, k=5))
    for slot in type(graph).__slots__:
        value = getattr(graph, slot)
        assert isinstance(value, (np.ndarray, CSRAdjacency)), (slot, type(value))
    for array in (graph.csr.indptr, graph.csr.indices, graph.csr.weights):
        assert isinstance(array, np.ndarray)


def test_scan_path_never_fills_the_text_cache():
    """``warm()`` and cold unbudgeted ``scan`` queries score text from the
    snapshot's postings: the database's text-score cache stays empty (the
    collaborative path still fills it)."""
    database = build_world()
    scan = make_searcher(database, "scan")
    scan.warm()
    queries = seeded_queries(database, seed=6, count=12)
    assert any(q.keywords and q.lam != 1.0 for q in queries)
    for query in queries:
        scan.search(query)
    assert len(database.caches.text) == 0
    make_searcher(database, "collaborative").search(
        UOTSQuery.create([3, 77], ["park"], lam=0.5, k=3)
    )
    assert len(database.caches.text) == 1
