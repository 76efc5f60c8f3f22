"""Differential sweep of the result cache's add-survival proof.

Every add runs one Dijkstra from the newcomer's vertices bounded at
``r = PHASE1_RADIUS_SIGMAS * sigma`` and keeps a cached entry only when its
kth score beats the newcomer's score bound by more than the 1e-9 tie
tolerance.  The sweep fills a cache with ``brute-force`` answers over seeded
small worlds (all four text measures, lam in {0, 0.3, 0.7, 1}), then adds
the newcomers the proof finds hardest: clones of a cached kth member,
keyword-less trajectories, trajectories through a query location,
trajectories wholly beyond ``r`` of a query, and removed ids re-added below
a kth id.  Two properties are checked after every add:

- **soundness** — every retained entry is byte-equal to a fresh
  ``brute-force`` answer over the grown database;
- **tightness** — the bound is the exact score up to ``lam * exp(-r/sigma)``
  (the cap on unreached locations), so every entry whose kth score beats the
  newcomer's exact score by more than that plus the tolerance is retained.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.core.query import UOTSQuery
from repro.core.registry import make_searcher
from repro.core.similarity import ExactScorer
from repro.index.database import TrajectoryDatabase
from repro.network.csr import sssp_array
from repro.network.generators import grid_network
from repro.network.stats import PHASE1_RADIUS_SIGMAS
from repro.perf import ResultCache, query_fingerprint
from repro.text.assignment import annotate_trajectories, assign_vertex_keywords
from repro.text.vocabulary import Vocabulary
from repro.trajectory.generator import generate_trips
from repro.trajectory.model import Trajectory, TrajectoryPoint

SEEDS = (0, 1, 2)
MEASURES = ("jaccard", "dice", "overlap", "cosine")
LAMBDAS = (0.0, 0.3, 0.7, 1.0)
KINDS = ("clone-kth", "keyword-less", "covers-location", "beyond-r", "re-added-low-id")
ROUNDS = 4
TOLERANCE = 1e-9


def small_world(seed: int) -> TrajectoryDatabase:
    """A private 10x10 grid database with a small vocabulary, so keyword
    overlap (and nonzero text-only kth scores) is common."""
    graph = grid_network(10, 10, seed=seed)
    trips = generate_trips(graph, 80, seed=seed + 1)
    vertex_keywords = assign_vertex_keywords(
        graph, Vocabulary.build(12, seed=seed + 2), seed=seed + 3
    )
    trips = annotate_trajectories(trips, vertex_keywords, seed=seed + 4)
    return TrajectoryDatabase(graph, trips)


def sweep_queries(database: TrajectoryDatabase, seed: int) -> list[UOTSQuery]:
    rng = random.Random(seed)
    words = sorted(set().union(*(t.keywords for t in database.trajectories)))
    vertices = range(database.graph.num_vertices)
    return [
        UOTSQuery.create(
            rng.sample(vertices, rng.randint(1, 3)),
            rng.sample(words, rng.randint(1, 3)),
            lam=lam,
            k=rng.choice((1, 3, 5)),
            text_measure=measure,
        )
        for measure in MEASURES
        for lam in LAMBDAS
        for _ in range(2)
    ]


def sweep(seed: int) -> list[list[int]]:
    """Run one seeded world's sweep, asserting soundness and tightness after
    every add; returns the indices of the queries each add dropped."""
    database = small_world(seed)
    oracle = make_searcher(database, "brute-force")
    queries = sweep_queries(database, seed)
    keys = [query_fingerprint(query, "brute-force") for query in queries]
    cache = ResultCache(len(queries))
    database.add_mutation_listener(lambda event: cache.on_event(event, database))
    radius = PHASE1_RADIUS_SIGMAS * database.sigma
    rng = random.Random(seed + 100)
    next_id = max(database.trajectories.ids()) + 1
    decisions: list[list[int]] = []
    covered = {kind: 0 for kind in KINDS}
    entered = retained_total = 0

    def refill() -> None:
        for key, query in zip(keys, queries):
            if key not in cache:
                assert cache.put(key, oracle.search(query), query=query)

    def donor() -> Trajectory:
        return database.get(rng.choice(database.trajectories.ids()))

    for step in range(ROUNDS * len(KINDS)):
        refill()
        kind = KINDS[step % len(KINDS)]
        target = rng.randrange(len(queries))
        query, cached = queries[target], cache.get(keys[target])
        newcomer = None
        if kind == "clone-kth":
            newcomer = database.get(cached.ids[-1]).with_id(next_id)
        elif kind == "keyword-less":
            newcomer = donor().with_id(next_id).with_keywords(())
        elif kind == "covers-location":
            base = donor()
            points = list(base.points)
            points.append(
                TrajectoryPoint(rng.choice(query.locations), points[-1].timestamp + 60.0)
            )
            newcomer = Trajectory(next_id, points, base.keywords)
        elif kind == "beyond-r":
            distances = sssp_array(database.graph.csr, query.locations)
            far = np.flatnonzero(distances > radius)
            if far.size:
                picks = sorted(rng.sample(far.tolist(), min(3, far.size)))
                points = [TrajectoryPoint(v, 60.0 * i) for i, v in enumerate(picks)]
                newcomer = Trajectory(next_id, points, donor().keywords)
        else:  # re-added-low-id: remove an id below the kth id, re-add it
            lower = [tid for tid in database.trajectories.ids() if tid < cached.ids[-1]]
            if lower:
                newcomer = database.remove(rng.choice(lower))
                refill()
        if newcomer is None:
            decisions.append([])
            continue
        covered[kind] += 1
        if newcomer.id == next_id:
            next_id += 1
        before = {index: cache.get(key) for index, key in enumerate(keys)}
        database.add(newcomer)
        dropped = []
        for index, old in before.items():
            query = queries[index]
            served = cache.get(keys[index])
            if served is None:
                dropped.append(index)
            else:
                retained_total += 1
                fresh = oracle.search(query)
                assert served.ids == fresh.ids and served.scores == fresh.scores, (
                    f"seed {seed} step {step} ({kind}): retained query {index} is stale"
                )
            true_score = ExactScorer(database, query).score(newcomer).score
            kth = old.items[-1].score
            entered += true_score >= kth
            full = len(old.items) == query.k and kth > 0.0
            slack = query.lam * math.exp(-radius / database.sigma) + TOLERANCE
            if full and kth - true_score > slack:
                assert served is not None, (
                    f"seed {seed} step {step} ({kind}): query {index} dropped, "
                    f"but the newcomer's exact score {true_score} misses the kth "
                    f"{kth} by more than {slack}"
                )
        decisions.append(dropped)
    assert all(covered.values()), covered
    assert entered and retained_total, "the sweep must see newcomers enter and entries survive"
    return decisions


@pytest.mark.parametrize("seed", SEEDS)
def test_retained_entries_are_exact_and_the_bound_is_tight(seed):
    decisions = sweep(seed)
    assert any(decisions) and not all(decisions)

