"""Admissibility of the shard summaries: the bounds are never wrong.

The shard pruning guarantee rests on two properties, both checked here
against exhaustive computation:

- ``distance_lower_bounds`` never exceeds the true shortest distance from
  a source to *any* vertex the shard's members cover;
- ``upper_bound`` never falls below the exact combined score of *any*
  member trajectory, for every registered text measure.
"""

import numpy as np
import pytest

from repro.core.query import UOTSQuery
from repro.core.registry import make_searcher
from repro.index.database import TrajectoryDatabase
from repro.shard.partition import GridPartitioner
from repro.shard.searcher import ShardCollection
from repro.network.dijkstra import single_source_distances
from repro.shard.summary import text_upper_bound
from repro.text.similarity import get_measure


class TestTextUpperBound:
    VOCAB = frozenset({"park", "lake", "museum"})

    def test_empty_query_is_zero(self):
        assert text_upper_bound(frozenset(), "jaccard", self.VOCAB) == 0.0

    def test_disjoint_query_is_zero(self):
        assert text_upper_bound(frozenset({"zoo"}), "jaccard", self.VOCAB) == 0.0

    @pytest.mark.parametrize("measure", ["jaccard", "dice", "overlap", "cosine"])
    def test_dominates_exact_similarity(self, measure):
        """Bound >= measure(Q, T) for every subset T of the vocabulary."""
        from itertools import chain, combinations

        vocab = sorted(self.VOCAB)
        subsets = list(chain.from_iterable(
            combinations(vocab, r) for r in range(1, len(vocab) + 1)
        ))
        queries = [
            frozenset({"park"}),
            frozenset({"park", "lake"}),
            frozenset({"park", "zoo"}),
            frozenset({"zoo", "beach", "lake"}),
        ]
        exact_measure = get_measure(measure)
        for keywords in queries:
            bound = text_upper_bound(keywords, measure, self.VOCAB)
            for subset in subsets:
                exact = exact_measure(keywords, frozenset(subset))
                assert bound >= exact - 1e-12

    def test_unknown_measure_falls_back_to_one(self):
        assert text_upper_bound(frozenset({"park"}), "weird", self.VOCAB) == 1.0


@pytest.fixture(scope="module")
def collection(grid20, annotated_trips):
    database = TrajectoryDatabase(grid20, annotated_trips)
    searcher = make_searcher(database, "sharded", shards=8)
    return database, searcher._collection


class TestShardSummary:
    def test_vocabulary_is_union_of_members(self, collection):
        _, shards = collection
        for shard in shards.shards:
            summary = shards.summary_of(shard)
            expected = set()
            for trajectory in shard.database.trajectories:
                expected.update(trajectory.keywords)
            assert summary.vocabulary == frozenset(expected)
            assert summary.size == len(shard.database)

    def test_covered_is_union_of_vertex_sets(self, collection):
        _, shards = collection
        for shard in shards.shards:
            summary = shards.summary_of(shard)
            expected = set()
            for trajectory in shard.database.trajectories:
                expected.update(trajectory.vertex_set)
            assert set(summary.covered.tolist()) == expected

    def test_distance_lower_bounds_admissible(self, collection):
        """lb(source, shard) <= true sd(source, v) for every covered v."""
        database, shards = collection
        landmark_index = shards.landmark_index
        sources = np.asarray([0, 57, 123, 399], dtype=np.intp)
        for shard in shards.shards:
            summary = shards.summary_of(shard)
            bounds = summary.distance_lower_bounds(landmark_index, sources)
            if bounds is None:
                continue
            for j, source in enumerate(sources):
                distances = single_source_distances(database.graph, int(source))
                true_min = min(
                    distances.get(v, float("inf"))
                    for v in summary.covered.tolist()
                )
                assert bounds[j] <= true_min + 1e-9

    @pytest.mark.parametrize("measure", ["jaccard", "dice", "overlap", "cosine"])
    def test_upper_bound_dominates_member_scores(self, collection, measure):
        """No member trajectory can out-score its shard's upper bound."""
        database, shards = collection
        query = UOTSQuery.create([0, 210], ["park", "museum"], lam=0.6, k=3,
                                 text_measure=measure)
        oracle = make_searcher(database, "brute-force")
        exact = {
            item.trajectory_id: item.score
            for item in oracle.search(query).items
        }
        # Brute force only returns k items; score all via per-shard oracles.
        sources = np.asarray(query.locations, dtype=np.intp)
        for shard in shards.shards:
            summary = shards.summary_of(shard)
            lbs = summary.distance_lower_bounds(shards.landmark_index, sources)
            if lbs is None:
                caps = None
            else:
                alpha = query.lam / len(query.locations)
                caps = [
                    alpha * float(np.exp(-lb / database.sigma)) for lb in lbs
                ]
            bound = summary.upper_bound(
                query.lam, query.keywords, query.text_measure, caps
            )
            shard_oracle = make_searcher(shard.database, "brute-force")
            wide = UOTSQuery.create(
                query.locations, sorted(query.keywords), lam=query.lam,
                k=max(1, len(shard.database)), text_measure=measure,
            )
            for item in shard_oracle.search(wide).items:
                assert bound >= item.score - 1e-9


class TestSummaryInvalidation:
    def test_summary_rebuilt_after_mutation(self, grid20, annotated_trips):
        from repro.trajectory.model import TrajectorySet

        trips = list(annotated_trips)
        database = TrajectoryDatabase(grid20, TrajectorySet(trips[:-1]))
        searcher = make_searcher(database, "sharded", shards=4)
        shards = searcher._collection
        before = [shards.summary_of(s) for s in shards.shards]
        database.add(trips[-1])
        touched = [
            s for s, old in zip(shards.shards, before)
            if shards.summary_of(s) is not old
        ]
        assert len(touched) == 1  # exactly the receiving shard rebuilt
        assert sum(len(s.database) for s in shards.shards) == len(database)
