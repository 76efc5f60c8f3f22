"""Sharded-vs-flat semantics oracle and shard-pruning behavior.

The sharded searcher's contract is that sharding is *invisible* in the
results: identical top-k ids, scores (1e-9), and exact flags to the flat
collaborative searcher across shard counts, budgets, and database
mutations.  What sharding may change is only the work profile —
which the stats counters expose.
"""

import random

import pytest

from repro.core.query import UOTSQuery
from repro.core.registry import make_searcher
from repro.errors import QueryError
from repro.index.database import TrajectoryDatabase
from repro.resilience.budget import SearchBudget
from repro.shard.searcher import ShardedQueryPlan, ShardedSearcher
from repro.trajectory.model import TrajectorySet


def _assert_same(result, reference):
    assert result.ids == reference.ids
    assert result.scores == pytest.approx(reference.scores, abs=1e-9)
    assert [i.exact for i in result.items] == [i.exact for i in reference.items]
    assert result.exact == reference.exact


def _seeded_queries(database, count=25, seed=0):
    rng = random.Random(seed)
    keywords = sorted({k for t in database.trajectories for k in t.keywords})
    queries = []
    for _ in range(count):
        locations = tuple(
            rng.sample(range(database.graph.num_vertices), rng.choice([1, 2, 3]))
        )
        preference = rng.sample(keywords, rng.choice([0, 1, 2, 3]))
        lam = rng.choice([0.0, 0.1, 0.3, 0.5, 0.9, 1.0])
        queries.append(
            UOTSQuery.create(locations, preference, lam=lam, k=rng.choice([1, 5, 10]))
        )
    return queries


class TestOracle:
    @pytest.mark.parametrize("shards", [1, 4, 8, 16])
    def test_matches_flat_across_seeded_sweep(self, database, shards):
        flat = make_searcher(database, "collaborative")
        sharded = make_searcher(database, "sharded", shards=shards)
        for query in _seeded_queries(database):
            _assert_same(sharded.search(query), flat.search(query))

    def test_budgeted_queries_delegate_to_flat(self, database):
        """Anytime semantics stay byte-identical: the flat path answers."""
        flat = make_searcher(database, "collaborative")
        sharded = make_searcher(database, "sharded", shards=8)
        budget = SearchBudget(max_expanded_vertices=60)
        query = UOTSQuery.create([5, 210], ["park"], lam=0.6, k=5)
        reference = flat.search(query, budget)
        result = sharded.search(query, budget)
        _assert_same(result, reference)
        assert result.degradation_reason == reference.degradation_reason
        assert result.stats.shards_planned == 0  # never scattered

    def test_text_only_queries_delegate_to_flat(self, database):
        sharded = make_searcher(database, "sharded", shards=8)
        query = UOTSQuery.create([42], ["park"], lam=0.0, k=3)
        result = sharded.search(query)
        assert result.stats.shards_planned == 0
        flat = make_searcher(database, "collaborative")
        _assert_same(result, flat.search(query))

    def test_zero_fill_when_region_underfills(self, database):
        """k larger than any shard's plausible hits still returns k items."""
        flat = make_searcher(database, "collaborative")
        sharded = make_searcher(database, "sharded", shards=8)
        query = UOTSQuery.create([0], ["nosuchkeyword"], lam=0.2, k=15)
        reference = flat.search(query)
        result = sharded.search(query)
        assert len(result.items) == 15
        _assert_same(result, reference)


class TestMutationSync:
    @pytest.fixture()
    def mutable(self, grid20, annotated_trips):
        trips = list(annotated_trips)
        database = TrajectoryDatabase(grid20, TrajectorySet(trips[:240]))
        return database, trips[240:]

    def test_add_remove_then_requery(self, mutable):
        database, extra = mutable
        flat = make_searcher(database, "collaborative")
        sharded = make_searcher(database, "sharded", shards=8)
        query = UOTSQuery.create([5, 210], ["park", "museum"], lam=0.5, k=10)
        sharded.search(query)  # warm shard summaries before mutating
        for trajectory in extra:
            database.add(trajectory)
        removed_id = next(iter(database.trajectories)).id
        database.remove(removed_id)
        result = sharded.search(query)
        _assert_same(result, flat.search(query))
        assert removed_id not in result.ids
        for q in _seeded_queries(database, count=10, seed=3):
            _assert_same(sharded.search(q), flat.search(q))

    def test_stale_plan_is_replanned(self, mutable):
        """A plan captured before a mutation must not lose new shards."""
        database, extra = mutable
        flat = make_searcher(database, "collaborative")
        sharded = make_searcher(database, "sharded", shards=8)
        query = UOTSQuery.create([5, 210], ["park"], lam=0.5, k=10)
        plan = sharded.plan(query)
        for trajectory in extra:
            database.add(trajectory)
        _assert_same(sharded.execute(plan), flat.search(query))


class TestScatterStats:
    def test_counters_cover_every_shard(self, database):
        sharded = make_searcher(database, "sharded", shards=8)
        query = UOTSQuery.create([5, 100], ["park", "museum"], lam=0.4, k=5)
        stats = sharded.search(query).stats
        assert stats.shards_planned > 0
        assert stats.shards_executed + stats.shards_pruned == stats.shards_planned
        assert stats.shard_seconds > 0.0
        # Nothing overlaps in one process: the critical path is the sum.
        assert stats.shard_critical_seconds == stats.shard_seconds
        assert stats.executor == ""

    def test_selective_keywords_prune_shards(self, database):
        """A selective textual floor skips far shards entirely."""
        sharded = make_searcher(database, "sharded", shards=8)
        query = UOTSQuery.create([5, 100], ["park", "museum", "lake"], lam=0.4, k=5)
        stats = sharded.search(query).stats
        assert stats.shards_pruned > 0

    def test_spatial_floor_prunes_between_waves(self, database):
        """Even keyword-free queries prune once the merged top-k fills:
        the kth spatial score becomes the floor for later shards."""
        flat = make_searcher(database, "collaborative")
        sharded = make_searcher(database, "sharded", shards=4)
        query = UOTSQuery.create([200], [], lam=1.0, k=3)
        result = sharded.search(query)
        assert result.stats.shards_pruned > 0
        _assert_same(result, flat.search(query))

    #: ``shards_pruned`` of the pre-PR-19 wave schedule (seed wave, then
    #: ``workers``-wide waves; identical for workers 1, 2 and 4) on this
    #: fixture, by shard count.  Same visiting order, floor raised after
    #: every shard instead of every wave: never fewer.
    WAVE_SCHEDULE_PRUNED = {
        "selective": (
            UOTSQuery.create([5, 100], ["park", "museum", "lake"], lam=0.4, k=5),
            {4: 0, 8: 2, 16: 3},
        ),
        "keyword-free": (
            UOTSQuery.create([200], [], lam=1.0, k=3), {4: 2, 8: 5, 16: 9}
        ),
        "one-keyword": (
            UOTSQuery.create([5, 210], ["park"], lam=0.7, k=5), {4: 0, 8: 4, 16: 7}
        ),
    }

    @pytest.mark.parametrize("shards", [4, 8, 16])
    @pytest.mark.parametrize("name", sorted(WAVE_SCHEDULE_PRUNED))
    def test_floor_per_shard_prunes_no_less_than_the_wave_schedule(
        self, database, name, shards
    ):
        query, wave_pruned = self.WAVE_SCHEDULE_PRUNED[name]
        stats = make_searcher(database, "sharded", shards=shards).search(query).stats
        assert stats.shards_pruned >= wave_pruned[shards]
        assert stats.shards_executed + stats.shards_pruned == stats.shards_planned

    def test_k_spanning_database_executes_everything(self, database):
        """With k = |D| no floor can form, so every shard must execute."""
        sharded = make_searcher(database, "sharded", shards=4)
        query = UOTSQuery.create([200], [], lam=1.0, k=len(database))
        stats = sharded.search(query).stats
        assert stats.shards_pruned == 0
        assert stats.shards_executed == stats.shards_planned


class TestPlan:
    def test_plan_is_sharded_and_describes_schedule(self, database):
        sharded = make_searcher(database, "sharded", shards=8)
        query = UOTSQuery.create([5, 100], ["park", "museum"], lam=0.4, k=5)
        plan = sharded.plan(query)
        assert isinstance(plan, ShardedQueryPlan)
        assert plan.algorithm == "sharded"
        assert plan.estimated_cost > 0
        assert len(plan.shard_ids) == len(plan.shard_costs)
        assert len(plan.shard_ids) == len(plan.shard_upper_bounds)
        text = plan.describe()
        assert "shards:" in text
        assert "prunable at plan floor" in text
        assert "shard[" in text
        assert "est. cost:" in text
        assert "candidates/unit" in text  # cost-unit annotation (satellite)
        assert "score" not in text  # explain output stays execution-free

    def test_scheduled_cost_excludes_prunable_shards(self, database):
        sharded = make_searcher(database, "sharded", shards=8)
        query = UOTSQuery.create([5, 100], ["park", "museum", "lake"], lam=0.4, k=5)
        plan = sharded.plan(query)
        survivors = sum(
            cost
            for cost, ub in zip(plan.shard_costs, plan.shard_upper_bounds)
            if ub >= plan.plan_floor - 1e-9
        )
        assert plan.estimated_cost == pytest.approx(max(1.0, survivors))
        assert plan.estimated_cost < sum(plan.shard_costs)


class TestConstruction:
    def test_rejects_bad_shards(self, database):
        with pytest.raises(ValueError):
            ShardedSearcher(database, shards=0)

    def test_rejects_bad_workers(self, database):
        """Every ``workers`` is a bad one now: the option left the
        constructor and the registry's tuning vocabulary."""
        with pytest.raises(TypeError):
            ShardedSearcher(database, shards=4, workers=2)
        with pytest.raises(QueryError, match="workers"):
            make_searcher(database, "sharded", workers=2)

    def test_custom_partitioner_hook(self, database):
        """Any id -> label mapping is accepted (graph-partitioner hook)."""

        class OddEven:
            def assign(self, graph, trajectories):
                return {t.id: t.id % 2 for t in trajectories}

        sharded = ShardedSearcher(database, partitioner=OddEven())
        assert len(sharded._collection.shards) == 2
        flat = make_searcher(database, "collaborative")
        query = UOTSQuery.create([5, 210], ["park"], lam=0.5, k=5)
        _assert_same(sharded.search(query), flat.search(query))
