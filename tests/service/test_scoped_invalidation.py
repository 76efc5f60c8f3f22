"""Scoped result-cache invalidation: the ISSUE 8 semantics oracle.

Scoped invalidation must be *invisible* except for hit rate: after any
interleaving of adds, removes, and queries, every answer the cached
service returns — hit or miss — is byte-equal to a fresh search over the
current database (the seeded property sweep).  The targeted tests pin the
two scoping rules individually: removals drop exactly the entries that
ranked the removed trajectory, and adds retain entries whose cached kth
score exceeds, by more than the 1e-9 tie tolerance, the newcomer's score
bound from one Dijkstra bounded at the scan's phase-1 radius plus its
exact text similarity.
"""

import random

import pytest

from repro.bench.datasets import DatasetBundle, build_bundle
from repro.bench.workloads import WorkloadConfig, make_queries
from repro.core.query import UOTSQuery
from repro.index.database import TrajectoryDatabase
from repro.obs.metrics import MetricsRegistry
from repro.perf import ResultCache
from repro.service import QueryService
from repro.trajectory.model import Trajectory, TrajectoryPoint, TrajectorySet
from tests.conftest import series


@pytest.fixture()
def bundle():
    # Every test mutates the database freely, and build_bundle() memoises
    # by parameters — so each test gets a private database over the shared
    # immutable graph instead of churning the cached bundle.
    base = build_bundle("brn", num_trajectories=120, scale=0.02, seed=5)
    trajectories = TrajectorySet(list(base.trajectories))
    return DatasetBundle(
        name=base.name,
        graph=base.graph,
        trajectories=trajectories,
        database=TrajectoryDatabase(
            base.graph, trajectories, sigma=base.database.sigma
        ),
        vocabulary=base.vocabulary,
    )


@pytest.fixture()
def workload(bundle):
    return make_queries(
        bundle, WorkloadConfig(num_queries=6, num_locations=3, k=5, seed=11)
    )


def _service(bundle, **kwargs):
    kwargs.setdefault("result_cache", 128)
    return QueryService(bundle.database, "collaborative", **kwargs)


def _oracle(bundle):
    """An uncached service on the same database: every search is fresh."""
    return QueryService(bundle.database, "collaborative", result_cache=0)


def _assert_byte_equal(served, fresh):
    assert served.ids == fresh.ids
    assert served.scores == fresh.scores  # exact float equality
    assert served.exact == fresh.exact
    assert served.error is None and served.degradation_reason is None


def _popular_keyword(database, min_postings):
    """A keyword at least ``min_postings`` trajectories carry."""
    counts = {}
    for trajectory in database.trajectories:
        for keyword in trajectory.keywords:
            counts[keyword] = counts.get(keyword, 0) + 1
    keyword, count = max(counts.items(), key=lambda kv: (kv[1], kv[0]))
    assert count >= min_postings
    return keyword


class TestPropertySweep:
    def test_random_interleaving_matches_fresh_search(self, bundle):
        """Seeded sweep: adds/removes/queries in random order; every cached
        read stays byte-equal to an uncached search over the live set."""
        rng = random.Random(710)
        database = bundle.database
        service = _service(bundle)
        oracle = _oracle(bundle)
        pool = make_queries(
            bundle,
            WorkloadConfig(num_queries=8, num_locations=2, k=4, seed=17),
        )
        removed: list[Trajectory] = []
        max_id = max(t.id for t in database.trajectories)
        for step in range(150):
            roll = rng.random()
            if roll < 0.70:
                query = rng.choice(pool)
                served = service.search(query)
                _assert_byte_equal(served, oracle.search(query))
            elif roll < 0.85 and len(database) > 10:
                victim = rng.choice([t.id for t in database.trajectories])
                removed.append(database.remove(victim))
            elif removed and rng.random() < 0.5:
                database.add(removed.pop())
            else:
                # A genuinely new trajectory: clone a random member's shape
                # under a fresh id with a keyword subset.
                donor = rng.choice(list(database.trajectories))
                max_id += 1
                keywords = sorted(donor.keywords)[:2]
                database.add(
                    Trajectory(
                        max_id,
                        [
                            TrajectoryPoint(p.vertex, p.timestamp)
                            for p in donor.points
                        ],
                        keywords,
                    )
                )
        # The sweep must have exercised both hits and invalidation.
        assert service.result_cache.stats.hits > 0
        assert service.result_cache.invalidation_events > 0

    def test_sweep_scoped_and_wholesale_agree_on_answers(self, bundle):
        """The same mutation/query stream served by a scoped and a
        wholesale cache yields identical answers — scoping only changes
        hit rate, never content."""
        rng = random.Random(4096)
        database = bundle.database
        scoped = _service(bundle)
        wholesale = QueryService(
            database, "collaborative", result_cache=ResultCache(128, scoped=False)
        )
        pool = make_queries(
            bundle,
            WorkloadConfig(num_queries=5, num_locations=2, k=4, seed=23),
        )
        removed: list[Trajectory] = []
        for step in range(80):
            if rng.random() < 0.75:
                query = rng.choice(pool)
                _assert_byte_equal(scoped.search(query), wholesale.search(query))
            elif removed and rng.random() < 0.5:
                database.add(removed.pop())
            elif len(database) > 10:
                victim = rng.choice([t.id for t in database.trajectories])
                removed.append(database.remove(victim))
        assert scoped.result_cache.stats.hits >= wholesale.result_cache.stats.hits


class TestRemovalScoping:
    def test_removing_unranked_trajectory_keeps_the_entry(self, bundle, workload):
        service = _service(bundle)
        oracle = _oracle(bundle)
        query = workload[0]
        cold = service.search(query)
        unranked = next(
            t.id for t in bundle.database.trajectories if t.id not in cold.ids
        )
        bundle.database.remove(unranked)
        warm = service.search(query)
        assert warm.stats.cache == "result"  # retained across the removal
        _assert_byte_equal(warm, oracle.search(query))

    def test_removing_ranked_trajectory_drops_the_entry(self, bundle, workload):
        service = _service(bundle)
        oracle = _oracle(bundle)
        query = workload[0]
        cold = service.search(query)
        bundle.database.remove(cold.ids[0])
        fresh = service.search(query)
        assert fresh.stats.cache == ""  # invalidated, recomputed
        assert cold.ids[0] not in fresh.ids
        _assert_byte_equal(fresh, oracle.search(query))

    def test_removal_only_touches_entries_that_ranked_it(self, bundle, workload):
        service = _service(bundle)
        a, b = workload[0], workload[1]
        cold_a = service.search(a)
        service.search(b)
        victim = next(
            t.id
            for t in bundle.database.trajectories
            if t.id in cold_a.ids and t.id not in service.search(b).ids
        )
        bundle.database.remove(victim)
        assert service.search(a).stats.cache == ""  # ranked the victim: dropped
        assert service.search(b).stats.cache == "result"  # untouched: retained


class TestAddScoping:
    def _spatial_free_query(self, bundle, k=3):
        """A pure-text query (lam=0): the add bound is the exact SimT."""
        keyword = _popular_keyword(bundle.database, min_postings=k)
        graph = bundle.database.graph
        return UOTSQuery(
            locations=(0, graph.num_vertices // 2),
            keywords=frozenset({keyword}),
            lam=0.0,
            k=k,
        )

    def _fresh_trajectory(self, bundle, keywords):
        max_id = max(t.id for t in bundle.database.trajectories)
        return Trajectory(
            max_id + 1, [TrajectoryPoint(1, 0.0), TrajectoryPoint(2, 60.0)], keywords
        )

    def test_keyword_disjoint_add_retains_the_entry(self, bundle):
        service = _service(bundle)
        oracle = _oracle(bundle)
        query = self._spatial_free_query(bundle)
        cold = service.search(query)
        assert cold.items[-1].score > 0.0  # the survival proof needs kth > 0
        bundle.database.add(
            self._fresh_trajectory(bundle, ["zzz-nowhere", "zzz-else"])
        )
        warm = service.search(query)
        assert warm.stats.cache == "result"  # provably unaffected: retained
        _assert_byte_equal(warm, oracle.search(query))

    def test_keyword_overlapping_add_drops_the_entry(self, bundle):
        service = _service(bundle)
        oracle = _oracle(bundle)
        query = self._spatial_free_query(bundle)
        service.search(query)
        # The newcomer carries exactly the query keyword: its SimT is
        # 1.0 >= any cached kth score, so the entry must drop.
        bundle.database.add(self._fresh_trajectory(bundle, sorted(query.keywords)))
        fresh = service.search(query)
        assert fresh.stats.cache == ""
        _assert_byte_equal(fresh, oracle.search(query))


class TestWholesaleMode:
    def test_scoped_false_clears_on_any_mutation(self, bundle, workload):
        cache = ResultCache(64, scoped=False)
        service = QueryService(
            bundle.database, "collaborative", result_cache=cache
        )
        query = workload[0]
        cold = service.search(query)
        unranked = next(
            t.id for t in bundle.database.trajectories if t.id not in cold.ids
        )
        bundle.database.remove(unranked)  # scoped mode would retain this
        assert len(cache) == 0
        assert service.search(query).stats.cache == ""


class TestObservability:
    def test_stats_lane_is_gated_and_recorded(self, bundle, workload):
        service = _service(bundle)
        assert "repro_invalidation" not in service.metrics.render_prometheus()
        cold = service.search(workload[0])
        bundle.database.remove(cold.ids[0])
        assert service.result_cache.invalidation_kinds == {"remove": 1}
        assert series(service, "repro_invalidation_events_total") == 1
        assert series(service, "repro_invalidation_events_total", kind="remove") == 1
        assert series(service, "repro_invalidation_entries_dropped_total") == 1

    def test_trace_span_records_invalidation_scope(self, bundle, workload):
        service = _service(bundle, trace=True)
        cold = service.search(workload[0])
        bundle.database.remove(cold.ids[0])
        root = service.tracer.last_trace()
        assert root.name == "invalidation"
        assert root.attributes["kind"] == "remove"
        assert root.attributes["trajectory_id"] == cold.ids[0]
        assert root.attributes["entries_dropped"] == 1
        assert "entries_retained" in root.attributes

    def test_metrics_export_invalidation_series(self, bundle, workload):
        registry = MetricsRegistry()
        service = _service(bundle, metrics=registry)
        cold = service.search(workload[0])
        removed = bundle.database.remove(cold.ids[0])
        bundle.database.add(removed)
        for kind in ("remove", "add"):
            assert series(registry, "repro_invalidation_events_total", kind=kind) == 1
        assert series(registry, "repro_invalidation_entries_dropped_total") >= 1
        assert "repro_invalidation_entries_retained_total" in registry.render_prometheus()
