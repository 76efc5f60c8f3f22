"""ResultCache unit behaviour: fingerprinting, exact-only storage, copy-out.

The service-level integration (hits byte-equal to cold searches, mutation
invalidation, budget bypass through a live ``QueryService``) lives in
``tests/service/test_result_cache_service.py``; this module pins the cache
container itself plus the ISSUE 5 ``QueryCaches`` capacity-split fix.
"""

import numpy as np
import pytest

from repro.core.query import UOTSQuery
from repro.core.results import ScoredTrajectory, SearchResult
from repro.index.events import MutationEvent
from repro.perf import (
    DEFAULT_RESULT_CAPACITY,
    QueryCaches,
    ResultCache,
    query_fingerprint,
)
from repro.resilience.budget import SearchBudget


def _query(locations=(3, 7), keywords=("park",), lam=0.5, k=3, measure="jaccard"):
    return UOTSQuery(
        locations=tuple(locations),
        keywords=frozenset(keywords),
        lam=lam,
        k=k,
        text_measure=measure,
    )


def _result(ids=(1, 2), exact=True, error=None, reason=None):
    items = [
        ScoredTrajectory(
            trajectory_id=i,
            score=1.0 - 0.1 * rank,
            spatial_similarity=0.5,
            text_similarity=0.5,
        )
        for rank, i in enumerate(ids)
    ]
    return SearchResult(
        items=items, exact=exact, error=error, degradation_reason=reason
    )


class TestFingerprint:
    def test_location_order_is_normalized(self):
        assert query_fingerprint(_query((3, 7)), "collaborative") == (
            query_fingerprint(_query((7, 3)), "collaborative")
        )

    def test_every_query_dimension_separates(self):
        base = query_fingerprint(_query(), "collaborative")
        assert query_fingerprint(_query(locations=(3, 8)), "collaborative") != base
        assert query_fingerprint(_query(keywords=("lake",)), "collaborative") != base
        assert query_fingerprint(_query(lam=0.7), "collaborative") != base
        assert query_fingerprint(_query(k=5), "collaborative") != base
        assert query_fingerprint(_query(measure="dice"), "collaborative") != base

    def test_algorithm_and_tuning_separate(self):
        base = query_fingerprint(_query(), "collaborative")
        assert query_fingerprint(_query(), "spatial-first") != base
        tuned = query_fingerprint(
            _query(), "collaborative", (("scheduler", "round-robin"),)
        )
        assert tuned != base

    def test_tuning_pair_order_is_canonical(self):
        a = query_fingerprint(
            _query(), "collaborative", (("alt", False), ("batch_size", 8))
        )
        b = query_fingerprint(
            _query(), "collaborative", (("batch_size", 8), ("alt", False))
        )
        assert a == b

    def test_budget_is_not_part_of_the_identity(self):
        budgeted = UOTSQuery(
            locations=(3, 7),
            keywords=frozenset({"park"}),
            budget=SearchBudget(max_expanded_vertices=5),
            k=1,
        )
        bare = UOTSQuery(locations=(3, 7), keywords=frozenset({"park"}), k=1)
        assert query_fingerprint(budgeted, "collaborative") == (
            query_fingerprint(bare, "collaborative")
        )


class TestCacheability:
    def test_exact_unbudgeted_results_qualify(self):
        assert ResultCache.cacheable(_result())
        assert ResultCache.cacheable(_result(), SearchBudget())  # unlimited

    def test_degraded_error_and_budgeted_results_do_not(self):
        assert not ResultCache.cacheable(_result(exact=False))
        assert not ResultCache.cacheable(_result(error="boom"))
        assert not ResultCache.cacheable(_result(reason="deadline"))
        assert not ResultCache.cacheable(
            _result(), SearchBudget(max_expanded_vertices=10)
        )

    def test_put_refuses_uncacheable_results(self):
        cache = ResultCache(4)
        assert not cache.put("k", _result(exact=False))
        assert not cache.put("k", _result(), SearchBudget(deadline_seconds=0.1))
        assert len(cache) == 0
        assert cache.put("k", _result())
        assert len(cache) == 1


class TestContainer:
    def test_default_capacity_and_disable(self):
        assert ResultCache().capacity == DEFAULT_RESULT_CAPACITY
        disabled = ResultCache(0)
        assert not disabled.enabled
        assert not disabled.put("k", _result())
        assert disabled.get("k") is None

    def test_lru_eviction_is_bounded(self):
        cache = ResultCache(2)
        for key in ("a", "b", "c"):
            assert cache.put(key, _result())
        assert len(cache) == 2
        assert "a" not in cache
        assert cache.stats.evictions == 1

    def test_hits_and_misses_are_counted(self):
        cache = ResultCache(4)
        cache.put("k", _result())
        assert cache.get("missing") is None
        assert cache.get("k") is not None
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_hit_is_a_fresh_copy_marked_as_cached(self):
        cache = ResultCache(4)
        original = _result(ids=(5, 6))
        cache.put("k", original)
        first = cache.get("k")
        second = cache.get("k")
        assert first is not original and first is not second
        assert first.items is not second.items
        assert first.stats is not second.stats
        assert first.stats.cache == "result"
        assert first.stats.expanded_vertices == 0  # zero work, honestly
        assert first.exact and first.error is None
        # Caller-side mutation (the service stamps executor/latency) must
        # never leak back into the cache or into the next hit.
        first.stats.executor = "sequential"
        first.stats.elapsed_seconds = 9.9
        first.items.pop()
        assert second.ids == [5, 6]
        assert cache.get("k").stats.elapsed_seconds == 0.0

    def test_mutation_hook_and_clear_drop_entries_keep_history(self):
        cache = ResultCache(4, scoped=False)
        cache.put("k", _result())
        cache.get("k")
        cache.on_event(_event(trajectory_id=123))
        assert len(cache) == 0
        assert cache.stats.hits == 1  # counters describe history
        assert cache.get("k") is None
        cache.put("k", _result())
        cache.clear()
        assert len(cache) == 0 and cache.stats.hits == 1


def _event(kind="add", trajectory_id=99, keywords=(), vertices=(1, 2)):
    return MutationEvent(
        kind=kind,
        trajectory_id=trajectory_id,
        keywords=frozenset(keywords),
        vertices=np.array(vertices, dtype=np.intp),
    )


class TestScopedEvents:
    """Container-level scoped invalidation (no database: the spatial term
    takes the trivial ``lam`` cap, the text term is exact).  The bounded
    Dijkstra from the newcomer and byte-equality against fresh searches
    live in ``tests/perf/test_add_survival.py`` and
    ``tests/service/test_scoped_invalidation.py``."""

    def _put(self, cache, key, ids, scores=None, **query_kwargs):
        query_kwargs.setdefault("k", len(ids))
        query = _query(**query_kwargs)
        items = [
            ScoredTrajectory(
                trajectory_id=i,
                score=(scores[rank] if scores else 1.0 - 0.1 * rank),
                spatial_similarity=0.0,
                text_similarity=0.0,
            )
            for rank, i in enumerate(ids)
        ]
        assert cache.put(key, SearchResult(items=items), query=query)

    def test_remove_drops_only_entries_that_ranked_it(self):
        cache = ResultCache(8)
        self._put(cache, "a", ids=(1, 2))
        self._put(cache, "b", ids=(3, 4))
        dropped, retained = cache.on_event(_event("remove", trajectory_id=2))
        assert (dropped, retained) == (1, 1)
        assert "a" not in cache and "b" in cache

    def test_remove_of_unranked_id_keeps_everything(self):
        cache = ResultCache(8)
        self._put(cache, "a", ids=(1, 2))
        dropped, retained = cache.on_event(_event("remove", trajectory_id=77))
        assert (dropped, retained) == (0, 1)
        assert "a" in cache

    def test_add_drops_entries_stored_without_query_metadata(self):
        cache = ResultCache(8)
        cache.put("legacy", _result(ids=(1, 2)))  # no query= metadata
        dropped, retained = cache.on_event(_event("add", keywords=["zzz"]))
        assert (dropped, retained) == (1, 0)

    def test_add_with_disjoint_keywords_and_pure_text_query_survives(self):
        cache = ResultCache(8)
        self._put(cache, "a", ids=(1, 2), lam=0.0, keywords=("park",))
        dropped, retained = cache.on_event(_event("add", keywords=["zzz"]))
        assert (dropped, retained) == (0, 1)
        assert cache.get("a") is not None

    def test_add_with_overlapping_keywords_drops(self):
        cache = ResultCache(8)
        self._put(cache, "a", ids=(1, 2), lam=0.0, keywords=("park",))
        dropped, retained = cache.on_event(_event("add", keywords=["park"]))
        assert (dropped, retained) == (1, 0)

    def test_add_without_database_uses_the_trivial_lam_cap(self):
        cache = ResultCache(8)
        # kth score 0.9 > lam 0.3 + text 0: provably safe even blind.
        self._put(
            cache, "high", ids=(1, 2), scores=(0.95, 0.9), lam=0.3,
            keywords=("park",),
        )
        # kth score 0.2 <= 0.3: the newcomer might reach it — drop.
        self._put(
            cache, "low", ids=(3, 4), scores=(0.4, 0.2), lam=0.3,
            keywords=("park",),
        )
        dropped, retained = cache.on_event(_event("add", keywords=["zzz"]))
        assert (dropped, retained) == (1, 1)
        assert "high" in cache and "low" not in cache

    def test_underfull_and_zero_padded_entries_drop_on_add(self):
        cache = ResultCache(8)
        self._put(cache, "underfull", ids=(1, 2), lam=0.0, k=5)
        self._put(
            cache, "padded", ids=(3, 4), scores=(0.5, 0.0), lam=0.0,
            keywords=("park",),
        )
        dropped, retained = cache.on_event(_event("add", keywords=["zzz"]))
        assert (dropped, retained) == (2, 0)

    def test_tied_kth_score_is_not_proof(self):
        cache = ResultCache(8)
        # A newcomer bounding exactly at the kth score could win the id
        # tie-break: strict inequality must drop the entry.
        self._put(
            cache, "a", ids=(1, 2), scores=(1.0, 0.5), lam=0.5,
            keywords=("park",),
        )
        dropped, _ = cache.on_event(_event("add", keywords=[]))  # ub == lam == 0.5
        assert dropped == 1

    def test_eviction_keeps_the_reverse_index_consistent(self):
        cache = ResultCache(2)
        self._put(cache, "a", ids=(1, 2))
        self._put(cache, "b", ids=(1, 3))
        self._put(cache, "c", ids=(1, 4))  # evicts "a"
        dropped, retained = cache.on_event(_event("remove", trajectory_id=1))
        assert (dropped, retained) == (2, 0)  # only the live entries

    def test_overwrite_unlinks_the_old_ranking(self):
        cache = ResultCache(8)
        self._put(cache, "a", ids=(1, 2))
        self._put(cache, "a", ids=(3, 4))  # same key, new ranking
        dropped, retained = cache.on_event(_event("remove", trajectory_id=1))
        assert (dropped, retained) == (0, 1)  # old posting is gone
        assert "a" in cache

    def test_wholesale_mode_clears_on_any_event(self):
        cache = ResultCache(8, scoped=False)
        assert not cache.scoped
        self._put(cache, "a", ids=(1, 2))
        dropped, retained = cache.on_event(_event("remove", trajectory_id=77))
        assert (dropped, retained) == (1, 0)

    def test_invalidation_counters_accumulate(self):
        cache = ResultCache(8)
        self._put(cache, "a", ids=(1, 2))
        self._put(cache, "b", ids=(3, 4))
        cache.on_event(_event("remove", trajectory_id=1))
        cache.on_event(_event("remove", trajectory_id=77))
        assert cache.invalidation_events == 2
        assert cache.invalidation_entries_dropped == 1
        assert cache.invalidation_entries_retained == 2  # 1 + 1 per event


class TestQueryCachesCapacitySplit:
    """ISSUE 5 satellite: the text share must never exceed the distance bound."""

    def test_small_capacity_no_longer_inverts(self):
        caches = QueryCaches(capacity=4)
        assert caches.text.capacity <= caches.distances.capacity
        assert caches.distances.capacity == 4
        assert caches.text.capacity == 4

    def test_proportional_share_is_kept_for_large_capacities(self):
        caches = QueryCaches(capacity=2048)
        assert caches.distances.capacity == 2048
        assert caches.text.capacity == 16  # max(8, 2048 // 128)

    @pytest.mark.parametrize("capacity", [0, -1])
    def test_nonpositive_still_disables_both(self, capacity):
        caches = QueryCaches(capacity=capacity)
        assert not caches.enabled
        assert caches.distances.capacity == 0
        assert caches.text.capacity == 0

    def test_defaults_are_untouched(self):
        caches = QueryCaches()
        assert caches.distances.capacity == 65536
        assert caches.text.capacity == 512
