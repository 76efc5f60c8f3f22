"""Unit tests for the bounded LRU cache and its counters."""

import numpy as np

from repro.index.events import MutationEvent
from repro.perf import CacheStats, LRUCache, QueryCaches


def _event(kind="add", trajectory_id=7, keywords=(), vertices=(1, 2)):
    return MutationEvent(
        kind=kind,
        trajectory_id=trajectory_id,
        keywords=frozenset(keywords),
        vertices=np.array(vertices, dtype=np.intp),
    )


class TestLRUCache:
    def test_put_get_roundtrip(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.stats.hits == 1
        assert cache.stats.misses == 0

    def test_miss_counts_and_returns_default(self):
        cache = LRUCache(4)
        assert cache.get("absent", default=-1) == -1
        assert cache.stats.misses == 1

    def test_eviction_is_least_recently_used(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh "a" — "b" becomes LRU
        cache.put("c", 3)
        assert "a" in cache
        assert "b" not in cache
        assert "c" in cache
        assert cache.stats.evictions == 1

    def test_put_refreshes_recency(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # rewrite refreshes too
        cache.put("c", 3)
        assert cache.get("a") == 10
        assert "b" not in cache

    def test_zero_capacity_disables(self):
        cache = LRUCache(0)
        cache.put("a", 1)
        assert not cache.enabled
        assert len(cache) == 0
        assert cache.get("a") is None
        assert cache.stats.misses == 1  # lookups are still observed

    def test_peek_does_not_touch_counters_or_recency(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.peek("a") == 1
        assert cache.stats.lookups == 0
        cache.put("c", 3)  # "a" was NOT refreshed by peek: it is evicted
        assert "a" not in cache

    def test_invalidate_where(self):
        cache = LRUCache(8)
        for tid in range(4):
            cache.put((tid, 99), float(tid))
        dropped = cache.invalidate_where(lambda key: key[0] == 2)
        assert dropped == 1
        assert (2, 99) not in cache
        assert (1, 99) in cache

    def test_clear_keeps_counters(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.hits == 1

    def test_pop_removes_without_counting(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        assert cache.pop("a") == 1
        assert cache.pop("a", default=-1) == -1
        assert cache.stats.lookups == 0

    def test_items_snapshot_survives_mutation_during_iteration(self):
        cache = LRUCache(8)
        for tid in range(4):
            cache.put(tid, tid * 10)
        seen = []
        for key, value in cache.items():
            seen.append((key, value))
            cache.pop(key)
        assert seen == [(0, 0), (1, 10), (2, 20), (3, 30)]
        assert len(cache) == 0

    def test_evict_hook_fires_only_on_capacity_eviction(self):
        evicted = []
        cache = LRUCache(2)
        cache.evict_hook = lambda key, value: evicted.append((key, value))
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)  # capacity eviction of "a"
        assert evicted == [("a", 1)]
        cache.pop("b")
        cache.clear()
        assert evicted == [("a", 1)]  # explicit removal never fires it


class TestCacheStats:
    def test_hit_rate(self):
        stats = CacheStats(hits=3, misses=1)
        assert stats.hit_rate == 0.75
        assert CacheStats().hit_rate == 0.0

    def test_delta_since(self):
        stats = CacheStats(hits=5, misses=2, evictions=1)
        snap = stats.snapshot()
        stats.hits += 3
        stats.misses += 1
        delta = stats.delta_since(snap)
        assert (delta.hits, delta.misses, delta.evictions) == (3, 1, 0)

    def test_as_dict(self):
        assert CacheStats(1, 2, 3).as_dict() == {
            "hits": 1, "misses": 2, "evictions": 3,
        }


class TestQueryCaches:
    def test_defaults_enabled(self):
        caches = QueryCaches()
        assert caches.enabled
        assert caches.distances.capacity > 0
        assert caches.text.capacity > 0

    def test_zero_disables_both(self):
        caches = QueryCaches(capacity=0)
        assert not caches.enabled
        caches.distances.put((1, 2), 3.0)
        assert len(caches.distances) == 0

    def test_positive_capacity_scales_text_share(self):
        caches = QueryCaches(capacity=1000)
        assert caches.distances.capacity == 1000
        assert caches.text.capacity == max(8, 1000 // 128)

    def test_stats_by_name(self):
        caches = QueryCaches()
        stats = caches.stats()
        assert set(stats) == {"distances", "text"}


class TestQueryCachesOnEvent:
    def _warm(self):
        caches = QueryCaches(capacity=64)
        caches.distances.put((7, 10), 1.0)
        caches.distances.put((8, 10), 2.0)
        caches.text.put((frozenset({"park"}), "jaccard"), {7: 0.5})
        caches.text.put((frozenset({"museum"}), "jaccard"), {8: 0.5})
        return caches

    def test_event_drops_own_distances_only(self):
        caches = self._warm()
        caches.on_event(_event(trajectory_id=7, keywords=["park"]))
        assert (7, 10) not in caches.distances
        assert (8, 10) in caches.distances

    def test_event_drops_only_intersecting_text_tables(self):
        caches = self._warm()
        caches.on_event(_event(trajectory_id=7, keywords=["park", "lake"]))
        assert (frozenset({"park"}), "jaccard") not in caches.text
        assert (frozenset({"museum"}), "jaccard") in caches.text

    def test_keywordless_event_keeps_all_text_tables(self):
        caches = self._warm()
        caches.on_event(_event(trajectory_id=7, keywords=[]))
        assert len(caches.text) == 2  # no textual reach: nothing to drop

    def test_remove_event_scopes_identically(self):
        caches = self._warm()
        caches.on_event(_event(kind="remove", trajectory_id=8, keywords=["museum"]))
        assert (8, 10) not in caches.distances
        assert (7, 10) in caches.distances
        assert (frozenset({"park"}), "jaccard") in caches.text
        assert (frozenset({"museum"}), "jaccard") not in caches.text
