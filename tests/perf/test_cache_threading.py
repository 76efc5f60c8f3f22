"""Concurrency property tests for the LRU cache and the result cache.

These are the containers the gateway's thread-pool bridge shares across
worker threads: the database's cross-query :class:`LRUCache` instances
and the service :class:`ResultCache` with its trajectory reverse index.
The hammer runs a seeded mixed workload (gets, puts, evictions, scoped
invalidations) across threads and then checks the *exact* structural
invariants — not just "no exception":

- the LRU cache never exceeds capacity and its stats counters add up;
- the result cache's reverse index and entry map agree in both
  directions (every posting points at a live entry ranking that
  trajectory; every cached item is posted);
- the add-survival proof's bounded Dijkstra runs with the cache lock
  released, so concurrent hits never wait on it.
"""

from __future__ import annotations

import random
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

import repro.perf.result_cache as result_cache_module
from repro.core.query import UOTSQuery
from repro.core.results import ScoredTrajectory, SearchResult
from repro.index.database import TrajectoryDatabase
from repro.index.events import MutationEvent
from repro.network.generators import grid_network
from repro.perf.cache import LRUCache
from repro.perf.result_cache import ResultCache
from repro.trajectory.generator import generate_trips


def _check_result_cache_consistency(cache: ResultCache) -> None:
    """Exact index-vs-cache agreement, both directions."""
    entries = dict(cache._entries.items())
    # Forward: every reverse-index posting refers to a live entry that
    # actually ranks that trajectory.
    for trajectory_id, keys in cache._ranked_by.items():
        assert keys, f"empty posting set left behind for {trajectory_id}"
        for key in keys:
            assert key in entries, (
                f"reverse index points at evicted entry {key!r}"
            )
            ranked = {item.trajectory_id for item in entries[key].items}
            assert trajectory_id in ranked, (
                f"posting {trajectory_id} -> {key!r} but the entry does "
                f"not rank it"
            )
    # Backward: every cached item is posted in the reverse index.
    for key, entry in entries.items():
        for item in entry.items:
            postings = cache._ranked_by.get(item.trajectory_id, set())
            assert key in postings, (
                f"entry {key!r} ranks {item.trajectory_id} without a posting"
            )


def _result(trajectory_ids) -> SearchResult:
    items = [
        ScoredTrajectory(
            trajectory_id=tid,
            score=1.0 / (1 + tid),
            spatial_similarity=0.5,
            text_similarity=0.5,
        )
        for tid in trajectory_ids
    ]
    return SearchResult(items=items, exact=True)


def test_lru_cache_mixed_hammer_keeps_invariants():
    cache = LRUCache(capacity=64)
    threads, ops = 8, 2000
    errors: list[BaseException] = []
    barrier = threading.Barrier(threads)

    def work(seed: int) -> None:
        rng = random.Random(seed)
        try:
            barrier.wait()
            for _ in range(ops):
                key = rng.randrange(200)
                op = rng.random()
                if op < 0.5:
                    cache.get(key)
                elif op < 0.9:
                    cache.put(key, key * 2)
                elif op < 0.95:
                    cache.pop(key)
                else:
                    cache.invalidate_where(lambda k: k % 7 == key % 7)
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)

    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(work, range(threads)))
    assert not errors, f"cache op raised under concurrency: {errors[:3]}"
    assert len(cache) <= 64
    stats = cache.stats
    assert stats.hits + stats.misses <= threads * ops
    for key, value in cache.items():
        assert value == key * 2, "torn write: value does not match its key"


def test_result_cache_seeded_multithread_property(monkeypatch):
    """The acceptance hammer: seeded mixed put/get/invalidate workload,
    then an exact reverse-index-vs-entries consistency check.  Adds carry
    a database, so the add-survival proof (one bounded Dijkstra, then a
    per-entry bound) runs beside the concurrent gets and puts; every
    Dijkstra must run with the cache lock released."""
    graph = grid_network(6, 6, seed=3)
    database = TrajectoryDatabase(graph, generate_trips(graph, 20, seed=4))
    cache = ResultCache(capacity=32)
    lock_held: list[bool] = []
    sssp_array = result_cache_module.sssp_array

    def watched_sssp(*args, **kwargs):
        lock_held.append(cache._lock._is_owned())
        return sssp_array(*args, **kwargs)

    monkeypatch.setattr(result_cache_module, "sssp_array", watched_sssp)
    threads, ops = 8, 500
    errors: list[BaseException] = []
    barrier = threading.Barrier(threads)

    def work(seed: int) -> None:
        rng = random.Random(1000 + seed)
        try:
            barrier.wait()
            for i in range(ops):
                op = rng.random()
                number = rng.randrange(64)
                key = f"q{number}"
                if op < 0.45:
                    cache.get(key)
                elif op < 0.85:
                    ids = rng.sample(range(40), k=rng.randrange(1, 6))
                    query = UOTSQuery.create(
                        [number % 36, (number + 17) % 36], ["new"],
                        lam=(number % 5) / 4, k=len(ids),
                    )
                    cache.put(key, _result(ids), query=query)
                elif op < 0.95:
                    event = MutationEvent(
                        kind="remove",
                        trajectory_id=rng.randrange(40),
                        keywords=frozenset(),
                        vertices=np.array([], dtype=np.intp),
                    )
                    cache.on_event(event, database)
                else:
                    event = MutationEvent(
                        kind="add",
                        trajectory_id=100 + i,
                        keywords=frozenset({"new"}),
                        vertices=np.array(rng.sample(range(36), 2), dtype=np.intp),
                    )
                    cache.on_event(event, database)
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)

    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(work, range(threads)))
    assert not errors, f"result cache op raised under concurrency: {errors[:3]}"
    _check_result_cache_consistency(cache)
    assert lock_held and not any(lock_held), "the Dijkstra ran under the cache lock"
    assert cache.invalidation_entries_retained > 0  # the proof kept entries


def test_result_cache_concurrent_eviction_churn_stays_consistent():
    """Tiny capacity so nearly every put evicts: the evict-hook path
    (outer RLock -> inner LRU lock -> hook) must stay index-consistent."""
    cache = ResultCache(capacity=4)
    threads, ops = 6, 400
    errors: list[BaseException] = []

    def work(seed: int) -> None:
        rng = random.Random(seed)
        try:
            for _ in range(ops):
                key = f"q{rng.randrange(16)}"
                ids = rng.sample(range(12), k=3)
                cache.put(key, _result(ids))
                cache.get(f"q{rng.randrange(16)}")
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)

    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(work, range(threads)))
    assert not errors
    assert len(cache) <= 4
    _check_result_cache_consistency(cache)
