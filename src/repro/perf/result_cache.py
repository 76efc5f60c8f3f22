"""Service-level result cache: hot repeated trips become O(1) lookups.

The UOTS serving workload is many travelers asking for trips over one
slowly-changing trajectory set — popular queries repeat.  The cross-query
caches (:mod:`repro.perf.query_cache`) memoise *intermediates* (refinement
distances, text score tables), so a repeated identical query still pays
the full collaborative search.  :class:`ResultCache` closes that gap at
the layer above: a canonical :func:`query_fingerprint` maps a completed
:class:`~repro.core.results.SearchResult` to the query that produced it,
and an identical repeat is answered from memory.

Correctness invariants (the semantics oracle in
``tests/service/test_result_cache_service.py`` enforces all three):

- **Exact-only.**  Only un-budgeted, error-free, ``exact=True`` results
  are stored (:meth:`ResultCache.cacheable`); budgeted or degraded runs
  bypass the cache entirely — both read and write — because a degraded
  answer is execution policy, not query semantics.
- **Scoped invalidation on mutation.**  Every ``database.add``/``remove``
  dispatches a typed :class:`~repro.index.events.MutationEvent` into
  :meth:`ResultCache.on_event`, which drops exactly the entries the
  mutation can affect:

  * a **removal** only changes results that *ranked* the removed
    trajectory (dropping a non-member cannot reorder or admit anyone),
    so a reverse index ``trajectory_id -> fingerprints that ranked it``
    names the doomed entries directly — zero-filled padding items count
    as ranked, keeping underfull-database results covered;
  * an **add** can only displace a cached top-k whose kth score the new
    trajectory could reach.  One Dijkstra per add, bounded at the scan's
    phase-1 radius ``r = PHASE1_RADIUS_SIGMAS * sigma`` and run from the
    newcomer's vertices before the lock is taken, gives ``d_o`` for every
    location any entry asks about: exact within ``r`` and ``inf`` beyond.
    The newcomer's score against a cached query is then at most
    ``(lam/|O|) * sum_o exp(-min(d_o, r)/sigma) + (1-lam) * SimT`` — the
    paper's bound-and-stop cap on unreached locations (PAPER.md §2.1),
    with SimT exact from the event's keywords through the measure's
    closed form (:func:`repro.text.similarity.get_count_form`).  The
    bound is the exact score up to ``lam * exp(-r/sigma)``.  An entry
    survives only if its kth score exceeds the bound by more than the
    library's tie tolerance: at an equal score the lower id wins, and the
    newcomer might have one.  The conservative path still drops the entry
    whenever the proof is unavailable: no stored query metadata, or an
    underfull or zero-padded top-k (``kth_score == 0``).  Without a
    database the spatial term falls back to the trivial ``lam`` cap.

  Constructing with ``scoped=False`` restores wholesale clear-on-anything
  (the A/B baseline the ingest benchmark measures against).
- **Copy-out.**  A hit returns a *fresh* :class:`SearchResult` (items are
  immutable frozen dataclasses and safely shared; the list and the stats
  block are new), marked ``stats.cache = "result"`` with zero work
  counters — the honest accounting for a query that did no search work.

Fork-safety follows the :mod:`repro.perf.cache` argument: entries hold
only exact immutable values under immutable keys, forked workers see a
copy-on-write snapshot and never write back, and the parent-side probe in
``QueryService.execute_many`` is the only reader on the fork path.

Thread-safety: gateway worker threads ``get``/``put`` concurrently while
ingest threads dispatch mutation events into :meth:`ResultCache.on_event`,
so every public operation runs under one instance-level re-entrant lock.
The inner :class:`~repro.perf.cache.LRUCache` is itself locked, but that
alone is not enough — ``put`` must link the reverse index atomically with
the entry insert, and ``on_event`` must see an index consistent with the
entries it scans; interleaving those compound sequences corrupts the
``trajectory_id -> fingerprints`` postings (stale keys that resurrect
dropped results, or missing keys that leak stale answers past a removal).
Lock order is always ResultCache -> LRUCache (the capacity-eviction hook
fires under both and only touches the index).
"""

from __future__ import annotations

import os
import threading
import weakref
from typing import TYPE_CHECKING, Hashable, Iterable, NamedTuple

import numpy as np

from repro.core.results import _EPS, SearchResult, SearchStats
from repro.network.csr import sssp_array
from repro.network.stats import PHASE1_RADIUS_SIGMAS
from repro.perf.cache import CacheStats, LRUCache
from repro.text.similarity import get_count_form

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.core.query import UOTSQuery
    from repro.index.database import TrajectoryDatabase
    from repro.index.events import MutationEvent
    from repro.resilience.budget import SearchBudget

__all__ = ["ResultCache", "query_fingerprint", "DEFAULT_RESULT_CAPACITY"]

#: Default bound on cached (query fingerprint -> result) entries.
DEFAULT_RESULT_CAPACITY = 1024

#: The ``SearchStats.cache`` marker stamped on served cache hits.
RESULT_CACHE_MARKER = "result"

#: Live result caches whose locks are re-armed in forked children (same
#: rationale as :data:`repro.perf.cache._LIVE_CACHES`: a fork taken while
#: a pool thread holds the lock would strand the child's copy locked).
_LIVE_RESULT_CACHES: weakref.WeakSet[ResultCache] = weakref.WeakSet()


def _rearm_locks_after_fork() -> None:  # pragma: no cover - exercised via fork
    for cache in list(_LIVE_RESULT_CACHES):
        cache._lock = threading.RLock()


if hasattr(os, "register_at_fork"):  # not on Windows (no fork there anyway)
    os.register_at_fork(after_in_child=_rearm_locks_after_fork)


def query_fingerprint(
    query: UOTSQuery,
    algorithm: str,
    tuning: Iterable[tuple[str, object]] = (),
) -> Hashable:
    """The canonical cache key of one query under one serving configuration.

    ``q.O`` is order-normalized (spatial similarity sums over the intended
    places, so ``(3, 7)`` and ``(7, 3)`` are the same trip request),
    ``q.T`` is already a frozenset, and ``lam``/``k``/``text_measure``
    complete the query identity.  ``algorithm`` plus the *resolved* tuning
    kwargs (sorted key/value pairs, pins applied — see
    :meth:`~repro.core.registry.AlgorithmSpec.resolve_tuning`) pin the
    serving configuration: two services tuned differently never alias,
    even over one shared cache.  The carried ``query.budget`` is execution
    policy and deliberately excluded — budgeted queries never reach the
    cache at all.
    """
    return (
        algorithm,
        tuple(sorted(tuning)),
        tuple(sorted(query.locations)),
        query.keywords,
        query.lam,
        query.k,
        query.text_measure,
    )


class _CachedEntry:
    """One cached result plus the query scope its survival proof needs.

    ``locations is None`` marks an entry stored without query metadata
    (legacy ``put`` callers): it still serves hits and still invalidates
    correctly on removal through the reverse index, but it carries no
    proof material, so any ``add`` drops it conservatively.
    """

    __slots__ = ("items", "locations", "keywords", "lam", "k", "text_measure")

    def __init__(
        self,
        items: tuple,
        locations: np.ndarray | None,
        keywords: frozenset[str],
        lam: float,
        k: int,
        text_measure: str,
    ):
        self.items = items
        self.locations = locations  # intp array of q.O, or None
        self.keywords = keywords
        self.lam = lam
        self.k = k
        self.text_measure = text_measure

    @property
    def kth_score(self) -> float:
        """The cached kth (worst ranked) score — the add-survival floor."""
        return self.items[-1].score if self.items else 0.0


class ResultCache:
    """A bounded (query fingerprint -> SearchResult) LRU cache.

    ``capacity=None`` keeps :data:`DEFAULT_RESULT_CAPACITY`; ``0`` (or any
    non-positive value) disables the cache — every :meth:`get` misses and
    every :meth:`put` is dropped, mirroring :class:`~repro.perf.cache.
    LRUCache` semantics so callers need no separate on/off branch.
    ``scoped=False`` disables per-entry invalidation: every mutation event
    clears the cache wholesale (the ingest benchmark's baseline arm).
    """

    __slots__ = (
        "_entries",
        "_ranked_by",
        "_scoped",
        "_lock",
        "invalidation_kinds",
        "invalidation_entries_dropped",
        "invalidation_entries_retained",
        "__weakref__",
    )

    def __init__(self, capacity: int | None = None, scoped: bool = True):
        if capacity is None:
            capacity = DEFAULT_RESULT_CAPACITY
        self._entries = LRUCache(capacity)
        self._entries.evict_hook = self._on_evict
        self._ranked_by: dict[int, set[Hashable]] = {}
        self._scoped = bool(scoped)
        # Re-entrant: put -> LRU eviction -> _on_evict -> _unlink re-enters
        # while the outer put still holds the lock.
        self._lock = threading.RLock()
        #: Mutation events seen, by kind (``add``/``remove``), and the
        #: entries they dropped and provably kept, summed per event.
        self.invalidation_kinds: dict[str, int] = {}
        self.invalidation_entries_dropped = 0
        self.invalidation_entries_retained = 0
        _LIVE_RESULT_CACHES.add(self)

    # ------------------------------------------------------------ accessors
    @property
    def capacity(self) -> int:
        """Maximum number of cached results (``<= 0`` means disabled)."""
        return self._entries.capacity

    @property
    def enabled(self) -> bool:
        """Whether the cache stores anything at all."""
        return self._entries.enabled

    @property
    def scoped(self) -> bool:
        """Whether mutation events invalidate per entry (vs wholesale)."""
        return self._scoped

    @property
    def stats(self) -> CacheStats:
        """Hit/miss/eviction counters (only eligible lookups are counted —
        budgeted queries bypass the cache and leave no trace here)."""
        return self._entries.stats

    @property
    def invalidation_events(self) -> int:
        """Mutation events seen, all kinds."""
        return sum(self.invalidation_kinds.values())

    # ------------------------------------------------------------- caching
    @staticmethod
    def cacheable(result: SearchResult, budget: SearchBudget | None = None) -> bool:
        """Whether a completed result may populate the cache.

        Only exact, error-free, undegraded answers from un-budgeted (or
        never-tripping unlimited-budget) runs qualify — the exact-only
        invariant that makes hits correctness-preserving.
        """
        if budget is not None and not budget.unlimited:
            return False
        return (
            result.error is None
            and result.exact
            and result.degradation_reason is None
        )

    def get(self, key: Hashable) -> SearchResult | None:
        """The cached answer as a fresh result object, or ``None``.

        Every hit constructs a new :class:`SearchResult` with a new items
        list and a zeroed :class:`SearchStats` marked ``cache="result"``:
        callers stamp wall time and executor labels onto results, and a
        shared mutable object would let one caller corrupt the next hit.
        """
        with self._lock:
            entry = self._entries.get(key)
        if entry is None:
            return None
        return SearchResult(
            items=list(entry.items),
            stats=SearchStats(cache=RESULT_CACHE_MARKER),
            exact=True,
        )

    def put(
        self,
        key: Hashable,
        result: SearchResult,
        budget: SearchBudget | None = None,
        query: UOTSQuery | None = None,
    ) -> bool:
        """Store a completed result if it is :meth:`cacheable`.

        Only the immutable item ranking is kept — stats are per-execution
        and rebuilt fresh on every hit.  Passing ``query`` stores the
        scope metadata (locations, keywords, lam, k, measure) that lets
        :meth:`on_event` prove the entry unaffected by later adds; without
        it the entry drops on any add.  Returns whether the entry was
        stored.
        """
        if not self.enabled or not self.cacheable(result, budget):
            return False
        if query is not None:
            locations = np.array(sorted(query.locations), dtype=np.intp)
            entry = _CachedEntry(
                items=tuple(result.items),
                locations=locations,
                keywords=query.keywords,
                lam=query.lam,
                k=query.k,
                text_measure=query.text_measure,
            )
        else:
            entry = _CachedEntry(
                items=tuple(result.items),
                locations=None,
                keywords=frozenset(),
                lam=0.0,
                k=len(result.items),
                text_measure="jaccard",
            )
        with self._lock:
            old = self._entries.peek(key)
            if old is not None:
                self._unlink(key, old)
            self._entries.put(key, entry)
            for item in entry.items:
                self._ranked_by.setdefault(item.trajectory_id, set()).add(key)
        return True

    # ---------------------------------------------------------- invalidation
    def on_event(
        self,
        event: MutationEvent,
        database: TrajectoryDatabase | None = None,
    ) -> tuple[int, int]:
        """Invalidate for one typed mutation event; ``(dropped, retained)``.

        ``database`` supplies the graph and ``sigma`` for the add-survival
        proof's one bounded Dijkstra, which runs before the lock is taken so
        concurrent hits never wait on it; without a database the spatial
        term falls back to the trivial ``lam`` cap (still correct, far less
        selective).  In wholesale mode (``scoped=False``) every event
        clears the cache.
        """
        reach = None
        if self._scoped and event.kind == "add" and database is not None:
            reach = _Reach.of(event, database)
        with self._lock:
            kinds = self.invalidation_kinds
            kinds[event.kind] = kinds.get(event.kind, 0) + 1
            size_before = len(self._entries)
            if not self._scoped:
                self.clear()
                dropped = size_before
            elif event.kind == "remove":
                dropped = self._on_remove(event.trajectory_id)
            else:
                dropped = self._on_add(event, reach)
            retained = len(self._entries)
            self.invalidation_entries_dropped += dropped
            self.invalidation_entries_retained += retained
            return dropped, retained

    def _on_remove(self, trajectory_id: int) -> int:
        """Drop exactly the entries that ranked the removed trajectory."""
        keys = self._ranked_by.pop(trajectory_id, None)
        if not keys:
            return 0
        dropped = 0
        for key in keys:
            entry = self._entries.pop(key)
            if entry is not None:
                dropped += 1
                self._unlink(key, entry, skip=trajectory_id)
        return dropped

    def _on_add(self, event: MutationEvent, reach: _Reach | None) -> int:
        """Drop entries the new trajectory could displace; keep the proven."""
        dropped = 0
        for key, entry in self._entries.items():
            if _survives_add(entry, event, reach):
                continue
            self._entries.pop(key)
            self._unlink(key, entry)
            dropped += 1
        return dropped

    def _unlink(self, key: Hashable, entry: _CachedEntry, skip: int = -1) -> None:
        """Remove ``key`` from every reverse-index posting of ``entry``."""
        for item in entry.items:
            trajectory_id = item.trajectory_id
            if trajectory_id == skip:
                continue
            keys = self._ranked_by.get(trajectory_id)
            if keys is not None:
                keys.discard(key)
                if not keys:
                    del self._ranked_by[trajectory_id]

    def _on_evict(self, key: Hashable, entry: _CachedEntry) -> None:
        """LRU capacity eviction hook: keep the reverse index consistent."""
        self._unlink(key, entry)

    def clear(self) -> None:
        """Drop all cached results (counters are kept — they are history)."""
        with self._lock:
            self._entries.clear()
            self._ranked_by.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def __repr__(self) -> str:
        return (
            f"ResultCache(size={len(self._entries)}/{self.capacity}, "
            f"scoped={self._scoped}, stats={self.stats!r})"
        )


class _Reach(NamedTuple):
    """The newcomer's distances from one bounded Dijkstra: ``row[v]`` is
    exact when at most ``radius`` and ``inf`` beyond."""

    row: np.ndarray
    radius: float
    sigma: float

    @classmethod
    def of(cls, event: MutationEvent, database: TrajectoryDatabase) -> _Reach | None:
        if not event.vertices.size:
            return None
        sigma = database.sigma
        radius = PHASE1_RADIUS_SIGMAS * sigma
        row = sssp_array(database.graph.csr, event.vertices, cutoff=radius)
        return cls(row, radius, sigma)


def _survives_add(
    entry: _CachedEntry, event: MutationEvent, reach: _Reach | None
) -> bool:
    """Whether the newcomer provably stays out of ``entry``'s top-k: its
    score bound (exact up to ``lam * exp(-r/sigma)``) sits below the kth
    score by more than the tie tolerance."""
    if entry.locations is None:
        return False  # no proof material stored
    if len(entry.items) < entry.k or entry.kth_score <= 0.0:
        return False  # underfull or zero-padded: anything can enter
    lam = entry.lam
    spatial_ub = lam  # trivial cap: exp(-d/sigma) <= 1 per location
    if reach is not None and lam > 0.0:
        distances = np.minimum(reach.row[entry.locations], reach.radius)
        spatial_ub = float(np.exp(-distances / reach.sigma).sum()) * (
            lam / entry.locations.size
        )
    form = get_count_form(entry.text_measure)
    text = form(
        len(entry.keywords & event.keywords), len(entry.keywords), len(event.keywords)
    )
    return entry.kth_score > spatial_ub + (1.0 - lam) * text + _EPS
