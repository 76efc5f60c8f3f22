"""Cross-query caches for the hot search path.

A serving workload asks many UOTS queries against one immutable network and
a slowly changing trajectory set.  Two classes of exact intermediate
results recur across queries and are cached here:

- **distance cache** — refinement distances ``d(o, tau)`` keyed on the
  ``(trajectory_id, location)`` pair.  A refinement Dijkstra prices every
  query location against one trajectory; queries that share locations (the
  common case for popular places) skip the traversal entirely on a full
  hit and shrink it to the missing locations on a partial hit.
- **text-score cache** — the keyword-postings evaluation in front of
  ``exact_text_scores``, keyed on ``(keyword set, measure)``.  Queries
  with the same preference text reuse the whole score table.

Both caches hold exact values only, so hits never change results — the
semantics-preserving invariant the benchmark asserts.  Mutating the
database (``add``/``remove``) dispatches a typed
:class:`~repro.index.events.MutationEvent` into :meth:`QueryCaches.on_event`,
which drops only the entries the mutation can reach: the mutated
trajectory's own distance rows, and text tables whose keyword set
intersects the trajectory's (score tables store only positive scores, so
a keyword-disjoint table can neither contain nor come to need the mutated
trajectory).  See :mod:`repro.perf.cache` for the fork-safety argument.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.perf.cache import CacheStats, LRUCache

if TYPE_CHECKING:  # pragma: no cover - import would cycle through repro.index
    from repro.index.events import MutationEvent

__all__ = ["QueryCaches", "DEFAULT_DISTANCE_CAPACITY", "DEFAULT_TEXT_CAPACITY"]

#: Default bound on cached (trajectory, location) distance pairs.
DEFAULT_DISTANCE_CAPACITY = 65536

#: Default bound on cached per-keyword-set text score tables.
DEFAULT_TEXT_CAPACITY = 512


class QueryCaches:
    """The cache block one :class:`~repro.index.database.TrajectoryDatabase` owns.

    ``capacity`` scales both member caches: ``None`` keeps the defaults,
    ``0`` disables caching entirely, any positive value bounds the distance
    cache directly.  The text cache gets a proportional share (at least 8)
    clamped to the distance bound — a tiny overall capacity must not hand
    the secondary cache a *larger* budget than the primary one.
    """

    __slots__ = ("distances", "text")

    def __init__(self, capacity: int | None = None):
        if capacity is None:
            distance_capacity = DEFAULT_DISTANCE_CAPACITY
            text_capacity = DEFAULT_TEXT_CAPACITY
        elif capacity <= 0:
            distance_capacity = 0
            text_capacity = 0
        else:
            distance_capacity = capacity
            text_capacity = min(distance_capacity, max(8, capacity // 128))
        self.distances = LRUCache(distance_capacity)
        self.text = LRUCache(text_capacity)

    @property
    def enabled(self) -> bool:
        """Whether any caching is in force."""
        return self.distances.enabled or self.text.enabled

    # ---------------------------------------------------------- invalidation
    def on_event(self, event: "MutationEvent") -> None:
        """Scoped invalidation for one typed mutation event.

        Distance entries are keyed ``(trajectory_id, location)``, so only
        the mutated trajectory's rows go.  Text tables are keyed
        ``(query keyword set, measure)`` and store only trajectories with a
        *positive* score; a table whose keyword set is disjoint from the
        mutated trajectory's neither contains it (removal) nor would gain
        it (add), so only intersecting tables are dropped.  A mutation with
        no keywords touches no text table at all.
        """
        trajectory_id = event.trajectory_id
        self.distances.invalidate_where(lambda key: key[0] == trajectory_id)
        if event.keywords:
            keywords = event.keywords
            self.text.invalidate_where(lambda key: bool(key[0] & keywords))

    def clear(self) -> None:
        """Drop all cached entries from both caches."""
        self.distances.clear()
        self.text.clear()

    # -------------------------------------------------------------- metrics
    def stats(self) -> dict[str, CacheStats]:
        """Current counters per cache, by name."""
        return {"distances": self.distances.stats, "text": self.text.stats}

    def __repr__(self) -> str:
        return f"QueryCaches(distances={self.distances!r}, text={self.text!r})"
