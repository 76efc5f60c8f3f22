"""Result and statistics types shared by all searchers."""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

__all__ = ["ScoredTrajectory", "SearchStats", "SearchResult", "TopK"]

_EPS = 1e-9


@dataclass(frozen=True, slots=True)
class ScoredTrajectory:
    """One recommended trajectory with its similarity decomposition.

    ``exact=False`` marks a best-effort item from a degraded (budgeted)
    search whose score is a *lower bound* — the trajectory was only partly
    scanned when the budget tripped.
    """

    trajectory_id: int
    score: float
    spatial_similarity: float
    text_similarity: float
    exact: bool = True

    def __lt__(self, other: "ScoredTrajectory") -> bool:
        # Higher score first; ties broken by lower id for determinism.
        if self.score != other.score:
            return self.score > other.score
        return self.trajectory_id < other.trajectory_id


@dataclass
class SearchStats:
    """Work counters, the paper's efficiency metrics plus resilience counters.

    ``visited_trajectories`` counts distinct trajectories whose similarity
    state was materialised during the search (the paper's "number of visited
    trajectories", a proxy for data accesses); ``expanded_vertices`` counts
    Dijkstra settle operations across all query sources;
    ``similarity_evaluations`` counts exact spatiotemporal/spatial-textual
    scoring calls; ``pruned_trajectories`` counts trajectories eliminated by
    bounds without exact evaluation.

    The resilience counters: ``refinements`` counts direct candidate
    refinements (each a multi-source Dijkstra, metered by search budgets);
    ``retries`` counts task re-submissions after worker crashes;
    ``degraded_queries``/``failed_queries`` count budget degradations and
    isolated per-query failures in a batch; ``executor`` records which
    execution path actually ran (``"sequential"``, ``"fork"``, or
    ``"sequential-fallback"`` after persistent pool failure).

    The performance counters: ``expand_batches`` counts scheduler rounds
    (each one batched ``expand_steps`` call into the Dijkstra kernel);
    ``alt_pruned`` counts active trajectories whose landmark-capped upper
    bound sat at or below the admission threshold when the search
    terminated while the pure radius bound still exceeded it — the states
    ALT retired early; the ``*_cache_*`` fields are this query's share of
    the cross-query distance/text cache traffic.

    ``cache`` records whether the answer was served from a cache instead
    of a search: ``"result"`` marks a service-level result-cache hit
    (zero work counters, O(1) serve), ``""`` an actually executed query —
    dashboards and the semantics oracle distinguish the two paths by it.

    The sharding counters: ``shards_planned`` counts shards the sharded
    planner considered, ``shards_executed`` the shards actually searched,
    ``shards_pruned`` the shards skipped because their best-possible upper
    bound fell below the running global kth score.  ``shard_seconds`` sums
    per-shard scan wall time; ``shard_critical_seconds`` is the shard
    phase's critical path, which equals ``shard_seconds`` now that the
    shards of one query run one after another in process (the field stays
    for its readers).  Flat searches leave all five at zero.
    """

    visited_trajectories: int = 0
    expanded_vertices: int = 0
    similarity_evaluations: int = 0
    pruned_trajectories: int = 0
    text_candidates: int = 0
    elapsed_seconds: float = 0.0
    refinements: int = 0
    retries: int = 0
    degraded_queries: int = 0
    failed_queries: int = 0
    executor: str = ""
    expand_batches: int = 0
    alt_pruned: int = 0
    distance_cache_hits: int = 0
    distance_cache_misses: int = 0
    text_cache_hits: int = 0
    text_cache_misses: int = 0
    cache: str = ""
    shards_planned: int = 0
    shards_executed: int = 0
    shards_pruned: int = 0
    shard_seconds: float = 0.0
    shard_critical_seconds: float = 0.0
    #: The served plan's ``estimated_cost`` (worst-case vertex settles +
    #: text evaluations), stamped by the searcher that executed the plan;
    #: 0.0 when the query ran without one (plan-less baseline ``search``
    #: calls, cache hits).  The drift accounting compares it against the
    #: measured ``expanded_vertices + similarity_evaluations``.
    estimated_cost: float = 0.0

    def merge(self, other: "SearchStats") -> None:
        """Accumulate another stats record into this one (for batch runs)."""
        self.visited_trajectories += other.visited_trajectories
        self.expanded_vertices += other.expanded_vertices
        self.similarity_evaluations += other.similarity_evaluations
        self.pruned_trajectories += other.pruned_trajectories
        self.text_candidates += other.text_candidates
        self.elapsed_seconds += other.elapsed_seconds
        self.refinements += other.refinements
        self.retries += other.retries
        self.degraded_queries += other.degraded_queries
        self.failed_queries += other.failed_queries
        if not self.executor:
            self.executor = other.executor
        self.expand_batches += other.expand_batches
        self.alt_pruned += other.alt_pruned
        self.distance_cache_hits += other.distance_cache_hits
        self.distance_cache_misses += other.distance_cache_misses
        self.text_cache_hits += other.text_cache_hits
        self.text_cache_misses += other.text_cache_misses
        if not self.cache:
            self.cache = other.cache
        self.shards_planned += other.shards_planned
        self.shards_executed += other.shards_executed
        self.shards_pruned += other.shards_pruned
        self.shard_seconds += other.shard_seconds
        self.shard_critical_seconds += other.shard_critical_seconds
        self.estimated_cost += other.estimated_cost


@dataclass
class SearchResult:
    """Ranked output of one search plus its work counters.

    A budgeted search that runs out of budget returns ``exact=False`` with
    a ``degradation_reason`` and the bound tracker's ``residual_bound``:
    no trajectory missing from ``items`` (and no ``exact=False`` item's
    true score) can exceed ``residual_bound`` — the score error bar of the
    degraded answer.  A query isolated as failed inside a batch carries the
    one-line failure in ``error`` with empty ``items``.
    """

    items: list[ScoredTrajectory]
    stats: SearchStats = field(default_factory=SearchStats)
    exact: bool = True
    degradation_reason: str | None = None
    residual_bound: float = 0.0
    error: str | None = None

    @property
    def ids(self) -> list[int]:
        """Result trajectory ids, best first."""
        return [item.trajectory_id for item in self.items]

    @property
    def scores(self) -> list[float]:
        """Result scores, best first."""
        return [item.score for item in self.items]

    @property
    def ok(self) -> bool:
        """Whether the search produced a (possibly degraded) answer."""
        return self.error is None

    def best(self) -> ScoredTrajectory | None:
        """The top-ranked item, or ``None`` for an empty result."""
        return self.items[0] if self.items else None

    def confirmed_prefix(self) -> list[ScoredTrajectory]:
        """The leading items guaranteed to match the exact top-k ranking.

        For an exact result this is all of ``items``.  For a degraded
        result it is the maximal prefix of exactly scored items whose
        scores strictly dominate ``residual_bound``: every trajectory the
        budget cut off is bounded by ``residual_bound``, so nothing missed
        can outrank (or reorder) these items.
        """
        if self.exact:
            return list(self.items)
        prefix = []
        for item in self.items:
            if item.exact and item.score > self.residual_bound + _EPS:
                prefix.append(item)
            else:
                break
        return prefix

    def __len__(self) -> int:
        return len(self.items)


class TopK:
    """A bounded max-result collector with a monotone admission threshold.

    Keeps the ``k`` best :class:`ScoredTrajectory` items seen so far.  Ties
    at the admission boundary are broken toward lower trajectory ids so that
    every correct algorithm returns an identical ranking.
    """

    def __init__(self, k: int):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self._k = k
        # Min-heap on (score, -id): the worst kept item sits at heap[0].
        self._heap: list[tuple[float, int, ScoredTrajectory]] = []
        #: Best score among items offered but not kept (rejected or
        #: evicted); a degraded answer's residual bound must cover them.
        self.best_dropped = float("-inf")

    def offer(self, item: ScoredTrajectory) -> bool:
        """Consider an item; returns whether it was admitted."""
        entry = (item.score, -item.trajectory_id, item)
        if len(self._heap) < self._k:
            heapq.heappush(self._heap, entry)
            return True
        if entry > self._heap[0]:
            evicted = heapq.heapreplace(self._heap, entry)
            self.best_dropped = max(self.best_dropped, evicted[0])
            return True
        self.best_dropped = max(self.best_dropped, item.score)
        return False

    @property
    def full(self) -> bool:
        """Whether ``k`` items have been collected."""
        return len(self._heap) >= self._k

    @property
    def threshold(self) -> float:
        """Score of the current k-th best item (``-inf`` until full).

        A candidate whose upper bound is below (or ties, losing on id) this
        threshold can never enter the result.
        """
        if not self.full:
            return float("-inf")
        return self._heap[0][0]

    def ranked(self) -> list[ScoredTrajectory]:
        """The kept items, best first."""
        return sorted((entry[2] for entry in self._heap))

    def __len__(self) -> int:
        return len(self._heap)
