"""Directional spatio-temporal trajectory search.

Given a *query point sequence* (vertex, timestamp) pairs — a trajectory, in
the matching and join extensions — this engine computes, for data
trajectories ``tau``,

``V(q, tau) = lam   * (1/|q|) * sum_i exp(-d(q_i.p, tau) / sigma)
            + (1-lam) * (1/|q|) * sum_i exp(-d(q_i.t, tau) / sigma_t)``

the one-directional similarity the paper family builds both personalized
trajectory matching (top-k over ``V``) and the trajectory similarity join
(symmetric score ``V(t1, t2) + V(t2, t1)``, thresholded) upon.

The search is *filter-and-refine*:

- **filter** — each query point contributes a spatial incremental network
  expansion and a temporal expanding window; the generalized
  :class:`~repro.core.bounds.BoundTracker` maintains score upper bounds for
  partly scanned trajectories and a radii-based bound for unseen ones.
  Expansion only has to run until the *unseen* bound dies — no trajectory
  needs to be fully scanned by every source.
- **refine** — a surviving candidate's exact ``V`` is computed directly:
  one multi-source Dijkstra from the candidate's own vertices (its
  *distance transform*, cached across searches, so the join pays it at most
  once per trajectory) yields all spatial terms; binary search over its
  sorted timestamps yields the temporal terms.

Threshold mode (the join's phase 1) refines every candidate whose bound
reaches the limit; top-k mode (matching) interleaves expansion with
refinement of the loosest candidate, the threshold-algorithm pattern.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from repro.core.bounds import BoundTracker, SourceRadiiWeights
from repro.core.instrument import annotate_search_span, execute_span
from repro.core.plan import QueryPlan
from repro.core.results import ScoredTrajectory, SearchResult, SearchStats, TopK
from repro.core.similarity import distance_transform
from repro.errors import QueryError
from repro.index.database import TrajectoryDatabase
from repro.matching.temporal import TemporalExpansion, TimestampIndex, min_time_gap
from repro.network.expansion import IncrementalExpansion

__all__ = ["DirectionalSearchEngine", "CandidateSet"]

_INF = float("inf")
_EPS = 1e-9


class _SpatialSource:
    """One query point's network expansion, emitting weight contributions."""

    __slots__ = ("index", "alpha", "sigma", "_expansion", "_vertex_index")

    def __init__(self, index, vertex, database, alpha, sigma):
        self.index = index
        self.alpha = alpha
        self.sigma = sigma
        self._expansion = IncrementalExpansion(database.graph, vertex)
        self._vertex_index = database.vertex_index

    @property
    def exhausted(self) -> bool:
        return self._expansion.exhausted

    @property
    def radius_weight(self) -> float:
        # The network expansion's radius stays finite at exhaustion; the
        # exhausted flag is what zeroes the frontier contribution.
        if self._expansion.exhausted:
            return 0.0
        return self.alpha * math.exp(-self._expansion.radius / self.sigma)

    def step(self) -> list[tuple[int, float]] | None:
        """Scan one vertex; returns ``(trajectory_id, contribution)`` hits."""
        item = self._expansion.expand()
        if item is None:
            return None
        vertex, distance = item
        weight = self.alpha * math.exp(-distance / self.sigma)
        return [(tid, weight) for tid in self._vertex_index.trajectories_at(vertex)]


class _TemporalSource:
    """One query timestamp's expanding window, emitting weight contributions."""

    __slots__ = ("index", "alpha", "sigma", "_expansion")

    def __init__(self, index, timestamp, timestamp_index, alpha, sigma):
        self.index = index
        self.alpha = alpha
        self.sigma = sigma
        self._expansion = TemporalExpansion(timestamp_index, timestamp)

    @property
    def exhausted(self) -> bool:
        return self._expansion.exhausted

    @property
    def radius_weight(self) -> float:
        r = self._expansion.radius
        return 0.0 if r == _INF else self.alpha * math.exp(-r / self.sigma)

    def step(self) -> list[tuple[int, float]] | None:
        """Scan one sample point; returns a single-hit list."""
        item = self._expansion.expand()
        if item is None:
            return None
        trajectory_id, gap = item
        return [(trajectory_id, self.alpha * math.exp(-gap / self.sigma))]


@dataclass
class CandidateSet:
    """Result of a threshold-mode directional search.

    ``values`` maps trajectory id -> exact ``V(q, tau)`` for every candidate
    whose value reaches the admission limit.
    """

    values: dict[int, float] = field(default_factory=dict)
    stats: SearchStats = field(default_factory=SearchStats)

    def __contains__(self, trajectory_id: int) -> bool:
        return trajectory_id in self.values

    def __len__(self) -> int:
        return len(self.values)


class DirectionalSearchEngine:
    """Spatio-temporal filter-and-refine search over a trajectory database.

    Conforms to the :class:`~repro.core.plan.Searcher` protocol over
    :class:`~repro.matching.ptm.PTMQuery` queries (``plan`` / ``execute`` /
    ``search``); the lower-level ``threshold_search`` / ``topk_search``
    entry points remain for the join and the matcher.
    """

    #: Registry-facing algorithm name reported in query plans.
    plan_name = "directional"

    def __init__(
        self,
        database: TrajectoryDatabase,
        timestamp_index: TimestampIndex | None = None,
        sigma_t: float = 1800.0,
        batch_size: int = 32,
        max_cached_transforms: int = 4096,
    ):
        """``sigma_t`` is the temporal decay scale in seconds (30 minutes by
        default: trips half an hour apart still count as somewhat similar,
        trips half a day apart do not).  ``max_cached_transforms`` caps the
        distance-transform cache (FIFO eviction)."""
        if sigma_t <= 0:
            raise QueryError(f"sigma_t must be positive, got {sigma_t}")
        if batch_size < 1:
            raise QueryError(f"batch_size must be >= 1, got {batch_size}")
        if max_cached_transforms < 1:
            raise QueryError("max_cached_transforms must be >= 1")
        self._database = database
        self._timestamp_index = timestamp_index or TimestampIndex.build(
            database.trajectories
        )
        self._sigma_t = sigma_t
        self._batch_size = batch_size
        self._transforms: dict[int, dict[int, float]] = {}
        self._max_transforms = max_cached_transforms
        self.transforms_built = 0  # exposed for benchmark accounting

    @property
    def timestamp_index(self) -> TimestampIndex:
        """The shared sorted-timestamp index (built once per database)."""
        return self._timestamp_index

    # ---------------------------------------------------------- refinement
    def _transform(self, trajectory_id: int) -> dict[int, float]:
        """The candidate's distance transform (cached, FIFO-evicted)."""
        cached = self._transforms.get(trajectory_id)
        if cached is not None:
            return cached
        cached = distance_transform(
            self._database.graph, self._database.get(trajectory_id).vertex_set
        )
        if len(self._transforms) >= self._max_transforms:
            self._transforms.pop(next(iter(self._transforms)))
        self._transforms[trajectory_id] = cached
        self.transforms_built += 1
        return cached

    def exact_value(
        self, points: list[tuple[int, float]], lam: float, trajectory_id: int
    ) -> float:
        """Exact ``V(q, tau)`` for one candidate (the refinement step)."""
        transform = self._transform(trajectory_id)
        stamps = self._timestamp_index.trajectory_timestamps(trajectory_id)
        sigma = self._database.sigma
        sigma_t = self._sigma_t
        spatial = 0.0
        temporal = 0.0
        for vertex, timestamp in points:
            d = transform.get(vertex)
            if d is not None:
                spatial += math.exp(-d / sigma)
            gap = min_time_gap(timestamp, stamps)
            if gap != _INF:
                temporal += math.exp(-gap / sigma_t)
        return (lam * spatial + (1.0 - lam) * temporal) / len(points)

    # ----------------------------------------------------- Searcher protocol
    def plan(self, query) -> QueryPlan:
        """Resolve a :class:`~repro.matching.ptm.PTMQuery`'s decisions.

        Each query point contributes one spatial expansion *and* one
        temporal expanding-window source; domains with a zero weight
        (``lam`` at either extreme) are pruned before any expansion.
        """
        points = query.points
        if not points:
            raise QueryError("a directional search needs at least one query point")
        if not (0.0 <= query.lam <= 1.0):
            raise QueryError(f"lam must be in [0, 1], got {query.lam}")
        database = self._database
        notes = ["one temporal expanding-window source per query point"]
        if query.lam == 0.0:
            notes.append("lam=0: spatial domain pruned before expansion")
        elif query.lam == 1.0:
            notes.append("lam=1: temporal domain pruned before expansion")
        num_samples = len(self._timestamp_index)
        return QueryPlan(
            algorithm=self.plan_name,
            query=query,
            scheduler="round-robin",
            batch_size=self._batch_size,
            use_text_in_bounds=False,
            use_refinement=True,
            alt_enabled=False,
            alt_reason="not applicable (spatio-temporal bounds, no landmark table)",
            text_measure=None,
            source_vertices=tuple(vertex for vertex, __ in points),
            candidate_count=0,
            database_size=len(database),
            cache_enabled=self._max_transforms > 0,
            # Worst case: every spatial source settles the graph and every
            # temporal window scans all stored sample points.
            estimated_cost=float(
                len(points) * (database.graph.num_vertices + num_samples)
            ),
            notes=tuple(notes),
        )

    def execute(self, plan: QueryPlan, budget=None) -> SearchResult:
        """Run a previously built PTM plan (top-k mode).

        The directional engine has no anytime degradation path — its bounds
        span two domains with no residual accounting — so passing a real
        budget is an error rather than a silent ignore.
        """
        query = plan.query
        if budget is None:
            budget = getattr(query, "budget", None)
        if budget is not None and not budget.unlimited:
            raise QueryError(
                "the directional engine does not support search budgets; "
                "submit PTM queries without one"
            )
        exclude = query.trajectory.id if query.trajectory.id is not None else None
        with execute_span(self.plan_name) as span:
            result = self.topk_search(
                query.points, query.lam, query.k, exclude_id=exclude
            )
            annotate_search_span(span, result)
            return result

    def search(self, query, budget=None) -> SearchResult:
        """``execute(plan(query), budget)`` — the one-call convenience."""
        return self.execute(self.plan(query), budget)

    # -------------------------------------------------------------- search
    def threshold_search(
        self,
        points: list[tuple[int, float]],
        lam: float,
        limit: float,
        exclude_id: int | None = None,
    ) -> CandidateSet:
        """All trajectories with exact ``V >= limit`` (threshold mode).

        Used by the similarity join: per trajectory ``t1`` the candidate set
        is every ``t2`` with ``V(t1, t2) >= theta - 1`` (a pair needs both
        directions to reach that, since each directional ``V`` is at most
        1).  ``exclude_id`` skips the query trajectory itself in a self
        join.  A non-positive ``limit`` degrades to scoring everything.
        """
        started = time.perf_counter()
        candidates = CandidateSet()
        stats = candidates.stats
        sources, tracker, alive = self._setup(points, lam)

        def admit_exact(trajectory_id: int, value: float) -> None:
            """A trajectory fully scanned by expansion: value is exact."""
            if trajectory_id == exclude_id:
                return
            stats.similarity_evaluations += 1
            if value >= limit - _EPS:
                candidates.values[trajectory_id] = value

        # Filter: expand until no unseen trajectory can reach the limit.
        cursor = 0
        while alive:
            radii_weights = SourceRadiiWeights([s.radius_weight for s in sources])
            if tracker.unseen_upper_bound(radii_weights) < limit - _EPS:
                break
            source = alive[cursor % len(alive)]
            if not self._expand_batch(
                source, alive, tracker, radii_weights, stats, admit_exact
            ):
                continue  # source exhausted and removed; retry same cursor
            cursor += 1

        # Refine: exact V for every partly scanned trajectory still in reach.
        radii_weights = SourceRadiiWeights([s.radius_weight for s in sources])
        for trajectory_id, __, __t in list(tracker.active_states()):
            if trajectory_id == exclude_id:
                continue
            if tracker.upper_bound_of(trajectory_id, radii_weights) < limit - _EPS:
                continue
            value = self.exact_value(points, lam, trajectory_id)
            stats.similarity_evaluations += 1
            if value >= limit - _EPS:
                candidates.values[trajectory_id] = value

        # A non-positive limit admits even never-scanned trajectories; at
        # this point every live domain is exhausted, so their V is exactly 0
        # (unreachable in space, and a scanned-out temporal domain would
        # have seen them).
        if limit <= _EPS and not alive:
            for trajectory_id in self._database.trajectories.ids():
                if trajectory_id != exclude_id and not tracker.is_seen(trajectory_id):
                    stats.similarity_evaluations += 1
                    candidates.values[trajectory_id] = 0.0

        stats.visited_trajectories = tracker.num_seen
        stats.pruned_trajectories = len(self._database) - stats.similarity_evaluations
        stats.elapsed_seconds = time.perf_counter() - started
        return candidates

    def topk_search(
        self,
        points: list[tuple[int, float]],
        lam: float,
        k: int,
        exclude_id: int | None = None,
    ) -> SearchResult:
        """The ``k`` trajectories with the highest ``V`` (matching mode).

        Threshold-algorithm style: expand while the unseen bound dominates,
        refine the loosest partly scanned candidate while a candidate bound
        dominates, stop when the k-th exact score dominates both.
        """
        started = time.perf_counter()
        topk = TopK(k)
        stats = SearchStats()
        sources, tracker, alive = self._setup(points, lam)

        def offer_exact(trajectory_id: int, value: float) -> None:
            if trajectory_id == exclude_id:
                return
            stats.similarity_evaluations += 1
            topk.offer(ScoredTrajectory(trajectory_id, value, 0.0, 0.0))

        def refine(trajectory_id: int) -> None:
            tracker.finish(trajectory_id)
            if trajectory_id == exclude_id:
                return
            offer_exact(trajectory_id, self.exact_value(points, lam, trajectory_id))

        cursor = 0
        while True:
            radii_weights = SourceRadiiWeights([s.radius_weight for s in sources])
            unseen = tracker.unseen_upper_bound(radii_weights) if alive else 0.0
            best_bound, best_id = tracker.best_active_bound(radii_weights)
            if topk.full and max(unseen, best_bound) <= topk.threshold + _EPS:
                break
            if best_id is not None and (best_bound >= unseen or not alive):
                refine(best_id)
                continue
            if not alive:
                break  # domains exhausted and nothing left to refine
            source = alive[cursor % len(alive)]
            if not self._expand_batch(
                source, alive, tracker, radii_weights, stats, offer_exact
            ):
                continue
            cursor += 1

        if not topk.full and not alive:
            # Every live domain is exhausted: never-scanned trajectories are
            # unreachable everywhere, so their V is exactly 0.  Fill in
            # deterministic (ascending-id) order.
            for trajectory_id in sorted(self._database.trajectories.ids()):
                if topk.full:
                    break
                if trajectory_id != exclude_id and not tracker.is_seen(trajectory_id):
                    offer_exact(trajectory_id, 0.0)

        stats.visited_trajectories = tracker.num_seen
        stats.pruned_trajectories = len(self._database) - stats.similarity_evaluations
        stats.elapsed_seconds = time.perf_counter() - started
        return SearchResult(items=topk.ranked(), stats=stats)

    # ---------------------------------------------------------------- core
    def _setup(self, points, lam):
        sources = self._make_sources(points, lam)
        tracker = BoundTracker(
            num_sources=len(sources), text_weight=0.0, text_scores={}
        )
        # Degenerate lam values zero out a whole domain: those sources can
        # never contribute, so treat them as exhausted immediately instead
        # of scanning their domain for nothing.
        alive = []
        for source in sources:
            if source.alpha == 0.0:
                tracker.mark_source_exhausted(source.index)
            else:
                alive.append(source)
        return sources, tracker, alive

    def _make_sources(self, points: list[tuple[int, float]], lam: float) -> list:
        if not points:
            raise QueryError("a directional search needs at least one query point")
        if not (0.0 <= lam <= 1.0):
            raise QueryError(f"lam must be in [0, 1], got {lam}")
        m = len(points)
        spatial_alpha = lam / m
        temporal_alpha = (1.0 - lam) / m
        sources: list = []
        database = self._database
        for vertex, __ in points:
            database.graph._check_vertex(vertex)
            sources.append(
                _SpatialSource(
                    len(sources), vertex, database, spatial_alpha, database.sigma
                )
            )
        for __, timestamp in points:
            sources.append(
                _TemporalSource(
                    len(sources),
                    timestamp,
                    self._timestamp_index,
                    temporal_alpha,
                    self._sigma_t,
                )
            )
        return sources

    def _expand_batch(
        self, source, alive, tracker, radii_weights, stats, on_complete
    ) -> bool:
        """Expand one source for a batch; returns False if it exhausted.

        ``on_complete(trajectory_id, exact_value)`` fires for trajectories
        the expansion itself fully scans — their exact ``V`` is the
        accumulated weight sum, no refinement needed.
        """
        record_hit = tracker.record_hit
        source_index = source.index
        for __ in range(self._batch_size):
            hits = source.step()
            if hits is None:
                alive.remove(source)
                for tid, value, __t in tracker.mark_source_exhausted(source_index):
                    on_complete(tid, value)
                return False
            stats.expanded_vertices += 1
            for trajectory_id, weight in hits:
                completed = record_hit(
                    trajectory_id, source_index, weight, radii_weights
                )
                if completed is not None:
                    on_complete(trajectory_id, completed[0])
        return True
