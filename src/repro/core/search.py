"""The collaborative spatial-textual expansion search (the UOTS algorithm).

The search explores the spatial and textual domains together:

1. the textual domain is resolved up front from the keyword inverted index
   (exact ``SimT`` for every trajectory sharing a keyword; zero elsewhere);
2. the spatial domain is explored by interleaved incremental expansions from
   the query locations, under a scheduling strategy;
3. similarity upper bounds over partly scanned and unseen trajectories
   (:mod:`repro.core.bounds`) drive the termination test: once the k-th best
   exact score dominates the global bound, everything not fully scanned is
   pruned wholesale.

``SpatialFirstSearcher`` is the ablation that refuses to use text during
search (text enters only at refinement), which demonstrates the value of the
textual collaboration; the round-robin scheduler option is the ablation for
the scheduling heuristic.

Plan/execute split
------------------
Searchers are *stateless*: they hold only the database handle and immutable
configuration.  Every piece of per-query mutable state — sources, scheduler
instance, bound tracker, top-k collector, budget meter, stats — lives in a
:class:`SearchContext` created inside :meth:`CollaborativeSearcher.execute`,
so one searcher instance is shareable across queries, callers, and threads.
The search itself is a loop over named pipeline stages operating on that
context::

    plan(query)          resolve decisions (scheduler, ALT, candidates)
    _resolve_text        exact SimT table from the inverted index
    per round:
      _begin_round       refresh radii weights, check the budget
      _terminate         the bound-vs-threshold termination test
      _refine_blocked    directly resolve candidates expansion can't prune
      _expand_round      one scheduled batch of incremental expansion
    _finalize            drain / degrade / wrap up stats

``search(query)`` remains the one-call convenience:
``execute(plan(query), budget)``.
"""

from __future__ import annotations

import math
import time
from typing import Callable

import numpy as np

from repro.core.bounds import BoundTracker
from repro.core.instrument import annotate_search_span, execute_span
from repro.core.plan import QueryPlan
from repro.core.query import UOTSQuery
from repro.core.results import ScoredTrajectory, SearchResult, SearchStats, TopK
from repro.core.scheduler import Scheduler, make_scheduler
from repro.core.similarity import (
    combine,
    spatial_similarity,
    trajectory_to_locations_distances,
)
from repro.core.sources import current_radii_weights, make_sources
from repro.errors import BudgetExceededError
from repro.index.database import TrajectoryDatabase
from repro.obs.trace import StageTimer, current_tracer
from repro.resilience.budget import SearchBudget
from repro.text.similarity import get_measure

__all__ = [
    "CollaborativeSearcher",
    "SpatialFirstSearcher",
    "SearchContext",
    "exact_text_scores",
]

_EPS = 1e-9
_MISS = object()


def exact_text_scores(
    database: TrajectoryDatabase, query: UOTSQuery
) -> dict[int, float]:
    """Exact textual similarity for every keyword-sharing trajectory.

    Cached across queries on ``(keyword set, measure)``: the score
    table only depends on the query text, not the locations, so
    repeated preference texts reuse it wholesale.
    """
    cache = database.caches.text
    key = (query.keywords, query.text_measure)
    cached = cache.get(key, _MISS)
    if cached is not _MISS:
        return dict(cached)
    index = database.keyword_index
    measure = get_measure(query.text_measure)
    scores = {}
    for trajectory_id in index.candidates(query.keywords):
        score = measure(query.keywords, index.keywords_of(trajectory_id))
        if score > 0.0:
            scores[trajectory_id] = score
    cache.put(key, dict(scores))
    return scores


class SearchContext:
    """All per-query mutable state of one search execution.

    Created by :meth:`CollaborativeSearcher.execute` and threaded through
    the pipeline stages; nothing in it outlives the query.  State-ownership
    rule: the searcher owns configuration and shared indexes (immutable
    during a search), the context owns everything that changes — so two
    concurrent executions on the same searcher never share mutable state
    (the database's cross-query caches are themselves safe to share).
    """

    __slots__ = (
        "query",
        "budget",
        "meter",
        "started",
        "stats",
        "scheduler",
        "sources",
        "tracker",
        "topk",
        "measure",
        "text_scores",
        "lam",
        "alpha",
        "frontier_caps",
        "radii_weights",
        "round_threshold",
        "round_best_id",
        "terminated_early",
        "degradation_reason",
        "caches",
        "distance_snapshot",
        "text_snapshot",
    )

    def __init__(self, query: UOTSQuery, budget: SearchBudget | None):
        self.query = query
        self.budget = budget
        self.meter = None if budget is None or budget.unlimited else budget.start()
        self.started = time.perf_counter()
        self.stats = SearchStats()
        self.lam = query.lam
        self.alpha = query.lam / query.num_locations
        self.scheduler: Scheduler | None = None
        self.sources = None
        self.tracker: BoundTracker | None = None
        self.topk: TopK | None = None
        self.measure = None
        self.text_scores: dict[int, float] = {}
        self.frontier_caps = None
        self.radii_weights = None
        self.round_threshold: float | None = None
        self.round_best_id: int | None = None
        self.terminated_early = False
        self.degradation_reason: str | None = None
        self.caches = None
        self.distance_snapshot = None
        self.text_snapshot = None


class CollaborativeSearcher:
    """Top-k UOTS search with spatial-textual pruning.

    Stateless and shareable: instances carry only the database handle and
    tuning configuration; per-query state lives in a :class:`SearchContext`
    created per :meth:`execute` call.

    Parameters
    ----------
    database:
        The indexed trajectory database to search.
    scheduler:
        ``"heuristic"`` (the paper's strategy, default), ``"round-robin"``
        (the w/o-h ablation), or a custom :class:`Scheduler` *instance*.
        Named schedulers are instantiated fresh per query; a custom
        instance is reused as-is (the caller owns its state).
    batch_size:
        Expansion steps granted to the selected source between scheduler and
        termination re-evaluations.
    """

    #: Registry-facing algorithm name reported in query plans.
    plan_name = "collaborative"

    #: Whether textual similarities participate in the search bounds.
    use_text_in_bounds: bool = True

    #: Whether blocked candidates are resolved by direct refinement (one
    #: distance-transform Dijkstra) instead of waiting for every expansion
    #: to reach them.  The spatial-first ablation turns this off.
    use_refinement: bool = True

    #: Whether landmark (ALT) lower bounds cap the frontier term of partly
    #: scanned trajectories.  Semantics-preserving: caps only tighten upper
    #: bounds, so the exact top-k is unchanged — the search just terminates
    #: earlier.  Ignored when the database has no landmark index
    #: (disconnected graph) or the query is text-only.
    use_alt: bool = True

    def __init__(
        self,
        database: TrajectoryDatabase,
        scheduler: str | Scheduler = "heuristic",
        batch_size: int = 16,
        refinement: bool | None = None,
        alt: bool | None = None,
    ):
        """``refinement=None``/``alt=None`` keep the class defaults (both
        on for the collaborative search, off for the spatial-first
        ablation)."""
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self._database = database
        self._scheduler_spec = scheduler
        self._batch_size = batch_size
        if refinement is not None:
            self.use_refinement = refinement
        if alt is not None:
            self.use_alt = alt

    # ----------------------------------------------------------------- API
    def warm(self) -> None:
        """Build now what the first query would build lazily (SciPy matrix,
        the interpreted kernels' list mirrors, the landmark table) — ahead
        of a fork, so workers share it instead of each building a copy."""
        csr = self._database.graph.csr
        csr.matrix()
        _ = csr.indptr_list
        if self.use_alt:
            _ = self._database.landmark_index

    def plan(self, query: UOTSQuery) -> QueryPlan:
        """Resolve the query's execution decisions without running it."""
        database = self._database
        query.validate_against(database.graph)
        spec = self._scheduler_spec
        notes: list[str] = []
        if isinstance(spec, str):
            scheduler_name = spec
        else:
            scheduler_name = type(spec).__name__
            notes.append("custom scheduler instance supplied by the caller")
        alt_enabled, alt_reason = self._resolve_alt(query)
        candidate_count = (
            len(database.keyword_index.candidates(query.keywords))
            if query.keywords
            else 0
        )
        if query.lam == 0.0:
            scheduler_name = "none"
            estimated_cost = float(candidate_count)
            notes.append("text-only fast path: the ranking is the text ranking")
        else:
            # Worst case: every source settles the whole graph, plus one
            # textual evaluation per keyword candidate.
            estimated_cost = float(
                candidate_count + query.num_locations * database.graph.num_vertices
            )
        return QueryPlan(
            algorithm=self.plan_name,
            query=query,
            scheduler=scheduler_name,
            batch_size=self._batch_size,
            use_text_in_bounds=self.use_text_in_bounds,
            use_refinement=self.use_refinement,
            alt_enabled=alt_enabled,
            alt_reason=alt_reason,
            text_measure=query.text_measure,
            source_vertices=query.locations,
            candidate_count=candidate_count,
            database_size=len(database),
            cache_enabled=database.caches.distances.enabled,
            estimated_cost=estimated_cost,
            notes=tuple(notes),
        )

    def execute(
        self, plan: QueryPlan, budget: SearchBudget | None = None
    ) -> SearchResult:
        """Run a previously built plan; exact top-k, or best-so-far under a
        budget.

        ``budget`` (or ``plan.query.budget`` when none is passed) caps the
        work: when it trips, the search stops at the next batch boundary
        and returns its current top-k flagged ``exact=False``, with the
        bound tracker's residual upper bound as the score error bar — the
        anytime behaviour a latency-bound service needs.  Strict budgets
        raise :class:`~repro.errors.BudgetExceededError` instead.
        """
        query: UOTSQuery = plan.query
        query.validate_against(self._database.graph)
        if budget is None:
            budget = query.budget
        with execute_span(self.plan_name) as span:
            timer = StageTimer() if span is not None else None
            result = self._run_stages(plan, query, budget, timer)
            result.stats.estimated_cost = plan.estimated_cost
            if span is not None:
                timer.attach_to(span)
                annotate_search_span(span, result)
            return result

    def _run_stages(
        self,
        plan: QueryPlan,
        query: UOTSQuery,
        budget: SearchBudget | None,
        timer: StageTimer | None = None,
    ) -> SearchResult:
        """The pipeline-stage loop, optionally metered by a stage timer.

        The untraced branch is the whole hot path when tracing is off (the
        default); the traced branch is the same loop with one clock read per
        stage transition, which is what makes the per-stage breakdown sum to
        the execute-span total by construction.
        """
        ctx = self._open_context(query, budget)
        if timer is not None:
            timer.enter("resolve_text")
        self._resolve_text(ctx)
        if query.lam == 0.0:
            if timer is not None:
                timer.enter("finalize")
            return self._finalize_text_only(ctx)
        if timer is not None:
            timer.enter("prepare_domain")
        self._prepare_domain(ctx, plan.alt_enabled)
        if timer is None:
            while True:
                self._begin_round(ctx)
                if ctx.degradation_reason is not None:
                    break
                if self._terminate(ctx):
                    break
                if self._refine_blocked(ctx):
                    continue
                if not self._expand_round(ctx):
                    break
        else:
            while True:
                timer.enter("begin_round")
                self._begin_round(ctx)
                if ctx.degradation_reason is not None:
                    break
                timer.enter("terminate")
                if self._terminate(ctx):
                    break
                timer.enter("refine_blocked")
                if self._refine_blocked(ctx):
                    continue
                timer.enter("expand_round")
                if not self._expand_round(ctx):
                    break
            timer.enter("finalize")
        return self._finalize(ctx)

    def search(
        self, query: UOTSQuery, budget: SearchBudget | None = None
    ) -> SearchResult:
        """Run the query end to end: ``execute(plan(query), budget)``."""
        tracer = current_tracer()
        if not tracer.enabled:
            return self.execute(self.plan(query), budget)
        with tracer.span("plan", algorithm=self.plan_name) as span:
            plan = self.plan(query)
            if span is not None:
                span.set("scheduler", plan.scheduler)
                span.set("candidates", plan.candidate_count)
                span.set("estimated_cost", plan.estimated_cost)
        return self.execute(plan, budget)

    # ------------------------------------------------------ pipeline stages
    def _open_context(
        self, query: UOTSQuery, budget: SearchBudget | None
    ) -> SearchContext:
        """Stage 0: the per-query state container plus cache snapshots."""
        ctx = SearchContext(query, budget)
        caches = self._database.caches
        ctx.caches = caches
        ctx.distance_snapshot = caches.distances.stats.snapshot()
        ctx.text_snapshot = caches.text.stats.snapshot()
        return ctx

    def _resolve_text(self, ctx: SearchContext) -> None:
        """Stage ``resolve_text``: the exact SimT table (or nothing, for the
        spatial-first ablation that defers text to refinement)."""
        if self.use_text_in_bounds or ctx.query.lam == 0.0:
            ctx.text_scores = exact_text_scores(self._database, ctx.query)
            ctx.stats.text_candidates = len(ctx.text_scores)
        else:
            ctx.text_scores = {}  # spatial-first defers all text evaluation

    def _prepare_domain(self, ctx: SearchContext, alt_enabled: bool) -> None:
        """Build the spatial-domain state: scheduler, tracker, sources."""
        query = ctx.query
        spec = self._scheduler_spec
        ctx.scheduler = make_scheduler(spec) if isinstance(spec, str) else spec
        ctx.frontier_caps = (
            self._make_frontier_caps(query, ctx.alpha, self._database.sigma)
            if alt_enabled
            else None
        )
        ctx.tracker = self._make_tracker(query, ctx.text_scores, ctx.frontier_caps)
        ctx.sources = make_sources(self._database.graph, query.locations)
        ctx.topk = TopK(query.k)
        ctx.measure = get_measure(query.text_measure)

    def _begin_round(self, ctx: SearchContext) -> None:
        """Refresh the frontier radii weights and check the budget.

        Budget checks live at batch boundaries: work counters are compared
        first, the deadline costs one perf_counter call.  A tripped strict
        budget raises; a plain budget records the degradation reason and
        the main loop stops at this round.
        """
        ctx.radii_weights = current_radii_weights(
            ctx.sources, self._database.sigma, ctx.alpha
        )
        meter = ctx.meter
        if meter is not None:
            reason = meter.exceeded(
                ctx.stats.expanded_vertices, ctx.stats.refinements
            )
            if reason is not None:
                if ctx.budget.strict:
                    raise BudgetExceededError(reason)
                ctx.degradation_reason = reason

    def _terminate(self, ctx: SearchContext) -> bool:
        """Stage ``terminate?``: the bound-vs-threshold termination test.

        Also stashes the round's threshold and loosest candidate for
        :meth:`_refine_blocked`, so the (heap-refining) bound computation
        runs once per round.
        """
        topk = ctx.topk
        if not topk.full:
            ctx.round_threshold = None
            ctx.round_best_id = None
            return False
        threshold = topk.threshold
        tracker = ctx.tracker
        radii_weights = ctx.radii_weights
        unseen = tracker.unseen_upper_bound(radii_weights)
        best_bound, best_id = tracker.best_active_bound(radii_weights)
        if max(unseen, best_bound) <= threshold + _EPS:
            if ctx.frontier_caps is not None:
                ctx.stats.alt_pruned = tracker.count_alt_pruned(
                    radii_weights, threshold
                )
            ctx.terminated_early = True
            return True
        ctx.round_threshold = threshold
        ctx.round_best_id = best_id
        return False

    def _refine_blocked(self, ctx: SearchContext) -> bool:
        """Stage ``refine_blocked``: directly resolve candidates that more
        expansion can never prune.  Returns whether one was refined (the
        round restarts to re-check budget and termination)."""
        if not self.use_refinement or ctx.round_threshold is None:
            return False
        tracker = ctx.tracker
        threshold = ctx.round_threshold
        best_id = ctx.round_best_id
        # A candidate whose irreducible bound (known + text) already beats
        # the threshold can never be pruned by more expansion — evaluate it
        # exactly instead.
        if (
            best_id is not None
            and tracker.irreducible_bound_of(best_id) > threshold + _EPS
        ):
            self._refine_one(ctx, best_id, tracker.text_score(best_id))
            return True
        text_score, text_id = tracker.best_unseen_text_candidate()
        if text_id is not None and (1.0 - ctx.lam) * text_score > threshold + _EPS:
            self._refine_one(ctx, text_id, text_score)
            return True
        return False

    def _expand_round(self, ctx: SearchContext) -> bool:
        """Stage ``expand_round``: one scheduled batch of expansion.

        Returns ``False`` when every component is fully settled (nothing
        left to expand)."""
        source = ctx.scheduler.select(ctx.sources, ctx.tracker, ctx.radii_weights)
        if source is None:
            return False
        stats = ctx.stats
        stats.expand_batches += 1
        steps = source.expand_steps(self._batch_size)
        if steps:
            stats.expanded_vertices += len(steps)
            source_index = source.index
            trajectories_at = self._database.vertex_index.trajectories_at
            record_hit = ctx.tracker.record_hit
            radii_weights = ctx.radii_weights
            finalize = self._finalize_completed
            alpha = ctx.alpha
            sigma = self._database.sigma
            exp = math.exp
            for vertex, distance in steps:
                hit_weight = alpha * exp(-distance / sigma)
                for trajectory_id in trajectories_at(vertex):
                    completed = record_hit(
                        trajectory_id, source_index, hit_weight, radii_weights
                    )
                    if completed is not None:
                        finalize(ctx, trajectory_id, *completed)
        if source.exhausted:
            for item in ctx.tracker.mark_source_exhausted(source.index):
                self._finalize_completed(ctx, *item)
        return True

    def _finalize(self, ctx: SearchContext) -> SearchResult:
        """Stage ``finalize``: degraded wrap-up or exhaustion drain, then
        the stats bookkeeping shared by both outcomes."""
        stats = ctx.stats
        if ctx.degradation_reason is not None:
            stats.degraded_queries = 1
            items = self._best_effort_items(ctx.query, ctx.tracker, ctx.topk)
            # The tracker bounds the partly scanned and the unseen; an
            # exactly scored trajectory left out of ``items`` (dropped by
            # the top-k, or displaced by a lower-bound entry) falls under
            # neither, so its exact score joins the residual.
            kept = {item.trajectory_id for item in items}
            residual = max(
                ctx.tracker.global_upper_bound(ctx.radii_weights),
                ctx.topk.best_dropped,
                *(item.score for item in ctx.topk.ranked()
                  if item.trajectory_id not in kept),
            )
            stats.visited_trajectories = ctx.tracker.num_seen
            stats.pruned_trajectories = (
                len(self._database) - stats.similarity_evaluations
            )
            self._capture_cache_stats(ctx)
            stats.elapsed_seconds = time.perf_counter() - ctx.started
            return SearchResult(
                items=items,
                stats=stats,
                exact=False,
                degradation_reason=ctx.degradation_reason,
                residual_bound=residual,
            )

        if not ctx.terminated_early:
            self._drain_at_exhaustion(ctx)

        stats.visited_trajectories = ctx.tracker.num_seen
        stats.pruned_trajectories = len(self._database) - stats.similarity_evaluations
        self._capture_cache_stats(ctx)
        stats.elapsed_seconds = time.perf_counter() - ctx.started
        return SearchResult(items=ctx.topk.ranked(), stats=stats)

    # ------------------------------------------------------------- helpers
    def _resolve_alt(self, query: UOTSQuery) -> tuple[bool, str]:
        """The query-time ALT decision and its reason (for the plan)."""
        if not self.use_alt:
            return False, "disabled by configuration"
        if query.lam == 0.0:
            return False, "text-only query (lam=0) performs no spatial expansion"
        if self._database.landmark_index is None:
            return False, "no landmark index (disconnected graph)"
        return True, "landmark lower bounds cap frontier terms of blocking candidates"

    def _capture_cache_stats(self, ctx: SearchContext) -> None:
        """Attribute this query's share of the shared cache traffic."""
        stats = ctx.stats
        d = ctx.caches.distances.stats.delta_since(ctx.distance_snapshot)
        t = ctx.caches.text.stats.delta_since(ctx.text_snapshot)
        stats.distance_cache_hits = d.hits
        stats.distance_cache_misses = d.misses
        stats.text_cache_hits = t.hits
        stats.text_cache_misses = t.misses

    def _finalize_exact(
        self, ctx: SearchContext, trajectory_id: int, spatial: float, text_hint: float
    ) -> None:
        """Offer one exactly scored trajectory to the top-k collector."""
        if self.use_text_in_bounds:
            text = text_hint
        else:  # spatial-first: text evaluated only now, at refinement
            text = ctx.measure(
                ctx.query.keywords, self._database.get(trajectory_id).keywords
            )
        ctx.stats.similarity_evaluations += 1
        ctx.topk.offer(
            ScoredTrajectory(
                trajectory_id=trajectory_id,
                score=combine(ctx.lam, spatial, text),
                spatial_similarity=spatial,
                text_similarity=text,
            )
        )

    def _finalize_completed(
        self, ctx: SearchContext, trajectory_id: int, weight_sum: float, text: float
    ) -> None:
        """Finalize a trajectory fully scanned by the expansions."""
        self._finalize_exact(ctx, trajectory_id, weight_sum / ctx.lam, text)

    def _refined_distances(self, ctx: SearchContext, trajectory_id: int) -> list[float]:
        """Exact per-location distances, via the cross-query cache.

        Full hits skip the Dijkstra entirely; partial hits shrink it to
        the missing locations.  ``stats.refinements`` counts only the
        traversals actually run, so budgets meter real work.
        """
        query = ctx.query
        distance_cache = ctx.caches.distances
        if not distance_cache.enabled:
            ctx.stats.refinements += 1
            return trajectory_to_locations_distances(
                self._database.graph,
                self._database.get(trajectory_id).vertex_set,
                query.locations,
            )
        resolved: dict[int, float] = {}
        missing: list[int] = []
        for location in query.locations:
            if location in resolved or location in missing:
                continue
            hit = distance_cache.get((trajectory_id, location), _MISS)
            if hit is _MISS:
                missing.append(location)
            else:
                resolved[location] = hit
        if missing:
            ctx.stats.refinements += 1
            computed = trajectory_to_locations_distances(
                self._database.graph,
                self._database.get(trajectory_id).vertex_set,
                tuple(missing),
            )
            for location, distance in zip(missing, computed):
                resolved[location] = distance
                distance_cache.put((trajectory_id, location), distance)
        return [resolved[location] for location in query.locations]

    def _refine_one(
        self, ctx: SearchContext, trajectory_id: int, text_hint: float
    ) -> None:
        """Resolve one blocked candidate exactly: a single multi-source
        Dijkstra from the candidate's vertices prices every query
        location at once (stopping as soon as all are settled)."""
        ctx.tracker.finish(trajectory_id)
        distances = self._refined_distances(ctx, trajectory_id)
        self._finalize_exact(
            ctx,
            trajectory_id,
            spatial_similarity(distances, ctx.query.num_locations, self._database.sigma),
            text_hint,
        )

    def _best_effort_items(
        self, query: UOTSQuery, tracker: BoundTracker, topk: TopK
    ) -> list[ScoredTrajectory]:
        """The degraded ranking: exact results merged with lower bounds.

        Finished trajectories keep their exact scores.  Partly scanned ones
        enter with a score *lower bound* (accumulated expansion weight plus
        the known text term — unknown sources contribute at least zero), and
        the best never-scanned keyword candidates enter on their textual
        term alone.  Items ranked by these estimates, best first, top-k.
        The spatial-first mode knows no exact text during the search, so its
        lower bounds use text 0.
        """
        lam = query.lam
        entries = {item.trajectory_id: item for item in topk.ranked()}
        for trajectory_id, known_weight, text in tracker.active_states():
            if trajectory_id in entries:
                continue
            text_lb = text if self.use_text_in_bounds else 0.0
            spatial_lb = known_weight / lam if lam > 0.0 else 0.0
            entries[trajectory_id] = ScoredTrajectory(
                trajectory_id=trajectory_id,
                score=combine(lam, spatial_lb, text_lb),
                spatial_similarity=spatial_lb,
                text_similarity=text_lb,
                exact=False,
            )
        for text, trajectory_id in tracker.unseen_text_candidates(query.k):
            if trajectory_id in entries:
                continue
            entries[trajectory_id] = ScoredTrajectory(
                trajectory_id=trajectory_id,
                score=combine(lam, 0.0, text),
                spatial_similarity=0.0,
                text_similarity=text,
                exact=False,
            )
        return sorted(entries.values())[: query.k]

    # -------------------------------------------------------------- pieces
    def _make_frontier_caps(
        self, query: UOTSQuery, alpha: float, sigma: float
    ) -> Callable[[int], list[float]] | None:
        """The ALT cap provider: per-source contribution ceilings.

        For source location ``o_i`` and trajectory ``tau``, the landmark
        table gives an admissible lower bound ``lb_i <= d(o_i, tau)``
        (triangle inequality, minimised over the trajectory's vertices), so
        ``alpha * exp(-lb_i / sigma)`` caps the source's contribution no
        matter how slowly its expansion radius grows.  ``None`` when the
        database has no landmark index (disconnected graph).
        """
        landmark_index = self._database.landmark_index
        if landmark_index is None:
            return None
        loc_array = np.array(query.locations, dtype=np.intp)
        vertex_array = self._database.vertex_array
        lower_bounds_to_set = landmark_index.lower_bounds_to_set

        def frontier_caps(trajectory_id: int) -> list[float]:
            bounds = lower_bounds_to_set(loc_array, vertex_array(trajectory_id))
            return (alpha * np.exp(-bounds / sigma)).tolist()

        return frontier_caps

    def _make_tracker(
        self,
        query: UOTSQuery,
        text_scores: dict[int, float],
        frontier_caps: Callable[[int], list[float]] | None = None,
    ) -> BoundTracker:
        return BoundTracker(
            num_sources=query.num_locations,
            text_weight=1.0 - query.lam,
            text_scores=text_scores,
            frontier_caps=frontier_caps,
        )

    def _finalize_text_only(self, ctx: SearchContext) -> SearchResult:
        """Fast path for ``lam == 0``: the ranking is the text ranking."""
        query = ctx.query
        stats = ctx.stats
        topk = TopK(query.k)
        for trajectory_id, text in ctx.text_scores.items():
            stats.similarity_evaluations += 1
            topk.offer(
                ScoredTrajectory(trajectory_id, text * (1.0 - query.lam), 0.0, text)
            )
        self._zero_fill(topk, stats, exclude=ctx.text_scores.keys())
        stats.visited_trajectories = len(ctx.text_scores)
        stats.pruned_trajectories = len(self._database) - stats.similarity_evaluations
        self._capture_cache_stats(ctx)
        stats.elapsed_seconds = time.perf_counter() - ctx.started
        return SearchResult(items=topk.ranked(), stats=stats)

    def _drain_at_exhaustion(self, ctx: SearchContext) -> None:
        """Every source is exhausted: all remaining scores are now exact.

        Partly scanned trajectories keep their accumulated spatial weight
        (missing sources are unreachable, contributing zero); spatially
        unseen trajectories have zero spatial similarity, so only those with
        positive text can score, plus zero-score filler if k exceeds the
        number of scoring trajectories.
        """
        for trajectory_id, known_weight, text in list(ctx.tracker.active_states()):
            self._finalize_completed(ctx, trajectory_id, known_weight, text)
        candidate_ids = (
            ctx.text_scores
            if self.use_text_in_bounds
            else self._database.keyword_index.candidates(ctx.query.keywords)
        )
        for trajectory_id in candidate_ids:
            if not ctx.tracker.is_seen(trajectory_id):
                self._finalize_completed(
                    ctx, trajectory_id, 0.0, ctx.text_scores.get(trajectory_id, 0.0)
                )
        if not ctx.topk.full:
            stats_probe = SearchStats()  # zero-fill shouldn't inflate counters
            self._zero_fill(
                ctx.topk,
                stats_probe,
                exclude={item.trajectory_id for item in ctx.topk.ranked()},
            )

    def _zero_fill(self, topk: TopK, stats: SearchStats, exclude) -> None:
        """Fill an underfull result with (deterministic) zero-score items."""
        if topk.full:
            return
        for trajectory_id in sorted(self._database.trajectories.ids()):
            if topk.full:
                break
            if trajectory_id in exclude:
                continue
            topk.offer(ScoredTrajectory(trajectory_id, 0.0, 0.0, 0.0))


class SpatialFirstSearcher(CollaborativeSearcher):
    """Expansion search without textual collaboration (baseline).

    Textual similarity is evaluated only when a trajectory is refined; the
    search bounds must therefore assume the maximal text score (1) for every
    unrefined trajectory whenever the query carries keywords, which weakens
    pruning exactly as the paper argues.  Direct refinement is disabled too:
    this ablation is the pure expansion strategy.
    """

    plan_name = "spatial-first"
    use_text_in_bounds = False
    use_refinement = False
    use_alt = False  # the ablation is the *pure* expansion strategy

    def __init__(
        self,
        database: TrajectoryDatabase,
        scheduler: str | Scheduler = "round-robin",
        batch_size: int = 16,
    ):
        super().__init__(database, scheduler, batch_size)

    def _make_tracker(
        self,
        query: UOTSQuery,
        text_scores: dict[int, float],
        frontier_caps: Callable[[int], list[float]] | None = None,
    ) -> BoundTracker:
        text_bound = 1.0 if query.keywords else 0.0
        return BoundTracker(
            num_sources=query.num_locations,
            text_weight=1.0 - query.lam,
            text_scores={},
            default_text=text_bound,
            unseen_text_override=text_bound,
            frontier_caps=frontier_caps,
        )
