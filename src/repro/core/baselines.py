"""Baseline searchers: brute force and text-first.

- :class:`BruteForceSearcher` scores every trajectory exactly (one full
  Dijkstra per query location, shared across trajectories).  It is the
  correctness oracle for every other algorithm and the "no pruning"
  reference point in the benchmarks.
- :class:`TextFirstSearcher` drives the search from the textual domain: it
  scans keyword candidates in descending textual similarity, refining each
  spatially, and stops when even a spatially perfect trajectory could not
  beat the current k-th result.  Strong when text dominates (small ``lam``),
  weak when space does — the mirror image of the spatial-first ablation.
"""

from __future__ import annotations

import time

from repro.core.instrument import annotate_search_span, execute_span
from repro.core.plan import QueryPlan, _baseline_plan
from repro.core.query import UOTSQuery
from repro.core.results import ScoredTrajectory, SearchResult, SearchStats, TopK
from repro.core.similarity import ExactScorer, combine, spatial_similarity
from repro.errors import BudgetExceededError
from repro.index.database import TrajectoryDatabase
from repro.network.expansion import IncrementalExpansion
from repro.resilience.budget import SearchBudget
from repro.text.similarity import get_measure

__all__ = ["BruteForceSearcher", "TextFirstSearcher"]

_INF = float("inf")

#: Both similarities live in [0, 1], so no combined score exceeds this.
#: The baselines keep no bound tracker; a degraded baseline result reports
#: this trivial residual bound (the collaborative search reports a tight one).
_TRIVIAL_RESIDUAL = 1.0


def _start_meter(query: UOTSQuery, budget: SearchBudget | None):
    """Resolve the effective budget (argument wins over ``query.budget``)."""
    if budget is None:
        budget = query.budget
    if budget is None or budget.unlimited:
        return None, None
    return budget, budget.start()


def _degraded(topk: TopK, stats: SearchStats, reason: str, started: float,
              budget: SearchBudget) -> SearchResult:
    if budget.strict:
        raise BudgetExceededError(reason)
    stats.degraded_queries = 1
    stats.elapsed_seconds = time.perf_counter() - started
    return SearchResult(
        items=topk.ranked(),
        stats=stats,
        exact=False,
        degradation_reason=reason,
        residual_bound=_TRIVIAL_RESIDUAL,
    )


class BruteForceSearcher:
    """Exact exhaustive scoring — the oracle all fast algorithms must match."""

    plan_name = "brute-force"

    def __init__(self, database: TrajectoryDatabase):
        self._database = database

    def plan(self, query: UOTSQuery) -> QueryPlan:
        """Resolve the (trivial) execution decisions without running."""
        database = self._database
        return _baseline_plan(
            self,
            query,
            use_text_in_bounds=False,
            use_refinement=False,
            estimated_cost=float(
                query.num_locations * database.graph.num_vertices + len(database)
            ),
            notes=("exhaustive: every trajectory is scored exactly",),
        )

    def execute(
        self, plan: QueryPlan, budget: SearchBudget | None = None
    ) -> SearchResult:
        """Run a previously built plan (trivial for brute force)."""
        result = self.search(plan.query, budget)
        result.stats.estimated_cost = plan.estimated_cost
        return result

    def search(
        self, query: UOTSQuery, budget: SearchBudget | None = None
    ) -> SearchResult:
        """Score every trajectory; return the exact top-k.

        A budget deadline is honoured between scoring calls (already-scored
        items form the degraded answer); the work caps do not apply — brute
        force performs no expansions or refinements.
        """
        with execute_span(self.plan_name) as span:
            result = self._search_impl(query, budget)
            annotate_search_span(span, result)
            return result

    def _search_impl(
        self, query: UOTSQuery, budget: SearchBudget | None
    ) -> SearchResult:
        started = time.perf_counter()
        budget, meter = _start_meter(query, budget)
        scorer = ExactScorer(self._database, query)
        topk = TopK(query.k)
        stats = SearchStats()
        count = 0
        for trajectory in self._database.trajectories:
            if meter is not None and count % 32 == 0:
                reason = meter.exceeded()
                if reason is not None:
                    stats.visited_trajectories = count
                    stats.similarity_evaluations = count
                    return _degraded(topk, stats, reason, started, budget)
            topk.offer(scorer.score_with_shared_distances(trajectory))
            count += 1
        stats = SearchStats(
            visited_trajectories=count,
            # One full Dijkstra per query location settles every vertex.
            expanded_vertices=query.num_locations * self._database.graph.num_vertices,
            similarity_evaluations=count,
            pruned_trajectories=0,
            elapsed_seconds=time.perf_counter() - started,
        )
        return SearchResult(items=topk.ranked(), stats=stats)


class TextFirstSearcher:
    """Text-domain-driven search with spatial refinement.

    Candidates arrive in descending textual similarity.  Each is refined
    with *shared* incremental expansions (one per query location, resumed
    across candidates, so spatial work is never repeated).  Scanning stops
    once ``lam * 1 + (1 - lam) * SimT(next candidate)`` cannot beat the
    k-th best score; the spatial factor must be bounded by the maximal 1
    because nothing is known spatially about unrefined candidates.  If even
    ``SimT = 0`` trajectories could still win (``lam`` close to 1 and weak
    text matches), the remaining trajectories are scored exhaustively — the
    documented degeneration of a text-first strategy.
    """

    plan_name = "text-first"

    def __init__(self, database: TrajectoryDatabase):
        self._database = database

    def plan(self, query: UOTSQuery) -> QueryPlan:
        """Resolve the (trivial) execution decisions without running."""
        database = self._database
        query.validate_against(database.graph)
        candidate_count = (
            len(database.keyword_index.candidates(query.keywords))
            if query.keywords
            else 0
        )
        notes = ["candidates scanned in descending textual similarity"]
        if query.lam > 0.0 and candidate_count == 0:
            notes.append("no keyword candidates: degenerates to exhaustive scoring")
        return _baseline_plan(
            self,
            query,
            use_text_in_bounds=True,
            use_refinement=True,
            # Worst case: every candidate refined via the shared expansions
            # (bounded by settling the whole graph per location), plus the
            # exhaustive fallback.
            estimated_cost=float(
                candidate_count + query.num_locations * database.graph.num_vertices
            ),
            notes=tuple(notes),
        )

    def execute(
        self, plan: QueryPlan, budget: SearchBudget | None = None
    ) -> SearchResult:
        """Run a previously built plan."""
        result = self.search(plan.query, budget)
        result.stats.estimated_cost = plan.estimated_cost
        return result

    def search(
        self, query: UOTSQuery, budget: SearchBudget | None = None
    ) -> SearchResult:
        """Run the text-first scan; returns the exact top-k.

        Budget deadlines and the expansion cap are honoured between
        candidate refinements (each refinement is the unit of work here).
        """
        with execute_span(self.plan_name) as span:
            result = self._search_impl(query, budget)
            annotate_search_span(span, result)
            return result

    def _search_impl(
        self, query: UOTSQuery, budget: SearchBudget | None
    ) -> SearchResult:
        database = self._database
        query.validate_against(database.graph)
        started = time.perf_counter()
        budget, meter = _start_meter(query, budget)
        stats = SearchStats()
        measure = get_measure(query.text_measure)
        keyword_index = database.keyword_index

        ranked_candidates = sorted(
            (
                (measure(query.keywords, keyword_index.keywords_of(tid)), tid)
                for tid in keyword_index.candidates(query.keywords)
            ),
            reverse=True,
        )
        stats.text_candidates = len(ranked_candidates)

        expansions = [
            IncrementalExpansion(database.graph, location)
            for location in query.locations
        ]
        sigma = database.sigma
        topk = TopK(query.k)
        refined: set[int] = set()

        def refine(trajectory_id: int, text: float) -> None:
            refined.add(trajectory_id)
            vertex_set = database.get(trajectory_id).vertex_set
            distances = [
                self._shared_nearest(expansion, vertex_set, stats)
                for expansion in expansions
            ]
            spatial = spatial_similarity(distances, query.num_locations, sigma)
            stats.similarity_evaluations += 1
            topk.offer(
                ScoredTrajectory(
                    trajectory_id=trajectory_id,
                    score=combine(query.lam, spatial, text),
                    spatial_similarity=spatial,
                    text_similarity=text,
                )
            )

        for text, trajectory_id in ranked_candidates:
            if topk.full and query.lam + (1.0 - query.lam) * text <= topk.threshold + 1e-12:
                break  # everything below is dominated
            if meter is not None:
                reason = meter.exceeded(stats.expanded_vertices, 0)
                if reason is not None:
                    stats.visited_trajectories = len(refined)
                    return _degraded(topk, stats, reason, started, budget)
            refine(trajectory_id, text)

        # Trajectories without keyword overlap have SimT = 0; they can still
        # win when lam is large.  Prune them wholesale if even a spatially
        # perfect one loses; otherwise fall back to exhaustive scoring.
        if not topk.full or query.lam > topk.threshold + 1e-12:
            scorer = ExactScorer(database, query)
            scanned = 0
            for trajectory in database.trajectories:
                if trajectory.id in refined:
                    continue
                if meter is not None and scanned % 32 == 0:
                    reason = meter.exceeded(stats.expanded_vertices, 0)
                    if reason is not None:
                        stats.visited_trajectories = len(refined) + scanned
                        return _degraded(topk, stats, reason, started, budget)
                scanned += 1
                stats.similarity_evaluations += 1
                topk.offer(scorer.score_with_shared_distances(trajectory))
            stats.visited_trajectories = len(database)
        else:
            stats.visited_trajectories = len(refined)
        stats.pruned_trajectories = len(database) - stats.similarity_evaluations
        stats.elapsed_seconds = time.perf_counter() - started
        return SearchResult(items=topk.ranked(), stats=stats)

    @staticmethod
    def _shared_nearest(
        expansion: IncrementalExpansion, vertex_set: frozenset[int], stats: SearchStats
    ) -> float:
        """Min distance from the expansion's source to the trajectory.

        If a trajectory vertex is already settled, the smallest settled
        distance is exact (Dijkstra order).  Otherwise the expansion resumes
        until it either settles a trajectory vertex or exhausts.
        """
        settled = expansion.settled_vertices()
        best = _INF
        for vertex in vertex_set:
            d = settled.get(vertex)
            if d is not None and d < best:
                best = d
        if best != _INF:
            return best
        while True:
            step = expansion.expand()
            if step is None:
                return _INF
            stats.expanded_vertices += 1
            vertex, distance = step
            if vertex in vertex_set:
                return distance
