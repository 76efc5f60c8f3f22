"""Query planning: the resolved decisions of a search, before execution.

The plan/execute split separates *what the search will do* from *doing it*.
A :class:`QueryPlan` captures every decision a searcher resolves from the
query and the database — algorithm, scheduler, whether ALT bound tightening
applies (and why not, when it doesn't), the textual candidate set size from
the inverted index, cache configuration, and a rough cost estimate — as an
immutable, inspectable record.  Anything sitting above the searchers (the
serving layer, the CLI's ``repro explain``, future batch schedulers) can
look at a plan, compare plans across queries, or render one for a human,
all without running the search.

:class:`Searcher` is the protocol every registry algorithm conforms to:

- ``plan(query) -> QueryPlan`` — resolve decisions, touch no mutable state;
- ``execute(plan, budget) -> SearchResult`` — run a previously built plan;
- ``search(query, budget) -> SearchResult`` — the ``plan`` + ``execute``
  convenience every caller historically used.

Searchers are *stateless*: all per-query mutable state lives in an
execution context created inside ``execute`` (see
:class:`repro.core.search.SearchContext`), so one searcher instance is
shareable and reusable across queries and threads.

This module stays import-light (no numpy/scipy) — it is pulled in by the
serving layer's cold path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Protocol, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.core.query import UOTSQuery
    from repro.core.results import SearchResult
    from repro.resilience.budget import SearchBudget

__all__ = ["QueryPlan", "Searcher"]


@dataclass(frozen=True)
class QueryPlan:
    """The resolved decisions of one query, prior to execution.

    Attributes
    ----------
    algorithm:
        Registry name (or class-level name) of the searcher.
    query:
        The query object the plan was built for (a
        :class:`~repro.core.query.UOTSQuery` for the UOTS searchers, a
        :class:`~repro.matching.ptm.PTMQuery` for the directional engine).
    scheduler:
        Resolved scheduling strategy (``"heuristic"``, ``"round-robin"``,
        a custom scheduler's class name, or ``"none"`` for searchers that
        do not interleave source expansions).
    batch_size:
        Expansion steps granted between scheduler/termination checks
        (``0`` for searchers without incremental expansion).
    use_text_in_bounds / use_refinement:
        The collaborative-search levers (see
        :class:`~repro.core.search.CollaborativeSearcher`).
    alt_enabled / alt_reason:
        Whether landmark (ALT) bound tightening will run, and the reason
        for the decision either way — the query-time outcome of the
        configuration, the graph (no landmark table on disconnected
        graphs), and the query shape (text-only queries never expand).
    text_measure:
        Name of the textual similarity measure (``None`` when text plays
        no role).
    source_vertices:
        The spatial expansion sources (the query's intended places).
    candidate_count:
        Trajectories sharing at least one query keyword, from the
        inverted index — the textual candidate set the search starts from.
    database_size:
        ``|P|`` at planning time.
    cache_enabled:
        Whether the database's cross-query caches will serve this query.
    estimated_cost:
        Heuristic work ceiling in settle/evaluation units (worst-case
        expanded vertices plus textual evaluations).  Comparable across
        plans on the same database; not a latency prediction.
    notes:
        Free-form annotations (degraded modes, pinned settings, ...).
    """

    algorithm: str
    query: object
    scheduler: str
    batch_size: int
    use_text_in_bounds: bool
    use_refinement: bool
    alt_enabled: bool
    alt_reason: str
    text_measure: str | None
    source_vertices: tuple[int, ...]
    candidate_count: int
    database_size: int
    cache_enabled: bool
    estimated_cost: float
    notes: tuple[str, ...] = field(default=())

    def describe(self) -> str:
        """A human-readable rendering (the ``repro explain`` output)."""
        alt = "on" if self.alt_enabled else "off"
        lines = [
            f"QueryPlan[{self.algorithm}]",
            f"  query:        {self.query!r}",
            f"  scheduler:    {self.scheduler}"
            + (f" (batch={self.batch_size})" if self.batch_size else ""),
            f"  text bounds:  {'collaborative' if self.use_text_in_bounds else 'deferred to refinement'}",
            f"  refinement:   {'direct' if self.use_refinement else 'expansion-only'}",
            f"  alt:          {alt} — {self.alt_reason}",
            f"  text measure: {self.text_measure or '-'}",
            f"  sources:      {list(self.source_vertices)}",
            f"  candidates:   {self.candidate_count} keyword-sharing "
            f"of {self.database_size} trajectories",
            f"  caches:       {'enabled' if self.cache_enabled else 'disabled'}",
            f"  est. cost:    {self.estimated_cost:.0f} units "
            "(worst-case vertex settles + text evaluations)"
            + (
                f"; {self.candidate_count / self.estimated_cost:.3f} candidates/unit"
                if self.estimated_cost > 0
                else ""
            ),
        ]
        lines.extend(f"  note:         {note}" for note in self.notes)
        return "\n".join(lines)


@runtime_checkable
class Searcher(Protocol):
    """The contract every registered search algorithm satisfies.

    Implementations hold only immutable configuration plus shared indexes;
    per-query mutable state is created inside ``execute`` so instances are
    shareable, reusable, and safe to call concurrently.  A searcher may
    also offer ``warm()`` — build now what the first query would build
    lazily — which :class:`~repro.parallel.pool.SearchWorkerPool` calls
    before it forks.
    """

    def plan(self, query) -> QueryPlan:
        """Resolve the query's execution decisions without running it."""
        ...  # pragma: no cover - protocol

    def execute(
        self, plan: QueryPlan, budget: "SearchBudget | None" = None
    ) -> "SearchResult":
        """Run a previously built plan (optionally under a budget)."""
        ...  # pragma: no cover - protocol

    def search(self, query, budget: "SearchBudget | None" = None) -> "SearchResult":
        """``execute(plan(query), budget)`` — the one-call convenience."""
        ...  # pragma: no cover - protocol


def _baseline_plan(
    searcher,
    query: UOTSQuery,
    *,
    use_text_in_bounds: bool,
    use_refinement: bool,
    estimated_cost: float,
    notes: tuple[str, ...],
    candidate_count: int | None = None,
) -> QueryPlan:
    """The shared (trivial) plan of the baselines and ``scan``: no
    scheduling, no ALT.  ``candidate_count`` defaults to the keyword
    index's count."""
    database = searcher._database
    query.validate_against(database.graph)
    if candidate_count is None:
        candidate_count = (
            len(database.keyword_index.candidates(query.keywords)) if query.keywords else 0
        )
    return QueryPlan(
        algorithm=searcher.plan_name,
        query=query,
        scheduler="none",
        batch_size=0,
        use_text_in_bounds=use_text_in_bounds,
        use_refinement=use_refinement,
        alt_enabled=False,
        alt_reason="not applicable (no bound-driven expansion)",
        text_measure=query.text_measure,
        source_vertices=query.locations,
        candidate_count=candidate_count,
        database_size=len(database),
        cache_enabled=database.caches.distances.enabled,
        estimated_cost=estimated_cost,
        notes=notes,
    )
