"""Request/response schemas for the HTTP gateway (pydantic v2).

The wire contract mirrors the CLI flag-for-flag: everything
``repro query`` accepts (`locations`, free-text ``preference``, ``lam``,
``k``, ``text_measure``, deadline/work budgets, ``tenant``/``priority``)
round-trips through :class:`QueryRequest` into the same
:class:`~repro.core.query.UOTSQuery` / :class:`~repro.resilience.budget.
SearchBudget` the CLI builds, and a :class:`~repro.core.results.
SearchResult` comes back as the same fields ``repro query`` prints.

This is the only gateway module (besides :mod:`repro.gateway.app`, which
uses it) that imports pydantic, so the core and the service layer never
pay for it.

Validation strictness is split between the layers on purpose: pydantic
checks *shape* (types, required fields, bounds that need no domain
knowledge) and produces 422s; the domain model's own invariants
(duplicate locations, unknown text measure, lam range) keep living in
:class:`UOTSQuery` and surface as :class:`~repro.errors.QueryError` →
400.  Re-encoding domain rules here would drift.
"""

from __future__ import annotations

from pydantic import BaseModel, ConfigDict, Field, model_validator

from repro.core.query import UOTSQuery
from repro.core.results import SearchResult
from repro.resilience.budget import SearchBudget
from repro.service.policy import PRIORITY_CLASSES

__all__ = [
    "QueryRequest",
    "BatchQueryRequest",
    "ScoredItem",
    "ResultStats",
    "QueryResponse",
    "BatchQueryResponse",
    "ExplainRequest",
    "ExplainResponse",
    "ErrorResponse",
]


class _Strict(BaseModel):
    """Reject unknown fields: a typo'd tuning knob must 422, not no-op."""

    model_config = ConfigDict(extra="forbid")


def _check_priority(priority: str | None) -> None:
    """Reject unknown priority classes at the edge, like the CLI's
    ``choices=PRIORITY_CLASSES`` does — the overload policy would also
    reject them, but only when one is configured, and a typo'd priority
    silently treated as unlabelled traffic is a quota bypass."""
    if priority is not None and priority not in PRIORITY_CLASSES:
        raise ValueError(
            f"unknown priority class {priority!r}; expected one of "
            f"{list(PRIORITY_CLASSES)}"
        )


class QueryRequest(_Strict):
    """One UOTS query as the CLI would build it.

    ``preference`` is the free-text form (tokenised and stop-word
    filtered, like ``repro query --preference``); ``keywords`` is the
    pre-tokenised form.  Supplying both is a 422 — there is one keyword
    set per query and silently merging or preferring one would be a
    guessing game.
    """

    locations: list[int] = Field(min_length=1)
    preference: str = ""
    keywords: list[str] | None = None
    lam: float = 0.5
    k: int = Field(default=5, ge=1)
    text_measure: str = "jaccard"
    deadline_ms: float | None = Field(default=None, ge=0)
    max_expanded_vertices: int | None = Field(default=None, ge=0)
    max_refinements: int | None = Field(default=None, ge=0)
    tenant: str | None = None
    priority: str | None = None

    @model_validator(mode="after")
    def _one_keyword_form(self) -> "QueryRequest":
        if self.keywords is not None and self.preference:
            raise ValueError("pass either preference or keywords, not both")
        _check_priority(self.priority)
        return self

    def to_query(self) -> UOTSQuery:
        """The domain query (may raise ``QueryError`` → HTTP 400)."""
        preference = (
            self.keywords if self.keywords is not None else self.preference
        )
        return UOTSQuery.create(
            locations=self.locations,
            preference=preference,
            lam=self.lam,
            k=self.k,
            text_measure=self.text_measure,
        )

    def to_budget(self) -> SearchBudget | None:
        """The per-query budget, or ``None`` when unconstrained."""
        if (
            self.deadline_ms is None
            and self.max_expanded_vertices is None
            and self.max_refinements is None
        ):
            return None
        return SearchBudget.from_millis(
            deadline_ms=self.deadline_ms,
            max_expanded_vertices=self.max_expanded_vertices,
            max_refinements=self.max_refinements,
        )


class BatchQueryRequest(_Strict):
    """A batch for ``/query/batch`` → :meth:`QueryService.execute_many`."""

    queries: list[QueryRequest] = Field(min_length=1)
    tenant: str | None = None
    priority: str | None = None

    @model_validator(mode="after")
    def _known_priority(self) -> "BatchQueryRequest":
        _check_priority(self.priority)
        return self


class ScoredItem(_Strict):
    """One ranked trajectory, mirroring :class:`ScoredTrajectory`."""

    trajectory_id: int
    score: float
    spatial_similarity: float
    text_similarity: float
    exact: bool


class ResultStats(_Strict):
    """The work counters a serving client can act on.

    A deliberate subset of :class:`~repro.core.results.SearchStats`: the
    latency, the work done, which execution path served it, and the cache
    verdict — the internals (scheduler rounds, ALT prunes, shard timings)
    stay behind ``/metrics`` where they are aggregated, not per-response.
    """

    elapsed_seconds: float
    expanded_vertices: int
    visited_trajectories: int
    similarity_evaluations: int
    refinements: int
    estimated_cost: float
    executor: str
    cache: str


class QueryResponse(_Strict):
    """One answered query, mirroring :class:`SearchResult`."""

    items: list[ScoredItem]
    exact: bool
    degradation_reason: str | None
    residual_bound: float
    error: str | None
    stats: ResultStats

    @classmethod
    def from_result(cls, result: SearchResult) -> "QueryResponse":
        """One validation pass over the result's attributes, nested items
        and stats included; only the declared fields are read, so the
        :class:`SearchStats` internals stay off the wire."""
        return cls.model_validate(result, from_attributes=True)

    @property
    def rejected(self) -> bool:
        """Whether this is an admission rejection (HTTP 429)."""
        return self.error is not None and self.error.startswith("AdmissionError")


class BatchQueryResponse(_Strict):
    """The per-query answers of one batch, in request order."""

    results: list[QueryResponse]

    @classmethod
    def from_results(cls, results) -> "BatchQueryResponse":
        return cls(results=[QueryResponse.from_result(r) for r in results])


class ExplainRequest(_Strict):
    """A query to plan without executing (``/explain``)."""

    locations: list[int] = Field(min_length=1)
    preference: str = ""
    keywords: list[str] | None = None
    lam: float = 0.5
    k: int = Field(default=5, ge=1)
    text_measure: str = "jaccard"

    def to_query(self) -> UOTSQuery:
        return QueryRequest(
            locations=self.locations,
            preference=self.preference,
            keywords=self.keywords,
            lam=self.lam,
            k=self.k,
            text_measure=self.text_measure,
        ).to_query()


class ExplainResponse(_Strict):
    """The rendered plan, exactly the text ``repro explain`` prints."""

    explain: str


class ErrorResponse(_Strict):
    """The uniform error body for every non-2xx the gateway produces."""

    error: str
    detail: str = ""
