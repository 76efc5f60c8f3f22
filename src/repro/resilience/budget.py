"""Search budgets: deadlines and work caps for anytime top-k search.

A :class:`SearchBudget` declares how much a caller is willing to spend on
one search; a :class:`BudgetMeter` is the running instance the searcher
consults at batch boundaries (``scan``: once, at its phase boundary).
When a budget trips, the search stops and returns its current top-k
flagged ``exact=False`` together with a residual upper bound — the
largest score any unevaluated trajectory could still achieve, i.e. an
error bar on the missed score (see DESIGN.md, "Resilience").
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.errors import QueryError

__all__ = ["SearchBudget", "BudgetMeter"]


@dataclass(frozen=True)
class SearchBudget:
    """Resource limits for one search; ``None`` fields are unlimited.

    Attributes
    ----------
    deadline_seconds:
        Wall-clock limit, measured from :meth:`start`.
    max_expanded_vertices:
        Cap on Dijkstra settle operations across all query sources.
    max_refinements:
        Cap on direct candidate refinements (each one is a multi-source
        Dijkstra, the most expensive single step the search takes).
    strict:
        When true, a tripped budget raises
        :class:`~repro.errors.BudgetExceededError` instead of degrading
        into a best-so-far answer.
    """

    deadline_seconds: float | None = None
    max_expanded_vertices: int | None = None
    max_refinements: int | None = None
    strict: bool = False

    def __post_init__(self):
        if self.deadline_seconds is not None and self.deadline_seconds < 0:
            raise QueryError(
                f"deadline_seconds must be >= 0, got {self.deadline_seconds}"
            )
        if self.max_expanded_vertices is not None and self.max_expanded_vertices < 0:
            raise QueryError(
                f"max_expanded_vertices must be >= 0, got {self.max_expanded_vertices}"
            )
        if self.max_refinements is not None and self.max_refinements < 0:
            raise QueryError(
                f"max_refinements must be >= 0, got {self.max_refinements}"
            )

    @classmethod
    def from_millis(
        cls,
        deadline_ms: float | None = None,
        max_expanded_vertices: int | None = None,
        max_refinements: int | None = None,
        strict: bool = False,
    ) -> "SearchBudget":
        """Convenience constructor for CLI-style millisecond deadlines."""
        return cls(
            deadline_seconds=None if deadline_ms is None else deadline_ms / 1000.0,
            max_expanded_vertices=max_expanded_vertices,
            max_refinements=max_refinements,
            strict=strict,
        )

    @property
    def unlimited(self) -> bool:
        """Whether this budget can never trip."""
        return (
            self.deadline_seconds is None
            and self.max_expanded_vertices is None
            and self.max_refinements is None
        )

    def start(self) -> "BudgetMeter":
        """Begin metering: the deadline clock starts now."""
        return BudgetMeter(self)


class BudgetMeter:
    """A running budget: cheap per-batch checks against a fixed deadline."""

    #: The deadline clock is consulted on the first check and every Nth
    #: after; the strides in between cost only integer compares.  At one
    #: check per expansion batch this bounds the deadline overshoot to a
    #: few dozen expansions — far below any usable deadline.
    _CLOCK_STRIDE = 8

    __slots__ = ("budget", "_deadline", "_checks")

    def __init__(self, budget: SearchBudget):
        self.budget = budget
        self._checks = 0
        self._deadline = (
            time.perf_counter() + budget.deadline_seconds
            if budget.deadline_seconds is not None
            else None
        )

    def exceeded(self, expanded_vertices: int = 0, refinements: int = 0) -> str | None:
        """The degradation reason if any limit is hit, else ``None``.

        Work counters are compared first (no syscall); the deadline check
        costs one ``perf_counter`` call every ``_CLOCK_STRIDE`` batches.
        """
        budget = self.budget
        if (
            budget.max_expanded_vertices is not None
            and expanded_vertices >= budget.max_expanded_vertices
        ):
            return (
                f"expansion budget exhausted "
                f"({expanded_vertices} >= {budget.max_expanded_vertices} vertices)"
            )
        if (
            budget.max_refinements is not None
            and refinements >= budget.max_refinements
        ):
            return (
                f"refinement budget exhausted "
                f"({refinements} >= {budget.max_refinements} refinements)"
            )
        if self._deadline is not None:
            checks = self._checks
            self._checks = checks + 1
            if checks % self._CLOCK_STRIDE == 0 and (
                time.perf_counter() >= self._deadline
            ):
                return (
                    f"deadline of {self.budget.deadline_seconds * 1000:.1f} "
                    f"ms reached"
                )
        return None

    def forbids(self, expanded_vertices: int, refinements: int) -> str | None:
        """The degradation reason if a step that would bring the work
        counters to these totals must not run, else ``None``.

        For a searcher that checks once before one step of known
        worst-case size: a total equal to its cap still fits, so the step
        never crosses a cap, and the clock is read on every call.
        """
        budget = self.budget
        cap = budget.max_expanded_vertices
        if cap is not None and expanded_vertices > cap:
            return (
                f"expansion budget exhausted "
                f"(would reach {expanded_vertices} > {cap} vertices)"
            )
        cap = budget.max_refinements
        if cap is not None and refinements > cap:
            return (
                f"refinement budget exhausted "
                f"(would reach {refinements} > {cap} refinements)"
            )
        if self._deadline is not None and time.perf_counter() >= self._deadline:
            return f"deadline of {budget.deadline_seconds * 1000:.1f} ms reached"
        return None
