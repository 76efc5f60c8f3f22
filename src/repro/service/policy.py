"""Overload-protection policy: who gets a slot when the service is busy.

An :class:`AdmissionPolicy` is the declarative half of the serving layer's
overload protection — a frozen configuration record consumed by
:class:`~repro.service.admission.AdmissionController`.  It answers four
questions a saturated multi-tenant service must settle *before* running a
query:

- **How much may one tenant hold?**  Per-tenant in-flight quotas as
  weighted fair shares of ``max_inflight`` (``tenant_weights``).  Quotas
  bound the noisy tenant; they do not reserve idle slots (small tenants
  may overcommit while the service is quiet — the controller is
  work-conserving).
- **Who is shed first?**  Priority classes (:data:`PRIORITY_CLASSES`):
  each class has a utilization threshold above which its queries are shed,
  so ``best_effort`` traffic drains first, ``batch`` next, and
  ``interactive`` only at the hard cap.
- **How expensive may a query be right now?**  A cost ceiling over
  :attr:`~repro.core.plan.QueryPlan.estimated_cost` that *tightens with
  load* (:meth:`effective_max_cost`): at idle every planned query up to
  ``max_cost`` runs; past ``cost_pressure`` utilization the ceiling slides
  down toward ``max_cost * min_cost_fraction``, so cheap queries keep
  flowing while the expensive ones that caused the saturation are shed.
- **Reject or degrade?**  With ``degrade_headroom`` set, a query whose
  cost exceeds the current ceiling by at most that factor is *admitted
  degraded*: the controller attaches a tightened
  :class:`~repro.resilience.budget.SearchBudget` sized to the ceiling, so
  the caller gets an anytime (``exact=False``) answer with a usable
  ``confirmed_prefix()`` instead of an error.

Every field defaults to "off": the zero-argument ``AdmissionPolicy()`` is
an unbounded gate, and ``QueryService(admission=n)`` is shorthand for
``AdmissionPolicy(max_inflight=n)``.

This module stays import-light (stdlib + the budget dataclass only) — it
sits on the serving layer's cold path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

from repro.errors import QueryError
from repro.resilience.budget import SearchBudget

__all__ = [
    "AdmissionDecision",
    "AdmissionPolicy",
    "DEFAULT_PRIORITY_THRESHOLDS",
    "DEFAULT_TENANT",
    "PRIORITY_CLASSES",
]

#: The canonical priority classes, most to least protected.
PRIORITY_CLASSES = ("interactive", "batch", "best_effort")

#: Utilization (in-flight / ``max_inflight``) at which each class starts
#: being shed.  ``interactive`` is only refused by the hard cap itself;
#: ``batch`` yields the last 15% of slots to it; ``best_effort`` yields
#: the top 40%.  Override per policy via ``priority_thresholds``.
DEFAULT_PRIORITY_THRESHOLDS = MappingProxyType(
    {"interactive": 1.0, "batch": 0.85, "best_effort": 0.6}
)

#: The tenant lane anonymous queries account against.
DEFAULT_TENANT = "default"


@dataclass(frozen=True)
class AdmissionDecision:
    """The controller's verdict on one query, before execution.

    ``action`` is one of ``"admit"`` (run as asked), ``"degrade"`` (run
    under the attached tightened ``budget``, answer flagged inexact), or
    ``"shed"`` (refused; ``admitted`` is ``False``).  ``reason`` is a
    stable slug used as the metrics/trace label: every shed carries one
    (``inflight_cap`` / ``tenant_quota`` / ``priority_shed`` /
    ``cost_shed``), a degrade carries ``cost_degrade``, a plain admit
    ``""``.  ``detail`` is the human sentence carried into the result.
    An admitted decision must be handed back to :meth:`~repro.service.
    admission.AdmissionController.release` — it carries the tenant lane
    whose in-flight count the admission incremented.
    """

    admitted: bool
    action: str = "shed"
    reason: str = ""
    detail: str = ""
    budget: SearchBudget | None = None
    tenant: str | None = None
    priority: str | None = None

    @property
    def degraded(self) -> bool:
        """Whether this admission carries a policy-tightened budget."""
        return self.action == "degrade"


@dataclass(frozen=True)
class AdmissionPolicy:
    """Declarative overload-protection configuration (all features off by
    default — see the module docstring for the semantics of each knob).

    Attributes
    ----------
    max_inflight:
        Global in-flight cap (``None`` = unbounded).  Utilization-driven
        features (priority shedding, the sliding cost ceiling) need it.
    tenant_weights:
        Weighted fair shares of ``max_inflight``: tenant ``t`` may hold up
        to ``max(1, floor(max_inflight * w_t / sum(weights)))`` slots.
        Tenants absent from the mapping weigh ``1.0``.  Requires
        ``max_inflight``.
    priority_thresholds:
        Utilization above which each priority class is shed.  Defaults to
        :data:`DEFAULT_PRIORITY_THRESHOLDS`; queries submitted without a
        priority are never priority-shed.
    max_cost:
        Cost ceiling (in :attr:`~repro.core.plan.QueryPlan.estimated_cost`
        units) at idle (``None`` = no cost-based shedding).
    cost_pressure:
        Utilization at which the ceiling starts sliding down.
    min_cost_fraction:
        The ceiling's floor at full load, as a fraction of ``max_cost``.
    degrade_headroom:
        When set (``>= 1``), a query whose cost exceeds the current
        ceiling by at most this factor is admitted with a tightened
        budget instead of shed; ``None`` sheds every over-ceiling query.
        Scales ``max_cost``, so it requires ``max_cost``.
    """

    max_inflight: int | None = None
    tenant_weights: Mapping[str, float] = field(default_factory=dict)
    priority_thresholds: Mapping[str, float] = field(
        default_factory=lambda: DEFAULT_PRIORITY_THRESHOLDS
    )
    max_cost: float | None = None
    cost_pressure: float = 0.5
    min_cost_fraction: float = 0.1
    degrade_headroom: float | None = None

    def __post_init__(self):
        if self.max_inflight is not None and self.max_inflight < 1:
            raise QueryError(
                f"max_inflight must be >= 1, got {self.max_inflight}"
            )
        for tenant, weight in self.tenant_weights.items():
            if weight <= 0:
                raise QueryError(
                    f"tenant_weights[{tenant!r}] must be > 0, got {weight}"
                )
        if self.tenant_weights and self.max_inflight is None:
            raise QueryError(
                "tenant_weights are shares of max_inflight; set max_inflight"
            )
        for name, threshold in self.priority_thresholds.items():
            if not (0.0 <= threshold <= 1.0):
                raise QueryError(
                    f"priority_thresholds[{name!r}] must be in [0, 1], "
                    f"got {threshold}"
                )
        if self.max_cost is not None and self.max_cost <= 0:
            raise QueryError(f"max_cost must be > 0, got {self.max_cost}")
        if not (0.0 <= self.cost_pressure < 1.0):
            raise QueryError(
                f"cost_pressure must be in [0, 1), got {self.cost_pressure}"
            )
        if not (0.0 < self.min_cost_fraction <= 1.0):
            raise QueryError(
                f"min_cost_fraction must be in (0, 1], got "
                f"{self.min_cost_fraction}"
            )
        if self.degrade_headroom is not None:
            if self.degrade_headroom < 1.0:
                raise QueryError(
                    f"degrade_headroom must be >= 1, got {self.degrade_headroom}"
                )
            if self.max_cost is None:
                raise QueryError(
                    "degrade_headroom scales the max_cost ceiling; set max_cost"
                )

    # ------------------------------------------------------------ derivations
    def quota_for(self, tenant: str) -> int | None:
        """The tenant's in-flight quota, or ``None`` when unlimited.

        The weighted fair share of ``max_inflight``.  Shares floor at one
        slot so a configured tenant is never starved outright, and do not
        sum-reserve: an unlisted tenant weighs 1.0 against the
        *configured* total, which deliberately lets small tenants
        overcommit while the hog is bounded.
        """
        if not self.tenant_weights:
            return None
        weight = self.tenant_weights.get(tenant, 1.0)
        total = sum(self.tenant_weights.values())
        if tenant not in self.tenant_weights:
            total += weight
        return max(1, int(self.max_inflight * weight / total))

    def effective_max_cost(self, utilization: float) -> float | None:
        """The cost ceiling at the given utilization (``None`` = no limit).

        Flat at ``max_cost`` up to ``cost_pressure`` utilization, then a
        linear slide down to ``max_cost * min_cost_fraction`` at full
        load — the load-dependent threshold that keeps cheap queries
        flowing when the service is saturated by expensive ones.
        """
        if self.max_cost is None:
            return None
        if utilization <= self.cost_pressure:
            return self.max_cost
        span = 1.0 - self.cost_pressure
        pressure = min(1.0, (utilization - self.cost_pressure) / span)
        fraction = 1.0 - (1.0 - self.min_cost_fraction) * pressure
        return self.max_cost * fraction

    def priority_threshold(self, priority: str) -> float:
        """The shed threshold for a priority class (:class:`~repro.errors.
        QueryError` for a class the policy does not know)."""
        threshold = self.priority_thresholds.get(priority)
        if threshold is None:
            raise QueryError(
                f"unknown priority class {priority!r}; expected one of "
                f"{sorted(self.priority_thresholds)}"
            )
        return threshold

    @property
    def uses_cost(self) -> bool:
        """Whether admission wants ``QueryPlan.estimated_cost`` up front."""
        return self.max_cost is not None
