"""Admission control: the overload-protection seam of the serving layer.

A production front-end protects itself by *rejecting* excess load instead
of queueing it without bound.  :class:`AdmissionController` is that gate,
configured by one :class:`~repro.service.policy.AdmissionPolicy`: a global
in-flight cap, per-tenant weighted fair shares, priority classes shed
lowest first under pressure, and a load-dependent cost ceiling over
planned ``estimated_cost`` (with optional graceful degradation instead of
hard shedding).  The default policy turns every feature off: an unbounded
gate that only validates the priority class.

The protocol: ``admit(...) -> AdmissionDecision`` and
``release(decision)`` from the matching ``finally`` block.  Slot
accounting is an explicit lock-guarded counter, so an unmatched
``release`` raises a clear invariant error instead of a bare
``ValueError`` out of a ``BoundedSemaphore`` — a double-release in some
failure path is a serving bug worth a loud, named crash.
"""

from __future__ import annotations

import threading

from repro.resilience.budget import SearchBudget
from repro.service.policy import (
    DEFAULT_TENANT,
    AdmissionDecision,
    AdmissionPolicy,
)

__all__ = ["AdmissionController"]


class AdmissionController:
    """Policy-driven admission: cap, tenant shares, priorities, cost.

    One :class:`~repro.service.policy.AdmissionPolicy` (default: every
    feature off) drives every decision; the controller adds the mutable
    half — global and per-tenant in-flight counters.  Decision order
    (first refusal wins; the full table lives in DESIGN.md §10):

    0. unknown priority class -> :class:`~repro.errors.QueryError`
       (a caller error, not a shed);
    1. global cap full -> shed ``inflight_cap``;
    2. class threshold exceeded -> shed ``priority_shed``;
    3. tenant share full -> shed ``tenant_quota``;
    4. cost over the load-dependent ceiling -> degrade (within
       ``degrade_headroom``) or shed ``cost_shed``.

    Anonymous queries account against the ``default`` tenant lane.  The
    in-flight counts are observable (:attr:`inflight`,
    :meth:`tenant_inflight`, :attr:`utilization`).
    """

    def __init__(self, policy: AdmissionPolicy | None = None):
        if policy is None:
            policy = AdmissionPolicy()
        self.policy = policy
        self.max_inflight = policy.max_inflight
        self._lock = threading.Lock()
        self._inflight = 0
        self._tenant_inflight: dict[str, int] = {}

    # ------------------------------------------------------------- accounting
    @property
    def inflight(self) -> int:
        """Queries currently holding a slot."""
        with self._lock:
            return self._inflight

    @property
    def utilization(self) -> float:
        """Load as a fraction of the cap (``0.0`` when unbounded)."""
        with self._lock:
            return self._utilization_locked()

    def _utilization_locked(self) -> float:
        if self.max_inflight is None:
            return 0.0
        return self._inflight / self.max_inflight

    def tenant_inflight(self, tenant: str | None = None) -> int:
        """Queries a tenant currently has in flight."""
        with self._lock:
            return self._tenant_inflight.get(tenant or DEFAULT_TENANT, 0)

    @property
    def needs_plan(self) -> bool:
        """Whether :meth:`admit` wants the query planned first (for cost)."""
        return self.policy.uses_cost

    # -------------------------------------------------------------- admission
    @staticmethod
    def _shed(
        reason: str, detail: str, tenant: str, priority: str | None
    ) -> AdmissionDecision:
        return AdmissionDecision(
            admitted=False,
            action="shed",
            reason=reason,
            detail=detail,
            tenant=tenant,
            priority=priority,
        )

    def admit(
        self,
        tenant: str | None = None,
        priority: str | None = None,
        cost: float | None = None,
    ) -> AdmissionDecision:
        """Decide one query's admission (see the class docstring's order)."""
        policy = self.policy
        lane = tenant if tenant is not None else DEFAULT_TENANT
        # Resolve the class threshold outside the lock: an unknown priority
        # is a caller error (QueryError), not a shed.
        threshold = (
            policy.priority_threshold(priority) if priority is not None else None
        )
        with self._lock:
            utilization = self._utilization_locked()
            if (
                self.max_inflight is not None
                and self._inflight >= self.max_inflight
            ):
                detail = "service at its in-flight query cap"
                return self._shed("inflight_cap", detail, lane, priority)
            if (
                threshold is not None
                and threshold < 1.0
                and self.max_inflight is not None
                and utilization >= threshold
            ):
                return self._shed(
                    "priority_shed",
                    f"priority class {priority!r} shed at "
                    f"{utilization:.0%} utilization (threshold "
                    f"{threshold:.0%})",
                    lane,
                    priority,
                )
            quota = policy.quota_for(lane)
            held = self._tenant_inflight.get(lane, 0)
            if quota is not None and held >= quota:
                detail = f"tenant {lane!r} at its in-flight quota ({quota})"
                return self._shed("tenant_quota", detail, lane, priority)
            action, budget, reason, detail = "admit", None, "", ""
            ceiling = (
                policy.effective_max_cost(utilization)
                if cost is not None
                else None
            )
            if ceiling is not None and cost > ceiling:
                headroom = policy.degrade_headroom
                if headroom is not None and cost <= ceiling * headroom:
                    action = "degrade"
                    reason = "cost_degrade"
                    detail = (
                        f"estimated cost {cost:.0f} over the current "
                        f"ceiling {ceiling:.0f}; budget tightened"
                    )
                    budget = SearchBudget(
                        max_expanded_vertices=max(1, int(ceiling))
                    )
                else:
                    return self._shed(
                        "cost_shed",
                        f"estimated cost {cost:.0f} exceeds the current "
                        f"ceiling {ceiling:.0f} at {utilization:.0%} "
                        f"utilization",
                        lane,
                        priority,
                    )
            self._inflight += 1
            self._tenant_inflight[lane] = held + 1
            return AdmissionDecision(
                admitted=True,
                action=action,
                reason=reason,
                detail=detail,
                budget=budget,
                tenant=lane,
                priority=priority,
            )

    def release(self, decision: AdmissionDecision | None = None) -> None:
        """Return the slot an admitted ``decision`` claimed (``None``: one
        claimed on the ``default`` lane).

        Raises a clear invariant error on an unmatched release — a
        double-release in a ``finally`` block is a serving-layer bug, not
        a condition to limp past.
        """
        lane = (
            decision.tenant
            if decision is not None and decision.tenant is not None
            else DEFAULT_TENANT
        )
        with self._lock:
            held = self._tenant_inflight.get(lane, 0)
            if self._inflight <= 0 or held <= 0:
                raise RuntimeError(
                    f"AdmissionController.release() for tenant {lane!r} "
                    f"without a matching admit: in-flight count is "
                    f"{self._inflight} (double release in a failure path?)"
                )
            self._inflight -= 1
            if held == 1:
                del self._tenant_inflight[lane]
            else:
                self._tenant_inflight[lane] = held - 1

    def __repr__(self) -> str:
        cap = "unbounded" if self.max_inflight is None else self.max_inflight
        return f"AdmissionController(max_inflight={cap}, inflight={self.inflight})"
