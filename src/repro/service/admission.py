"""Admission control: the overload-protection seam of the serving layer.

A production front-end protects itself by *rejecting* excess load instead
of queueing it without bound.  :class:`AdmissionController` is that gate,
configured by one :class:`~repro.service.policy.AdmissionPolicy`: a global
in-flight cap, per-tenant quotas and weighted fair shares, priority
classes shed lowest first under pressure, a load-dependent cost ceiling
over planned ``estimated_cost`` (with optional graceful degradation
instead of hard shedding), and a failure-rate :class:`~repro.service.
breaker.CircuitBreaker` that sheds everything while the substrate is
failing.  The default policy turns every feature off: an unbounded gate
that only validates the priority class.

The protocol: ``admit(...) -> AdmissionDecision``, ``release(decision)``
from the matching ``finally`` block, and ``record_outcome(result)`` after
execution (the breaker's diet).  Slot accounting is an explicit
lock-guarded counter, so an unmatched ``release`` raises a clear
invariant error instead of a bare ``ValueError`` out of a
``BoundedSemaphore`` — a double-release in some failure path is a serving
bug worth a loud, named crash.
"""

from __future__ import annotations

import threading

from repro.resilience.budget import SearchBudget
from repro.service.breaker import CircuitBreaker
from repro.service.policy import (
    DEFAULT_TENANT,
    AdmissionDecision,
    AdmissionPolicy,
)

__all__ = ["AdmissionController"]

#: Exception type names (the prefix of ``SearchResult.error``) that count
#: as *infrastructure* failures and feed the circuit breaker.  User-level
#: errors (``QueryError`` et al.) never trip it — one malformed query must
#: not take the service into shed mode.
_INFRA_ERRORS = frozenset(
    {
        "StorageError",
        "CorruptPageError",
        "OSError",
        "IOError",
        "TimeoutError",
        "ConnectionError",
        "BrokenProcessPool",
    }
)


def _infrastructure_failure(error: str | None) -> bool:
    """Whether an error-marked result indicates a failing substrate."""
    if not error:
        return False
    return error.split(":", 1)[0] in _INFRA_ERRORS


class AdmissionController:
    """Policy-driven admission: cap, quotas, priorities, cost, breaker.

    One :class:`~repro.service.policy.AdmissionPolicy` (default: every
    feature off) drives every decision; the controller adds the mutable
    half — global and per-tenant in-flight counters, and the circuit
    breaker.  Decision order (first refusal wins; the full table lives in
    DESIGN.md §10):

    0. unknown priority class -> :class:`~repro.errors.QueryError`
       (a caller error, not a shed);
    1. breaker open -> shed ``breaker_open``;
    2. global cap full -> shed ``inflight_cap``;
    3. class threshold exceeded -> shed ``priority_shed``;
    4. tenant quota full -> shed ``tenant_quota``;
    5. cost over the load-dependent ceiling -> degrade (within
       ``degrade_headroom``) or shed ``cost_shed``;
    6. breaker half-open and probe budget spent -> shed ``breaker_probing``.

    Anonymous queries account against the ``default`` tenant lane.  The
    in-flight counts are observable (:attr:`inflight`,
    :meth:`tenant_inflight`, :attr:`utilization`).
    """

    def __init__(
        self,
        policy: AdmissionPolicy | None = None,
        breaker: CircuitBreaker | None = None,
    ):
        if policy is None:
            policy = AdmissionPolicy()
        self.policy = policy
        self.max_inflight = policy.max_inflight
        if breaker is None and policy.breaker_failures is not None:
            breaker = CircuitBreaker(
                failure_threshold=policy.breaker_failures,
                cooldown_seconds=policy.breaker_cooldown_seconds,
                half_open_probes=policy.breaker_probes,
            )
        self._breaker = breaker
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

    # ------------------------------------------------------------- properties
    @property
    def breaker(self) -> CircuitBreaker | None:
        """The circuit breaker, when one is configured."""
        return self._breaker

    @property
    def needs_plan(self) -> bool:
        """Whether :meth:`admit` wants the query planned first (for cost)."""
        return self.policy.uses_cost

    @property
    def prefer_sequential(self) -> bool:
        """Whether batch execution should avoid the forked fan-out.

        While the breaker is anything but closed the executor stays
        sequential: an open breaker sheds anyway, and half-open probes must
        not fan out over a pool that may be the thing that is broken."""
        return self._breaker is not None and self._breaker.state != CircuitBreaker.CLOSED

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
        breaker_state = (
            self._breaker.preflight() if self._breaker is not None else None
        )
        if breaker_state == CircuitBreaker.OPEN:
            detail = "circuit breaker open after repeated infrastructure failures"
            return self._shed("breaker_open", detail, lane, priority)
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
            # Breaker probe budget: the last gate before committing a slot,
            # so a refused probe never leaks admission accounting.
            if (
                breaker_state == CircuitBreaker.HALF_OPEN
                and not self._breaker.try_probe()
            ):
                detail = "circuit breaker half-open; probe budget in use"
                return self._shed("breaker_probing", detail, lane, priority)
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

    # ---------------------------------------------------------------- outcome
    def record_outcome(self, result) -> None:
        """Feed the breaker: infrastructure failures count against it,
        successes reset it, user-level errors teach it nothing."""
        if self._breaker is None:
            return
        error = getattr(result, "error", None)
        if error is None:
            self._breaker.record_success()
        elif _infrastructure_failure(error):
            self._breaker.record_failure()

    def __repr__(self) -> str:
        cap = "unbounded" if self.max_inflight is None else self.max_inflight
        state = self._breaker.state if self._breaker is not None else "none"
        return (
            f"AdmissionController(max_inflight={cap}, "
            f"inflight={self.inflight}, breaker={state})"
        )
