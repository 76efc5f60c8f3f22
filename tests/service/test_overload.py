"""Overload protection: policy-driven admission (ISSUE 6 tentpole surface).

Covers the :class:`AdmissionPolicy` derivations, the
:class:`AdmissionController` decision order (cap / priority / tenant
share / cost / degrade), the wiring through ``QueryService.submit``/``execute_many``
(lane counters, shed reasons, trace attributes, metrics series), and the
default-off oracle: with no policy configured, served results and the
exported series are identical to the pre-overload layout.
"""

import threading

import pytest

from repro.core.query import UOTSQuery
from repro.errors import QueryError
from repro.obs.metrics import MetricsRegistry
from repro.parallel.executor import fork_available
from repro.resilience.budget import SearchBudget
from repro.service import AdmissionController, AdmissionPolicy, QueryService
from tests.conftest import series

QUERY = UOTSQuery.create([0, 150], ["park"], lam=0.5, k=3)
BATCH = [
    QUERY,
    UOTSQuery.create([5, 210], ["lakeside"], lam=0.5, k=3),
    UOTSQuery.create([37, 199], ["museum"], lam=0.5, k=3),
]
OUTCOMES = "repro_service_queries_total"
SHED = "repro_service_shed_total"
TENANTS = "repro_service_tenant_queries_total"
PRIORITIES = "repro_service_priority_queries_total"


def exported(service, volatile=("latency", "elapsed", "cache_")) -> dict:
    """``{sample: value}`` of every exported sample, those that vary with
    wall clock or the shared database's warm caches left out."""
    samples = {}
    for line in service.metrics.render_prometheus().splitlines():
        sample, _, value = line.rpartition(" ")
        if line.startswith("#") or any(word in sample for word in volatile):
            continue
        samples[sample] = float(value)
    return samples


class TestAdmissionPolicy:
    def test_zero_argument_policy_is_fully_off(self):
        policy = AdmissionPolicy()
        assert policy.max_inflight is None
        assert not policy.uses_cost
        assert policy.quota_for("anyone") is None
        assert policy.effective_max_cost(0.9) is None

    def test_weighted_fair_share(self):
        policy = AdmissionPolicy(
            max_inflight=8, tenant_weights={"hog": 1.0, "good": 3.0}
        )
        assert policy.quota_for("hog") == 2  # 8 * 1/4
        assert policy.quota_for("good") == 6  # 8 * 3/4
        # Unlisted tenants weigh 1.0 against the enlarged total.
        assert policy.quota_for("newcomer") == 1  # floor(8 * 1/5)

    def test_fair_share_floors_at_one_slot(self):
        policy = AdmissionPolicy(
            max_inflight=4, tenant_weights={"a": 1.0, "b": 100.0}
        )
        assert policy.quota_for("a") == 1

    def test_cost_ceiling_slides_under_load(self):
        policy = AdmissionPolicy(
            max_inflight=10, max_cost=100.0,
            cost_pressure=0.5, min_cost_fraction=0.1,
        )
        assert policy.effective_max_cost(0.0) == 100.0
        assert policy.effective_max_cost(0.5) == 100.0  # flat until pressure
        assert policy.effective_max_cost(0.75) == pytest.approx(55.0)
        assert policy.effective_max_cost(1.0) == pytest.approx(10.0)

    def test_unknown_priority_raises_query_error(self):
        with pytest.raises(QueryError, match="priority"):
            AdmissionPolicy().priority_threshold("urgent")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_inflight": 0},
            {"max_inflight": -1},
            {"tenant_weights": {"t": -1.0}, "max_inflight": 4},
            {"tenant_weights": {"t": 0.0}, "max_inflight": 4},
            {"tenant_weights": {"t": 1.0}},  # weights need max_inflight
            {"priority_thresholds": {"interactive": 1.5}},
            {"priority_thresholds": {"batch": -0.1}},
            {"max_cost": 0.0},
            {"cost_pressure": 1.0},
            {"min_cost_fraction": 0.0},
            {"degrade_headroom": 0.5, "max_cost": 100.0},
            # The headroom scales the max_cost ceiling: alone it is a no-op.
            {"degrade_headroom": 1.5},
            {"degrade_headroom": 1.5, "max_inflight": 4},
        ],
    )
    def test_validation_rejects_bad_knobs(self, kwargs):
        with pytest.raises(QueryError):
            AdmissionPolicy(**kwargs)


class TestOverloadController:
    def test_tenant_quota_sheds_and_releases(self):
        controller = AdmissionController(
            # hog's share is 8 * 1/4 = 2 slots.
            AdmissionPolicy(
                max_inflight=8, tenant_weights={"hog": 1.0, "polite": 3.0}
            )
        )
        first = controller.admit(tenant="hog")
        second = controller.admit(tenant="hog")
        shed = controller.admit(tenant="hog")
        assert first.admitted and second.admitted
        assert not shed.admitted
        assert shed.reason == "tenant_quota"
        assert controller.admit(tenant="polite").admitted  # others still flow
        controller.release(first)
        assert controller.admit(tenant="hog").admitted
        assert controller.tenant_inflight("hog") == 2

    def test_priority_classes_shed_lowest_first(self):
        controller = AdmissionController(AdmissionPolicy(max_inflight=10))
        for _ in range(6):  # utilization 0.6
            assert controller.admit(priority="interactive").admitted
        assert controller.admit(priority="best_effort").reason == "priority_shed"
        assert controller.admit(priority="batch").admitted  # 0.6 < 0.85
        for _ in range(2):  # utilization 0.9
            assert controller.admit(priority="interactive").admitted
        assert controller.admit(priority="batch").reason == "priority_shed"
        assert controller.admit(priority="interactive").admitted  # to the cap

    def test_cost_shed_and_degrade(self):
        controller = AdmissionController(
            AdmissionPolicy(max_inflight=4, max_cost=100.0, degrade_headroom=2.0)
        )
        assert controller.admit(cost=80.0).action == "admit"
        degraded = controller.admit(cost=150.0)
        assert degraded.admitted and degraded.degraded
        assert degraded.reason == "cost_degrade"
        assert degraded.budget == SearchBudget(max_expanded_vertices=100)
        huge = controller.admit(cost=500.0)
        assert not huge.admitted
        assert huge.reason == "cost_shed"

    def test_cost_shed_without_headroom_is_hard(self):
        controller = AdmissionController(
            AdmissionPolicy(max_inflight=4, max_cost=100.0)
        )
        assert controller.admit(cost=101.0).reason == "cost_shed"

    def test_uncosted_queries_bypass_the_cost_gate(self):
        controller = AdmissionController(
            AdmissionPolicy(max_inflight=4, max_cost=1.0)
        )
        assert controller.admit(cost=None).admitted

    def test_anonymous_queries_share_the_default_lane(self):
        controller = AdmissionController(
            # The default lane's share is 4 * 1/4 = 1 slot.
            AdmissionPolicy(
                max_inflight=4, tenant_weights={"default": 1.0, "other": 3.0}
            )
        )
        first = controller.admit()
        assert first.admitted
        assert controller.admit().reason == "tenant_quota"
        controller.release(first)
        assert controller.inflight == 0

    def test_global_cap_reason_is_inflight_cap(self):
        controller = AdmissionController(AdmissionPolicy(max_inflight=1))
        held = controller.admit(tenant="a")
        shed = controller.admit(tenant="b")
        assert shed.reason == "inflight_cap"
        controller.release(held)


class TestOverReleaseGuard:
    """ISSUE 6 satellite: an unmatched release is a clear invariant error,
    not a bare ``BoundedSemaphore`` ``ValueError``."""

    def test_unbounded_controller_guards_too(self):
        with pytest.raises(RuntimeError, match="without a matching"):
            AdmissionController().release()

    def test_overload_controller_guards_tenant_lane(self):
        controller = AdmissionController(AdmissionPolicy(max_inflight=4))
        a = controller.admit(tenant="a")
        controller.admit(tenant="b")
        controller.release(a)
        with pytest.raises(RuntimeError, match="tenant 'a'"):
            controller.release(a)
        assert controller.inflight == 1  # the failed release changed nothing


class TestServiceIntegration:
    def _service(self, database, policy, **kwargs):
        return QueryService(
            database, "collaborative",
            admission=AdmissionController(policy), **kwargs,
        )

    def test_tenant_quota_shed_through_submit(self, database):
        service = self._service(
            database,
            AdmissionPolicy(
                max_inflight=4, tenant_weights={"hog": 1.0, "polite": 3.0}
            ),
        )
        held = service.admission.admit(tenant="hog")  # occupy hog's slot
        try:
            result = service.submit(QUERY, tenant="hog", priority="batch")
        finally:
            service.admission.release(held)
        assert result.error.startswith("AdmissionError:")
        assert "quota" in result.error
        assert result.degradation_reason == "shed by admission policy (tenant_quota)"
        assert series(service, SHED) == series(service, SHED, reason="tenant_quota") == 1
        assert series(service, TENANTS, tenant="hog", outcome="rejected") == 1
        assert series(service, TENANTS, tenant="hog", outcome="served") == 0
        assert series(service, PRIORITIES, priority="batch", outcome="rejected") == 1
        assert series(service, PRIORITIES, priority="batch", outcome="served") == 0
        # Another tenant is admitted and lands in its own lane.
        ok = service.submit(QUERY, tenant="polite")
        assert ok.error is None
        assert series(service, TENANTS, tenant="polite", outcome="served") == 1
        assert series(service, TENANTS, tenant="polite", outcome="rejected") == 0

    def test_cost_shedding_plans_first(self, database):
        plan_cost = QueryService(database, "collaborative").plan(QUERY).estimated_cost
        service = self._service(
            database, AdmissionPolicy(max_inflight=4, max_cost=plan_cost / 2)
        )
        result = service.submit(QUERY)
        assert result.error is not None
        assert "estimated cost" in result.error
        assert series(service, SHED) == series(service, SHED, reason="cost_shed") == 1
        assert service.admission.inflight == 0  # no slot leaked on the shed

    def test_graceful_degradation_attaches_budget(self, database):
        reference = QueryService(database, "collaborative")
        plan_cost = reference.plan(QUERY).estimated_cost
        full_work = reference.submit(QUERY).stats.expanded_vertices
        ceiling = plan_cost / 10
        service = self._service(
            database,
            AdmissionPolicy(max_inflight=4, max_cost=ceiling, degrade_headroom=100.0),
        )
        result = service.submit(QUERY, tenant="alpha")
        assert result.error is None
        assert not result.exact
        assert "admission degrade" in result.degradation_reason
        # The budget stops expansion at batch granularity: the degraded run
        # does strictly less work than the unbudgeted one.
        assert result.stats.expanded_vertices < full_work
        result.confirmed_prefix()  # anytime contract: usable, never raises
        assert series(service, "repro_service_policy_degraded_total") == 1
        assert series(service, OUTCOMES, outcome="degraded") == 1
        assert service.admission.inflight == 0

    def test_caller_budget_wins_over_policy_budget(self, database):
        plan_cost = QueryService(database, "collaborative").plan(QUERY).estimated_cost
        service = self._service(
            database,
            AdmissionPolicy(
                max_inflight=4, max_cost=plan_cost / 10, degrade_headroom=100.0
            ),
        )
        mine = SearchBudget(max_expanded_vertices=7)
        result = service.submit(QUERY, mine)
        assert result.error is None
        # The caller's cap (7), not the policy's ceiling, is the one that
        # tripped — and the outcome is not counted as policy-degraded.
        assert ">= 7 vertices" in result.degradation_reason
        assert "admission degrade" not in result.degradation_reason
        assert series(service, "repro_service_policy_degraded_total") == 0

    @pytest.mark.parametrize(
        "admission",
        [None, 2, AdmissionPolicy(max_inflight=4)],
        ids=["default", "int-capped", "policied"],
    )
    def test_unknown_priority_raises_like_bad_arguments(self, database, admission):
        if isinstance(admission, AdmissionPolicy):
            admission = AdmissionController(admission)
        service = QueryService(database, "collaborative", admission=admission)
        with pytest.raises(QueryError, match="priority"):
            service.submit(QUERY, priority="urgent")
        assert service.admission.inflight == 0
        assert series(service, OUTCOMES) == 0

    def test_execute_many_sheds_batch_with_reason(self, database):
        service = self._service(database, AdmissionPolicy(max_inflight=1))
        held = service.admission.admit()
        try:
            results = service.execute_many(BATCH, tenant="bulk", priority="batch")
        finally:
            service.admission.release(held)
        assert all(r.error is not None for r in results)
        assert series(service, SHED) == len(BATCH)
        assert series(service, SHED, reason="inflight_cap") == len(BATCH)
        assert series(service, TENANTS, tenant="bulk", outcome="rejected") == len(BATCH)

    def test_shed_and_degrade_reasons_reach_trace_spans(self, database):
        plan_cost = QueryService(database, "collaborative").plan(QUERY).estimated_cost
        service = self._service(
            database,
            AdmissionPolicy(
                max_inflight=4, max_cost=plan_cost / 10, degrade_headroom=100.0
            ),
            trace=True,
        )
        service.submit(QUERY, tenant="alpha", priority="interactive")
        span = service.tracer.last_trace()
        assert span.attributes["tenant"] == "alpha"
        assert span.attributes["priority"] == "interactive"
        assert span.attributes["admission"] == "degraded"
        assert span.attributes["admission_reason"] == "cost_degrade"

        hard = self._service(
            database,
            AdmissionPolicy(max_inflight=4, max_cost=plan_cost / 10),
            trace=True,
        )
        hard.submit(QUERY, tenant="alpha")
        span = hard.tracer.last_trace()
        assert span.attributes["admission"] == "shed"
        assert span.attributes["shed_reason"] == "cost_shed"

    def test_policy_series_reach_metrics(self, database):
        registry = MetricsRegistry()
        plan_cost = QueryService(database, "collaborative").plan(QUERY).estimated_cost
        service = self._service(
            database,
            AdmissionPolicy(max_inflight=4, max_cost=plan_cost / 2),
            metrics=registry,
        )
        service.submit(QUERY, tenant="hog", priority="best_effort")
        assert series(registry, SHED, reason="cost_shed") == 1
        assert series(registry, TENANTS, outcome="rejected", tenant="hog") == 1
        assert series(registry, PRIORITIES, priority="best_effort") == 1
        assert "repro_service_inflight 0" in registry.render_prometheus()


class TestDefaultOffOracle:
    """Acceptance: with no tenant/priority/cost options set, served
    results and the exported series are identical to the pre-overload
    behaviour."""

    def test_snapshot_keys_and_describe_shape_unchanged(self, database):
        """An int cap is a policy cap: its shed adds the
        ``repro_service_shed_total`` family, and nothing else."""
        plain = QueryService(database, "collaborative")
        plain.submit(QUERY)
        service = QueryService(database, "collaborative", admission=1)
        service.submit(QUERY)
        held = service.admission.admit()
        try:
            service.submit(QUERY)  # shed by the cap
        finally:
            service.admission.release(held)
        added = set(exported(service)) - set(exported(plain))
        assert added == {SHED + '{reason="inflight_cap"}'}
        assert set(exported(plain)) <= set(exported(service))

    def test_legacy_rejection_strings_exact(self, database):
        """The int cap sheds with the unified strings; the error text (and
        so the HTTP 429 mapping) is unchanged."""
        service = QueryService(database, "collaborative", admission=1)
        held = service.admission.admit()
        try:
            result = service.submit(QUERY)
        finally:
            service.admission.release(held)
        assert result.degradation_reason == (
            "shed by admission policy (inflight_cap)"
        )
        assert result.error == (
            "AdmissionError: service at its in-flight query cap"
        )
        assert series(service, SHED) == series(service, SHED, reason="inflight_cap") == 1

    def test_default_service_results_and_stats_identical(self, database):
        plain = QueryService(database, "collaborative")
        policied_off = QueryService(
            database, "collaborative",
            admission=AdmissionController(AdmissionPolicy()),
        )
        for q in BATCH:
            a = plain.submit(q)
            b = policied_off.submit(q)
            assert a.ids == b.ids
            assert a.scores == pytest.approx(b.scores)
            assert a.exact == b.exact and a.error == b.error
        # Latency and cross-query cache traffic vary with wall clock and the
        # shared database's warm caches — everything else must match.
        assert exported(plain) == exported(policied_off)
        assert exported(plain)[OUTCOMES + '{outcome="exact"}'] == len(BATCH)

    def test_default_metrics_have_no_policy_series(self, database):
        registry = MetricsRegistry()
        service = QueryService(database, "collaborative", metrics=registry)
        service.submit(QUERY)
        rendered = registry.render_prometheus()
        assert "repro_service_shed_total" not in rendered
        assert "repro_service_tenant_queries_total" not in rendered


class TestSubmitStorm:
    """ISSUE 6 satellite: N threads against a small quota see exactly
    ``quota`` successes in flight and zero lost slots afterwards."""

    def test_exact_quota_in_flight_and_no_lost_slots(self):
        quota, threads = 3, 16
        controller = AdmissionController(
            # storm's share is 8 * 3/8 = quota slots.
            AdmissionPolicy(
                max_inflight=8, tenant_weights={"storm": 3.0, "other": 5.0}
            )
        )
        attempted = threading.Barrier(threads)
        all_attempted = threading.Event()
        outcomes = []
        lock = threading.Lock()

        def worker():
            attempted.wait()
            decision = controller.admit(tenant="storm")
            with lock:
                outcomes.append(decision)
                if len(outcomes) == threads:
                    all_attempted.set()
            all_attempted.wait()  # hold the slot until everyone attempted
            if decision.admitted:
                controller.release(decision)

        pool = [threading.Thread(target=worker) for _ in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        admitted = [d for d in outcomes if d.admitted]
        assert len(admitted) == quota  # exactly quota succeeded in flight
        assert {d.reason for d in outcomes if not d.admitted} == {"tenant_quota"}
        assert controller.inflight == 0  # zero lost slots
        assert controller.tenant_inflight("storm") == 0
        # Every slot is reusable after the storm.
        again = [controller.admit(tenant="storm") for _ in range(quota)]
        assert all(d.admitted for d in again)
        for d in again:
            controller.release(d)

    def test_concurrent_submits_conserve_accounting(self, database):
        service = QueryService(
            database, "collaborative",
            admission=AdmissionController(
                AdmissionPolicy(
                    max_inflight=2, tenant_weights={"t": 1.0, "other": 1.0}
                )
            ),
        )
        threads = 8

        def worker():
            service.submit(QUERY, tenant="t")

        pool = [threading.Thread(target=worker) for _ in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        assert series(service, OUTCOMES) == threads
        assert series(service, TENANTS, tenant="t") == threads
        served = series(service, OUTCOMES) - series(service, OUTCOMES, outcome="rejected")
        assert series(service, TENANTS, tenant="t", outcome="served") == served
        assert service.admission.inflight == 0

    @pytest.mark.skipif(not fork_available(), reason="needs a fork platform")
    def test_forked_batch_accounting_matches_sequential(self, database):
        """Identical accounting on the forked ``execute_many`` path: the
        same saturated policy sheds the whole batch with the same reasons
        and lane counts as the sequential path."""

        def run(pool):
            service = QueryService(
                database, "collaborative",
                admission=AdmissionController(AdmissionPolicy(max_inflight=1)),
                pool=pool,
            )
            held = service.admission.admit()
            try:
                results = service.execute_many(BATCH, tenant="bulk")
            finally:
                service.admission.release(held)
                service.close()
            # The pool's own series exist only on the pooled service.
            volatile = ("latency", "elapsed", "cache_", "repro_pool_")
            return results, exported(service, volatile)

        seq_results, seq_stats = run(pool=None)
        fork_results, fork_stats = run(pool=2)
        assert seq_stats == fork_stats
        assert [r.error for r in seq_results] == [r.error for r in fork_results]
        assert seq_stats[SHED + '{reason="inflight_cap"}'] == len(BATCH)
