"""Circuit breaker: unit state machine + chaos trip/recovery (ISSUE 6).

The unit tests drive the three-state machine with an injected clock; the
chaos tests reuse :class:`~repro.resilience.faults.FaultInjector` against
a disk database to trip the breaker through real ``StorageError`` results
and assert the breaker-state metric transitions along the way.
"""

import pytest

from repro.core.query import UOTSQuery
from repro.obs.metrics import MetricsRegistry
from repro.resilience.faults import FaultInjector, FaultPolicy
from repro.service import (
    BREAKER_STATE_CODES,
    AdmissionController,
    AdmissionPolicy,
    CircuitBreaker,
    QueryService,
)
from repro.storage.database import DiskTrajectoryDatabase

QUERY = UOTSQuery.create([0, 150], ["park"], lam=0.5, k=3)


def _breaker(**kwargs):
    clock = [0.0]
    defaults = dict(failure_threshold=3, cooldown_seconds=5.0)
    defaults.update(kwargs)
    return clock, CircuitBreaker(clock=lambda: clock[0], **defaults)


class TestStateMachine:
    def test_trips_after_consecutive_failures(self):
        _clock, breaker = _breaker()
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN

    def test_success_resets_the_failure_count(self):
        _clock, breaker = _breaker()
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.consecutive_failures == 2

    def test_cooldown_half_opens_lazily(self):
        clock, breaker = _breaker()
        for _ in range(3):
            breaker.record_failure()
        clock[0] = 4.9
        assert breaker.state == CircuitBreaker.OPEN
        clock[0] = 5.0
        assert breaker.state == CircuitBreaker.HALF_OPEN

    def test_probe_budget_limits_half_open_admissions(self):
        clock, breaker = _breaker(half_open_probes=2)
        for _ in range(3):
            breaker.record_failure()
        clock[0] = 5.0
        assert breaker.preflight() == CircuitBreaker.HALF_OPEN
        assert breaker.try_probe()
        assert breaker.try_probe()
        assert not breaker.try_probe()  # budget spent

    def test_probe_success_closes(self):
        clock, breaker = _breaker()
        for _ in range(3):
            breaker.record_failure()
        clock[0] = 5.0
        assert breaker.try_probe()
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.consecutive_failures == 0

    def test_probe_failure_reopens_for_a_fresh_cooldown(self):
        clock, breaker = _breaker()
        for _ in range(3):
            breaker.record_failure()
        clock[0] = 5.0
        assert breaker.try_probe()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        clock[0] = 9.9  # 4.9s into the *new* cooldown
        assert breaker.state == CircuitBreaker.OPEN
        clock[0] = 10.0
        assert breaker.state == CircuitBreaker.HALF_OPEN

    def test_open_ignores_straggler_outcomes(self):
        clock, breaker = _breaker()
        for _ in range(3):
            breaker.record_failure()
        breaker.record_success()  # a query admitted before the trip
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        clock[0] = 5.0
        assert breaker.state == CircuitBreaker.HALF_OPEN  # cooldown unmoved

    def test_transition_hook_sees_every_change(self):
        seen = []
        clock = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown_seconds=1.0,
            clock=lambda: clock[0], on_transition=seen.append,
        )
        breaker.record_failure()
        clock[0] = 1.0
        assert breaker.try_probe()
        breaker.record_success()
        assert seen == ["open", "half_open", "closed"]

    def test_state_codes_are_severity_ordered(self):
        assert BREAKER_STATE_CODES == {"closed": 0, "half_open": 1, "open": 2}
        _clock, breaker = _breaker()
        assert breaker.state_code == 0
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state_code == 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"failure_threshold": 0},
            {"cooldown_seconds": -1.0},
            {"half_open_probes": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            CircuitBreaker(**kwargs)


class TestControllerBreakerFeed:
    class _Result:
        def __init__(self, error):
            self.error = error

    def _controller(self, **kwargs):
        clock, breaker = _breaker(**kwargs)
        return clock, breaker, AdmissionController(AdmissionPolicy(), breaker=breaker)

    def test_infra_errors_trip_and_shed(self):
        _clock, breaker, controller = self._controller()
        for _ in range(3):
            controller.record_outcome(self._Result("StorageError: disk on fire"))
        assert breaker.state == CircuitBreaker.OPEN
        decision = controller.admit()
        assert not decision.admitted
        assert decision.reason == "breaker_open"
        assert controller.prefer_sequential

    def test_user_errors_teach_the_breaker_nothing(self):
        _clock, breaker, controller = self._controller()
        for _ in range(10):
            controller.record_outcome(self._Result("QueryError: bad vertex"))
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.consecutive_failures == 0

    def test_half_open_admits_one_probe_then_sheds(self):
        clock, breaker, controller = self._controller()
        for _ in range(3):
            controller.record_outcome(self._Result("StorageError: x"))
        clock[0] = 5.0
        probe = controller.admit()
        assert probe.admitted
        shed = controller.admit()
        assert shed.reason == "breaker_probing"
        controller.record_outcome(self._Result(None))
        assert breaker.state == CircuitBreaker.CLOSED
        assert not controller.prefer_sequential
        assert controller.inflight == 1  # the shed claimed no slot
        controller.release(probe)
        assert controller.inflight == 0

    def test_policy_built_breaker_from_knobs(self):
        controller = AdmissionController(
            AdmissionPolicy(breaker_failures=2, breaker_cooldown_seconds=9.0)
        )
        assert controller.breaker is not None
        assert controller.breaker.failure_threshold == 2
        assert controller.breaker.cooldown_seconds == 9.0


class TestChaosTripAndRecovery:
    """The CI chaos path: FaultInjector trips the breaker through real
    storage failures; lifting the faults and passing the cooldown recovers
    it — with the breaker-state metric asserting every transition."""

    def test_breaker_trips_and_recovers_with_metrics(
        self, tmp_path, grid20, annotated_trips
    ):
        db = DiskTrajectoryDatabase.build(
            tmp_path / "chaos", grid20, annotated_trips,
            buffer_capacity=8,  # tiny pool: reads go to the (faulty) disk
        )
        clock = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=3, cooldown_seconds=5.0, clock=lambda: clock[0]
        )
        controller = AdmissionController(AdmissionPolicy(), breaker=breaker)
        registry = MetricsRegistry()
        service = QueryService(
            db, "collaborative", admission=controller, metrics=registry
        )

        injector = FaultInjector(FaultPolicy(seed=1, transient_fault_rate=0.99))
        injector.attach(db.store.pagefile)
        storage_failures = 0
        for _ in range(12):
            result = service.submit(QUERY)
            if result.error is not None and result.error.startswith(
                "StorageError"
            ):
                storage_failures += 1
            if breaker.state == CircuitBreaker.OPEN:
                break
        assert storage_failures >= 3
        assert breaker.state == CircuitBreaker.OPEN
        assert controller.prefer_sequential

        shed = service.submit(QUERY)
        assert shed.error is not None
        assert shed.degradation_reason == "shed by admission policy (breaker_open)"
        assert service.stats.shed_reasons["breaker_open"] >= 1

        rendered = registry.render_prometheus()
        assert "repro_service_breaker_state 2" in rendered
        assert 'repro_service_breaker_transitions_total{to="open"} 1' in rendered

        # Recovery: lift the faults and pass the cooldown; the half-open
        # probe succeeds and closes the breaker.
        injector.detach(db.store.pagefile)
        clock[0] = 6.0
        probe = service.submit(QUERY)
        assert probe.error is None
        assert breaker.state == CircuitBreaker.CLOSED
        assert not controller.prefer_sequential

        rendered = registry.render_prometheus()
        assert "repro_service_breaker_state 0" in rendered
        assert (
            'repro_service_breaker_transitions_total{to="closed"} 1' in rendered
        )
        assert (
            'repro_service_breaker_transitions_total{to="half_open"} 1'
            in rendered
        )
        # Normal serving resumed: another query flows and is counted served.
        assert service.submit(QUERY).error is None
