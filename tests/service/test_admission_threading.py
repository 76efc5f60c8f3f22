"""Threaded storms for the admission controllers.

The gateway runs ``admit`` on the event loop and ``release`` on whatever
pool thread finished the query, so slot accounting must hold under full
cross-thread interleaving: no lost slots (capacity permanently shrunk),
no over-admission (in-flight above the cap at any instant), and in-flight
exactly 0 once the storm drains.  The over-release guard must still fire
— the storm must not have weakened it.
"""

from __future__ import annotations

import random
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.service.admission import AdmissionController
from repro.service.policy import AdmissionPolicy


def _storm(controller, threads: int, per_thread: int, tenants=None):
    """Admit/release churn; returns (admitted, rejected, errors, peak)."""
    admitted = rejected = 0
    peak = 0
    errors: list[BaseException] = []
    counters_lock = threading.Lock()
    barrier = threading.Barrier(threads)

    def work(seed: int) -> None:
        nonlocal admitted, rejected, peak
        rng = random.Random(seed)
        try:
            barrier.wait()
            for _ in range(per_thread):
                tenant = rng.choice(tenants) if tenants else None
                decision = controller.admit(tenant=tenant)
                observed = controller.inflight
                with counters_lock:
                    peak = max(peak, observed)
                if decision.admitted:
                    with counters_lock:
                        admitted += 1
                    if rng.random() < 0.3:
                        pass  # release immediately: tight interleaving
                    controller.release(decision)
                else:
                    with counters_lock:
                        rejected += 1
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)

    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(work, range(threads)))
    return admitted, rejected, errors, peak


def test_plain_controller_storm_restores_all_slots():
    controller = AdmissionController(AdmissionPolicy(max_inflight=4))
    admitted, rejected, errors, peak = _storm(controller, threads=8, per_thread=500)
    assert not errors, f"storm raised: {errors[:3]}"
    assert controller.inflight == 0, "lost or leaked slots after the storm"
    assert peak <= 4, f"over-admission: saw {peak} in-flight above the cap"
    assert admitted + rejected == 8 * 500
    # Full capacity restored: the cap's worth of admissions succeed again.
    decisions = [controller.admit() for _ in range(4)]
    assert all(d.admitted for d in decisions)
    assert not controller.admit().admitted
    for decision in decisions:
        controller.release(decision)
    assert controller.inflight == 0


def test_overload_controller_storm_restores_tenant_lanes():
    # alpha and beta each get 6 * 1/2 = 3 slots; gamma and default 2.
    policy = AdmissionPolicy(
        max_inflight=6, tenant_weights={"alpha": 1.0, "beta": 1.0}
    )
    controller = AdmissionController(policy)
    tenants = ["alpha", "beta", "gamma", None]
    admitted, rejected, errors, peak = _storm(
        controller, threads=8, per_thread=500, tenants=tenants
    )
    assert not errors, f"storm raised: {errors[:3]}"
    assert controller.inflight == 0
    assert peak <= 6
    for tenant in ("alpha", "beta", "gamma"):
        assert controller.tenant_inflight(tenant) == 0, (
            f"tenant lane {tenant!r} leaked slots"
        )
    # The per-tenant share is intact after the churn.
    held = [controller.admit(tenant="alpha") for _ in range(3)]
    assert all(d.admitted for d in held)
    assert not controller.admit(tenant="alpha").admitted  # quota
    assert controller.admit(tenant="beta").admitted  # other lanes unaffected
    for decision in held:
        controller.release(decision)


def test_over_release_guard_survives_the_storm():
    """The storm must not loosen the double-release invariant."""
    controller = AdmissionController(AdmissionPolicy(max_inflight=2))
    _, _, errors, _ = _storm(controller, threads=4, per_thread=200)
    assert not errors
    assert controller.inflight == 0
    with pytest.raises(RuntimeError, match="without a matching"):
        controller.release()


def test_overload_over_release_guard_per_tenant_after_storm():
    policy = AdmissionPolicy(max_inflight=4)
    controller = AdmissionController(policy)
    _, _, errors, _ = _storm(
        controller, threads=4, per_thread=200, tenants=["a", "b"]
    )
    assert not errors
    assert controller.inflight == 0
    decision = controller.admit(tenant="a")
    assert decision.admitted
    controller.release(decision)
    with pytest.raises(RuntimeError, match="without a matching"):
        controller.release(decision)
