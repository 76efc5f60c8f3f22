"""Concurrency hammer for the service's recording path.

The gateway's thread-pool bridge records every answered query from many
worker threads into one registry.  A lost increment would make the
exported outcome counters, the latency histogram, the shed reasons and
the tenant/priority lanes disagree with the traffic that was actually
served.  These tests are the regression net: every submitted query must
be accounted for, and no record may ever raise.
"""

from __future__ import annotations

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

from repro.core.query import UOTSQuery
from repro.service import QueryService
from tests.conftest import series

THREADS = 8


def test_service_stats_concurrent_outcomes_sum_exactly(database):
    """Eight threads submit served hits and in-flight-cap sheds through
    one service: the exported outcomes, the latency histogram, the shed
    reasons and both lanes all sum to the submitted count."""
    service = QueryService(database, "collaborative", admission=1, result_cache=8)
    hit = UOTSQuery.create([0, 150], ["park"], lam=0.5, k=3)
    miss = UOTSQuery.create([5, 210], ["lakeside"], lam=0.5, k=3)
    service.submit(hit)  # cached: every later submit of it is a served hit
    per_thread = 125
    barrier = threading.Barrier(THREADS)

    def work(seed: int) -> None:
        tenant = f"t{seed % 2}"
        barrier.wait()
        for i in range(per_thread):
            service.submit((hit, miss)[(seed + i) % 2], tenant=tenant, priority="batch")

    held = service.admission.admit()  # every miss is shed by the cap
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads mid-increment if one can
    try:
        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            list(pool.map(work, range(THREADS), timeout=120))
    finally:
        sys.setswitchinterval(interval)
        service.admission.release(held)
    total = THREADS * per_thread
    hits = sum((s + i) % 2 == 0 for s in range(THREADS) for i in range(per_thread))
    outcomes = "repro_service_queries_total"
    assert series(service, outcomes) == total + 1
    assert series(service, outcomes, outcome="exact") == hits + 1
    assert series(service, outcomes, outcome="rejected") == total - hits
    assert series(service, "repro_service_latency_seconds_count") == total + 1
    assert series(service, "repro_service_shed_total", reason="inflight_cap") == (
        total - hits
    )
    lanes = "repro_service_tenant_queries_total"
    assert series(service, lanes, outcome="served") == hits
    assert series(service, lanes, outcome="rejected") == total - hits
    assert series(service, "repro_service_priority_queries_total") == total
    assert service.result_cache.stats.hits == hits
