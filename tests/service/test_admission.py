"""Admission control: the bounded in-flight seam of the serving layer."""

import pytest

from repro.core.query import UOTSQuery
from repro.errors import QueryError
from repro.parallel.executor import fork_available
from repro.service import AdmissionController, AdmissionPolicy, QueryService
from tests.conftest import series

QUERY = UOTSQuery.create([0, 150], ["park"], lam=0.5, k=3)
BATCH = [
    QUERY,
    UOTSQuery.create([5, 210], ["lakeside"], lam=0.5, k=3),
    UOTSQuery.create([37, 199], ["museum"], lam=0.5, k=3),
]
SHED = "shed by admission policy (inflight_cap)"


class TestController:
    def test_unbounded_always_admits(self):
        controller = AdmissionController()
        assert all(controller.admit().admitted for _ in range(100))

    def test_bounded_caps_and_releases(self):
        controller = AdmissionController(AdmissionPolicy(max_inflight=2))
        first = controller.admit()
        assert first.admitted
        assert controller.admit().admitted
        assert not controller.admit().admitted
        controller.release(first)
        assert controller.admit().admitted

    def test_rejects_nonpositive_cap(self):
        with pytest.raises(QueryError, match="max_inflight"):
            AdmissionController(AdmissionPolicy(max_inflight=0))


class TestServiceRejection:
    def test_rejected_submit_returns_error_marked_result(self, database):
        service = QueryService(database, "collaborative", admission=1)
        held = service.admission.admit()  # occupy the only slot
        assert held.admitted
        try:
            result = service.submit(QUERY)
        finally:
            service.admission.release(held)
        assert result.error is not None
        assert result.degradation_reason == SHED
        assert result.items == []
        assert series(service, "repro_service_queries_total", outcome="rejected") == 1
        assert series(service, "repro_service_queries_total") == 1  # none served

    def test_submit_admits_after_release(self, database):
        service = QueryService(database, "collaborative", admission=1)
        result = service.submit(QUERY)
        assert result.error is None
        assert result.exact
        assert series(service, "repro_service_queries_total", outcome="rejected") == 0

    def test_prebuilt_controller_is_used_verbatim(self, database):
        controller = AdmissionController(AdmissionPolicy(max_inflight=3))
        service = QueryService(database, admission=controller)
        assert service.admission is controller

    def test_rejected_result_stamps_elapsed_seconds(self, database):
        """ISSUE 5 satellite: a rejected result must carry real wall time
        like every other outcome — callers summing ``elapsed_seconds``
        over a mixed batch must not see zero-latency rejections."""
        service = QueryService(database, "collaborative", admission=1)
        held = service.admission.admit()
        assert held.admitted
        try:
            result = service.submit(QUERY)
        finally:
            service.admission.release(held)
        assert result.degradation_reason == SHED
        assert result.stats.elapsed_seconds > 0.0


class TestBatchAdmissionParity:
    """ISSUE 5 satellite: ``execute_many`` must gate its forked branch
    through the same admission controller as the sequential branch — a
    saturated controller rejects every query of the batch identically on
    both paths."""

    def _saturated(self, database, pool=None):
        service = QueryService(database, "collaborative", admission=1, pool=pool)
        held = service.admission.admit()  # occupy the only slot
        assert held.admitted
        return service, held

    def _assert_all_rejected(self, service, results):
        assert len(results) == len(BATCH)
        for result in results:
            assert result.error is not None
            assert result.degradation_reason == SHED
            assert result.items == []
            assert result.stats.elapsed_seconds > 0.0
        rejected = series(service, "repro_service_queries_total", outcome="rejected")
        assert rejected == len(BATCH)
        assert series(service, "repro_service_queries_total") == len(BATCH)

    def test_sequential_batch_rejects_when_saturated(self, database):
        service, held = self._saturated(database)
        try:
            results = service.execute_many(BATCH)
        finally:
            service.admission.release(held)
        self._assert_all_rejected(service, results)

    @pytest.mark.skipif(not fork_available(), reason="needs a fork platform")
    def test_forked_batch_rejects_identically(self, database):
        """The regression: the forked branch used to bypass admission and
        serve the whole batch while the sequential one rejected it."""
        service, held = self._saturated(database, pool=2)
        try:
            results = service.execute_many(BATCH)
        finally:
            service.admission.release(held)
            service.close()
        self._assert_all_rejected(service, results)

    @pytest.mark.skipif(not fork_available(), reason="needs a fork platform")
    def test_forked_batch_releases_its_slot(self, database):
        service = QueryService(database, "collaborative", admission=1, pool=2)
        try:
            results = service.execute_many(BATCH)
        finally:
            service.close()
        assert all(r.error is None for r in results)
        assert {r.stats.executor for r in results} == {"fork"}
        assert series(service, "repro_service_queries_total", outcome="rejected") == 0
        # The batch slot was released: a follow-up submit is admitted.
        assert service.submit(QUERY).error is None
