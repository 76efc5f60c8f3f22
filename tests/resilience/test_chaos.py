"""Chaos suite: seeded storage faults against the disk-resident database.

Three invariants, in order of importance:

1. Transient faults below the retry budget are invisible — search results
   are byte-identical to a fault-free run (only the retry counters move).
2. Detected corruption always surfaces as ``CorruptPageError`` — never as
   silently wrong data.
3. Faults past the retry budget surface as typed ``StorageError`` — and,
   through the serving layer, as error-marked results that never stop the
   service from answering the next query.
"""

import pytest

from repro.core.engine import make_searcher
from repro.core.query import UOTSQuery
from repro.errors import CorruptPageError, QueryError, StorageError
from repro.resilience.faults import FaultInjector, FaultPolicy
from repro.resilience.retry import RetryPolicy
from repro.service import QueryService
from repro.storage.database import DiskTrajectoryDatabase
from repro.storage.store import DiskTrajectoryStore

_NO_SLEEP = {"sleep": lambda _d: None}

QUERIES = [
    ([5, 210], "park lakeside", 0.5),
    ([0, 399], "seafood", 0.3),
    ([37, 199, 361], "museum walk", 0.7),
]


def _build_db(tmp_path, grid20, annotated_trips, name, **kwargs):
    return DiskTrajectoryDatabase.build(
        tmp_path / name, grid20, annotated_trips,
        buffer_capacity=8,  # tiny pool: most reads go to (faulty) disk
        **kwargs,
    )


def _run_queries(db):
    searcher = make_searcher(db, "collaborative")
    out = []
    for locations, preference, lam in QUERIES:
        result = searcher.search(
            UOTSQuery.create(locations, preference, lam=lam, k=5)
        )
        out.append((result.ids, result.scores))
    return out


class TestTransientFaults:
    def test_faulty_run_is_byte_identical(self, tmp_path, grid20, annotated_trips):
        """Acceptance: >=10% transient fault rate, identical results."""
        clean_db = _build_db(tmp_path, grid20, annotated_trips, "clean")
        expected = _run_queries(clean_db)

        retry = RetryPolicy(max_attempts=8, **_NO_SLEEP)
        faulty_db = _build_db(
            tmp_path, grid20, annotated_trips, "faulty", retry=retry
        )
        injector = FaultInjector(FaultPolicy(seed=42, transient_fault_rate=0.2))
        injector.attach(faulty_db.store.pagefile)

        got = _run_queries(faulty_db)
        stats = faulty_db.store.buffer.stats
        assert injector.injected_transients > 0, "chaos run injected nothing"
        assert stats.retries == injector.injected_transients
        for (ids_a, scores_a), (ids_b, scores_b) in zip(expected, got):
            assert ids_a == ids_b
            assert scores_a == pytest.approx(scores_b)

    def test_fault_runs_are_reproducible(self, tmp_path, grid20, annotated_trips):
        counts = []
        for run in ("a", "b"):
            db = _build_db(
                tmp_path, grid20, annotated_trips, f"repro_{run}",
                retry=RetryPolicy(max_attempts=8, **_NO_SLEEP),
            )
            injector = FaultInjector(
                FaultPolicy(seed=7, transient_fault_rate=0.15)
            )
            injector.attach(db.store.pagefile)
            _run_queries(db)
            counts.append(
                (injector.observed_reads, injector.injected_transients)
            )
        assert counts[0] == counts[1], "same seed, same fault schedule"

    def test_no_retry_policy_surfaces_storage_error(
        self, tmp_path, grid20, annotated_trips
    ):
        db = _build_db(tmp_path, grid20, annotated_trips, "noretry")
        FaultInjector(
            FaultPolicy(seed=1, transient_fault_rate=0.99)
        ).attach(db.store.pagefile)
        with pytest.raises(StorageError):
            for trajectory_id in db.trajectories.ids():
                db.get(trajectory_id)

    def test_exhausted_retries_surface_storage_error(
        self, tmp_path, grid20, annotated_trips
    ):
        db = _build_db(
            tmp_path, grid20, annotated_trips, "exhausted",
            retry=RetryPolicy(max_attempts=2, **_NO_SLEEP),
        )
        FaultInjector(
            FaultPolicy(seed=1, transient_fault_rate=0.99)
        ).attach(db.store.pagefile)
        with pytest.raises(StorageError):
            for trajectory_id in db.trajectories.ids():
                db.get(trajectory_id)


class TestServiceContainment:
    def test_storage_errors_are_contained(
        self, tmp_path, grid20, annotated_trips
    ):
        db = _build_db(tmp_path, grid20, annotated_trips, "service")
        service = QueryService(db, "collaborative")
        query = UOTSQuery.create([0, 150], "park", lam=0.5, k=3)
        injector = FaultInjector(FaultPolicy(seed=1, transient_fault_rate=0.99))
        injector.attach(db.store.pagefile)
        results = [service.submit(query) for _ in range(6)]
        failed = [r for r in results if r.error is not None]
        assert failed, "the faulty disk never surfaced an error"
        assert all(r.error.startswith("StorageError") for r in failed)
        assert all(not r.exact and not r.ids for r in failed)
        # Lift the faults: the same service answers exactly again.
        injector.detach(db.store.pagefile)
        healed = service.submit(query)
        assert healed.error is None and healed.exact
        oracle = QueryService(db, "brute-force").submit(query)
        assert healed.scores == pytest.approx(oracle.scores, abs=1e-9)


class TestCorruption:
    def test_corruption_raises_never_lies(self, tmp_path, grid20, annotated_trips):
        """Every read either returns correct data or raises CorruptPageError."""
        originals = {t.id: t for t in annotated_trips}
        db = _build_db(tmp_path, grid20, annotated_trips, "corrupt")
        injector = FaultInjector(FaultPolicy(seed=3, corrupt_pages=2))
        injector.attach(db.store.pagefile)
        assert len(injector.corrupted_pages) == 2

        corrupt_hits = 0
        for trajectory_id in db.trajectories.ids():
            try:
                trajectory = db.get(trajectory_id)
            except CorruptPageError as exc:
                corrupt_hits += 1
                assert exc.page_id in injector.corrupted_pages
            else:
                original = originals[trajectory_id]
                assert [p.vertex for p in trajectory.points] == [
                    p.vertex for p in original.points
                ]
                assert trajectory.keywords == original.keywords
        assert corrupt_hits > 0, "no read ever touched a corrupted page"

    def test_corruption_is_not_retried(self, tmp_path, grid20, annotated_trips):
        db = _build_db(
            tmp_path, grid20, annotated_trips, "corrupt_retry",
            retry=RetryPolicy(max_attempts=8, **_NO_SLEEP),
        )
        db.store.pagefile.corrupt_payload_byte(0, 11)
        first_page_ids = [
            tid for tid in db.trajectories.ids()
            if db.store._directory[tid][0] == 0
        ]
        with pytest.raises(CorruptPageError):
            db.get(first_page_ids[0])
        assert db.store.buffer.stats.retries == 0

    def test_unchecksummed_legacy_format_still_reads(
        self, tmp_path, grid20, annotated_trips
    ):
        db = _build_db(
            tmp_path, grid20, annotated_trips, "legacy", checksum=False
        )
        assert not db.store.pagefile.checksummed
        assert db.get(db.trajectories.ids()[0]).points


class TestFaultInjector:
    def test_policy_validation(self):
        with pytest.raises(QueryError):
            FaultPolicy(transient_fault_rate=1.5)
        with pytest.raises(QueryError):
            FaultPolicy(corrupt_pages=-1)
        with pytest.raises(QueryError):
            FaultPolicy(latency_seconds=-0.1)

    def test_detach_disarms(self, tmp_path, annotated_trips):
        store = DiskTrajectoryStore.build(
            tmp_path / "detach.pages", annotated_trips, buffer_capacity=4
        )
        injector = FaultInjector(FaultPolicy(seed=1, transient_fault_rate=0.99))
        injector.attach(store.pagefile)
        with pytest.raises(StorageError):
            for trajectory_id in store.ids():
                store.get(trajectory_id)
        injector.detach(store.pagefile)
        for trajectory_id in store.ids():
            store.get(trajectory_id)

    def test_latency_injection_observed(self, tmp_path, annotated_trips):
        store = DiskTrajectoryStore.build(
            tmp_path / "latency.pages", annotated_trips, buffer_capacity=4
        )
        injector = FaultInjector(FaultPolicy(latency_seconds=0.0))
        injector.attach(store.pagefile)
        store.get(store.ids()[0])
        assert injector.observed_reads > 0
