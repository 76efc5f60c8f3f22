"""The error hierarchy's resilience additions."""

import pytest

import repro
from repro.errors import (
    BudgetExceededError,
    CorruptPageError,
    ReproError,
    StorageError,
)


class TestHierarchy:
    def test_storage_subtree(self):
        assert issubclass(StorageError, ReproError)
        assert issubclass(CorruptPageError, StorageError)
        assert issubclass(BudgetExceededError, ReproError)

    def test_corrupt_page_error_carries_location(self):
        exc = CorruptPageError(7, "/tmp/x.pages", "stored crc 0xdead")
        assert exc.page_id == 7
        assert exc.path == "/tmp/x.pages"
        assert "checksum mismatch" in str(exc)
        assert "stored crc 0xdead" in str(exc)

    def test_budget_exceeded_error_carries_reason(self):
        exc = BudgetExceededError("deadline of 10.0 ms reached")
        assert exc.reason == "deadline of 10.0 ms reached"
        assert "search budget exceeded" in str(exc)

    def test_exceptions_exported_at_top_level(self):
        for name in (
            "ReproError", "StorageError", "CorruptPageError",
            "BudgetExceededError", "TrajectoryIndexError", "QueryError",
            "GraphError", "DatasetError", "TrajectoryError",
        ):
            assert name in repro.__all__
            assert isinstance(getattr(repro, name), type)


class TestDeprecatedAlias:
    def test_unknown_attribute_still_raises(self):
        import repro.errors as errors_module

        with pytest.raises(AttributeError):
            errors_module.NoSuchError
