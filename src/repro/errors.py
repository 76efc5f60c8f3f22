"""Exception hierarchy for the :mod:`repro` package.

All errors raised by the library derive from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
letting programming errors (``TypeError`` etc.) propagate.

Storage failures form their own subtree under :class:`StorageError`:
transient I/O faults are retried inside the storage layer (see
:mod:`repro.resilience.retry`) and only surface as ``StorageError`` once
retries are exhausted; detected page corruption always surfaces as
:class:`CorruptPageError` — never as silently wrong data.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the library."""


class GraphError(ReproError):
    """Raised for malformed spatial networks (bad vertices, edges, weights)."""


class VertexNotFoundError(GraphError):
    """Raised when an operation references a vertex id outside the graph."""

    def __init__(self, vertex: int, num_vertices: int):
        self.vertex = vertex
        self.num_vertices = num_vertices
        super().__init__(
            f"vertex {vertex} does not exist (graph has {num_vertices} vertices)"
        )


class DisconnectedError(GraphError):
    """Raised when a path is requested between disconnected vertices."""

    def __init__(self, source: int, target: int):
        self.source = source
        self.target = target
        super().__init__(f"no path between vertex {source} and vertex {target}")


class TrajectoryError(ReproError):
    """Raised for malformed trajectories (empty, unordered timestamps, ...)."""


class QueryError(ReproError):
    """Raised for invalid query specifications (bad lambda, empty locations...)."""


class TrajectoryIndexError(ReproError):
    """Raised for index inconsistencies (duplicate ids, unknown trajectory)."""


class DatasetError(ReproError):
    """Raised when dataset generation or loading fails."""


class StorageError(ReproError):
    """Raised when the disk storage layer fails permanently.

    Transient I/O faults are retried behind the scenes; this error means
    the failure persisted past the configured retry budget.
    """


class CorruptPageError(StorageError):
    """Raised when a page's CRC32 checksum does not match its contents.

    Corruption is permanent: retrying the read returns the same bytes, so
    this error is never retried and never degrades into wrong data.
    """

    def __init__(self, page_id: int, path: object, detail: str = ""):
        self.page_id = page_id
        self.path = path
        message = f"page {page_id} of {path} is corrupt (checksum mismatch)"
        if detail:
            message = f"{message}: {detail}"
        super().__init__(message)


class MutationDispatchError(ReproError):
    """Raised when one or more mutation listeners failed during dispatch.

    The database dispatches every :class:`~repro.index.events.MutationEvent`
    to *all* registered listeners even when one raises — aborting
    mid-dispatch would leave later caches stale relative to the already
    mutated indexes.  The individual exceptions are collected and re-raised
    together through this error (``.causes``); the database and every
    listener that did not raise are fully consistent by the time it
    propagates.
    """

    def __init__(self, event: object, causes: list[BaseException]):
        self.event = event
        self.causes = causes
        details = "; ".join(f"{type(c).__name__}: {c}" for c in causes)
        super().__init__(
            f"{len(causes)} mutation listener(s) failed for {event!r}: {details}"
        )


class GatewayError(ReproError):
    """Raised for HTTP-gateway-level failures (:mod:`repro.gateway`)."""


class GatewaySaturatedError(GatewayError):
    """Raised when the gateway's bounded bridge queue is full.

    Distinct from an admission-policy rejection: admission control is the
    *service's* load decision (it sees the query), while the gateway cap
    bounds how many bridged calls may even wait for a worker thread.  The
    HTTP layer maps this to 503 (try elsewhere/later), admission sheds to
    429 (the service looked and said no).
    """

    def __init__(self, pending: int, limit: int):
        self.pending = pending
        self.limit = limit
        super().__init__(
            f"gateway bridge saturated: {pending} calls pending "
            f"(limit {limit})"
        )


class BudgetExceededError(ReproError):
    """Raised when a strict :class:`~repro.resilience.SearchBudget` trips.

    By default a tripped budget degrades gracefully (the search returns its
    best-so-far answer); this error is raised only for ``strict=True``
    budgets, where the caller prefers a failure to a partial answer.
    """

    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(f"search budget exceeded: {reason}")
