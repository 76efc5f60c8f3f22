"""Process parallelism: the search worker pool and the join phase-1 fan-out."""

from repro.parallel.executor import (
    fork_available,
    parallel_join,
    parallel_search,
    parallel_self_join,
)
from repro.parallel.pool import SearchWorkerPool

__all__ = [
    "SearchWorkerPool",
    "fork_available",
    "parallel_join",
    "parallel_search",
    "parallel_self_join",
]
