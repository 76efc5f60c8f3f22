"""Process parallelism: the search worker pool and the batch entry point."""

from repro.parallel.executor import fork_available, parallel_search
from repro.parallel.pool import SearchWorkerPool

__all__ = [
    "SearchWorkerPool",
    "fork_available",
    "parallel_search",
]
