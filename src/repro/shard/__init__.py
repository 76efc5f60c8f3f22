"""Spatially sharded trajectory database.

Partition the trajectory set by spatial region (``partition``), precompute
per-shard keyword/region summaries that upper-bound any member's similarity
to a query (``summary``), and answer a top-k search with one in-process
loop over per-shard :class:`~repro.index.database.TrajectoryDatabase`
views: each shard is scanned exactly or — when its best-possible score
cannot reach the running global kth score — skipped whole (``searcher``).
"""

from repro.shard.partition import GridPartitioner, Partitioner
from repro.shard.searcher import ShardedQueryPlan, ShardedSearcher
from repro.shard.summary import ShardSummary

__all__ = [
    "GridPartitioner",
    "Partitioner",
    "ShardSummary",
    "ShardedQueryPlan",
    "ShardedSearcher",
]
