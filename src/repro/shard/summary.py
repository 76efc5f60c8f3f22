"""Per-shard keyword/region summaries and the shard-level score bound.

A shard summary is everything the sharded planner needs to bound the
score of *any* trajectory in the shard without touching its members:

- the shard's keyword **vocabulary** — every member's textual similarity to
  a query is bounded by a measure-specific function of
  ``c = |Q ∩ vocabulary|`` (a member's keyword set is a subset of the
  vocabulary, so its overlap with the query can never exceed ``c``);
- per-landmark **distance intervals** ``[min, max]`` over the shard's
  covered vertices — the triangle inequality then lower-bounds the network
  distance from any query location ``o`` to the whole shard:
  ``sd(o, shard) >= max_l max(sd(l,o) - max_l, min_l - sd(l,o), 0)``,
  which caps every member's spatial contribution from source ``o`` at
  ``alpha * exp(-lb / sigma)``.

Both parts are upper bounds by construction, so a shard whose combined
bound falls below the running global kth exact score can be skipped with
the same guarantee the per-trajectory bounds give inside a search.
"""

from __future__ import annotations

import numpy as np

from repro.index.database import TrajectoryDatabase
from repro.network.landmarks import LandmarkIndex

# Re-exported from its import-light home (the result cache shares the
# bound and must not pull in the shard layer); the shard-facing docs on
# the function still apply here verbatim.
from repro.text.similarity import text_upper_bound

__all__ = ["ShardSummary", "text_upper_bound"]


class ShardSummary:
    """Immutable bound-support data for one shard (rebuild on mutation)."""

    __slots__ = ("size", "vocabulary", "covered", "landmark_min", "landmark_max")

    def __init__(
        self,
        size: int,
        vocabulary: frozenset[str],
        covered: np.ndarray,
        landmark_min: np.ndarray | None,
        landmark_max: np.ndarray | None,
    ):
        self.size = size
        self.vocabulary = vocabulary
        self.covered = covered
        self.landmark_min = landmark_min  # (L,) over covered vertices
        self.landmark_max = landmark_max

    @classmethod
    def build(
        cls, database: TrajectoryDatabase, landmark_index: LandmarkIndex | None
    ) -> "ShardSummary":
        """Summarise one shard view (vocabulary + landmark intervals)."""
        vocabulary: set[str] = set()
        samples = []
        for trajectory in database.trajectories:
            vocabulary.update(trajectory.keywords)
            samples.append(trajectory.vertex_array)
        covered = np.unique(np.concatenate(samples)) if samples else np.empty(0, np.intp)
        landmark_min = landmark_max = None
        if landmark_index is not None and covered.size:
            table = landmark_index._table[:, covered]  # (L, |covered|)
            landmark_min = table.min(axis=1)
            landmark_max = table.max(axis=1)
        return cls(
            size=len(database),
            vocabulary=frozenset(vocabulary),
            covered=covered,
            landmark_min=landmark_min,
            landmark_max=landmark_max,
        )

    def distance_lower_bounds(
        self, landmark_index: LandmarkIndex | None, sources: np.ndarray
    ) -> np.ndarray | None:
        """Per-source lower bounds on ``sd(source, any covered vertex)``.

        ``None`` when no landmark table exists (disconnected graph) — the
        caller then falls back to the trivial zero bound.
        """
        if landmark_index is None or self.landmark_min is None:
            return None
        columns = landmark_index._table[:, sources]  # (L, m)
        below = columns - self.landmark_max[:, None]
        above = self.landmark_min[:, None] - columns
        return np.maximum(np.maximum(below, above), 0.0).max(axis=0)

    def upper_bound(
        self,
        lam: float,
        keywords: frozenset[str],
        measure: str,
        unseen_caps: list[float] | None,
    ) -> float:
        """Best possible combined score of any trajectory in this shard.

        ``unseen_caps`` are the per-source spatial contribution caps already
        derived from :meth:`distance_lower_bounds` (``None`` means no
        spatial information: the spatial term is bounded by ``lam``).
        """
        spatial = sum(unseen_caps) if unseen_caps is not None else lam
        return spatial + (1.0 - lam) * text_upper_bound(
            keywords, measure, self.vocabulary
        )
