"""Two-phase trajectory similarity join (threshold join, self and non-self).

The extension realising the group's follow-up direction: given trajectory
sets ``P`` and ``Q`` (``P`` alone for a self join) and a threshold
``theta``, return every pair with ``SimST = V(t1, t2) + V(t2, t1) >= theta``.

Phase 1 (trajectory search): for each trajectory, a directional
spatio-temporal expansion search (:class:`DirectionalSearchEngine`) collects
its candidate set ``C(t) = {t' : V(t, t') >= theta - 1}`` — sufficient
because each directional ``V`` is at most 1, so a qualifying pair must reach
``theta - 1`` in *both* directions.  The per-trajectory searches are
independent, which is what the parallel executor exploits.

Phase 2 (merging): a pair qualifies iff each trajectory appears in the
other's candidate set and the two exact directional values sum to at least
``theta``.  Merging is a dictionary intersection — constant work per
candidate, independent of how many workers ran phase 1.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.results import SearchStats
from repro.errors import QueryError
from repro.index.database import TrajectoryDatabase
from repro.join.pairs import PairwiseScorer
from repro.matching.engine import DirectionalSearchEngine

__all__ = ["JoinResult", "TwoPhaseJoin", "TopKJoin", "BruteForceJoin"]

_EPS = 1e-9


@dataclass
class JoinResult:
    """Qualifying pairs with the work counters of both phases.

    For a self join, pairs are reported once with ``id1 < id2``; for a
    non-self join ``id1`` is from ``P`` and ``id2`` from ``Q``.
    """

    pairs: list[tuple[int, int, float]] = field(default_factory=list)
    stats: SearchStats = field(default_factory=SearchStats)
    candidate_pairs: int = 0  # pairs surviving phase 1 (the paper's |C|)

    def pair_set(self) -> set[tuple[int, int]]:
        """The qualifying id pairs without scores."""
        return {(a, b) for a, b, __ in self.pairs}

    def __len__(self) -> int:
        return len(self.pairs)


def _validate_theta(theta: float) -> None:
    if not (0.0 < theta <= 2.0):
        raise QueryError(f"theta must be in (0, 2], got {theta}")


class TwoPhaseJoin:
    """The two-phase divide-and-conquer threshold join."""

    def __init__(
        self,
        database: TrajectoryDatabase,
        other: TrajectoryDatabase | None = None,
        lam: float = 0.5,
        sigma_t: float = 1800.0,
        batch_size: int = 16,
    ):
        """``other`` enables the non-self join ``P x Q``; both databases must
        share the same spatial network."""
        if other is not None and other.graph is not database.graph:
            raise QueryError("both join sides must share the same spatial network")
        if not (0.0 <= lam <= 1.0):
            raise QueryError(f"lam must be in [0, 1], got {lam}")
        self._database = database
        self._other = other
        self._lam = lam
        self._sigma_t = sigma_t
        self._batch_size = batch_size

    # ------------------------------------------------------------- phase 1
    def candidate_sets(
        self,
        source: TrajectoryDatabase,
        target_engine: DirectionalSearchEngine,
        theta: float,
        stats: SearchStats,
        exclude_self: bool,
    ) -> dict[int, dict[int, float]]:
        """One directional threshold search per trajectory of ``source``."""
        limit = theta - 1.0
        sets: dict[int, dict[int, float]] = {}
        for trajectory in source.trajectories:
            candidates = target_engine.threshold_search(
                trajectory.samples(),
                self._lam,
                limit,
                exclude_id=trajectory.id if exclude_self else None,
            )
            sets[trajectory.id] = candidates.values
            stats.merge(candidates.stats)
        return sets

    # -------------------------------------------------------------- joins
    def self_join(self, theta: float) -> JoinResult:
        """All pairs within ``P`` with ``SimST >= theta``."""
        _validate_theta(theta)
        started = time.perf_counter()
        result = JoinResult()
        engine = DirectionalSearchEngine(
            self._database, sigma_t=self._sigma_t, batch_size=self._batch_size
        )
        sets = self.candidate_sets(
            self._database, engine, theta, result.stats, exclude_self=True
        )
        for id1, candidates in sets.items():
            for id2, v12 in candidates.items():
                if id2 <= id1:
                    continue  # each unordered pair once
                v21 = sets.get(id2, {}).get(id1)
                if v21 is None:
                    continue
                result.candidate_pairs += 1  # mutual candidates get scored
                score = v12 + v21
                if score >= theta - _EPS:
                    result.pairs.append((id1, id2, score))
        result.pairs.sort()
        result.stats.elapsed_seconds = time.perf_counter() - started
        return result

    def join(self, theta: float) -> JoinResult:
        """All pairs across ``P x Q`` with ``SimST >= theta``."""
        _validate_theta(theta)
        if self._other is None:
            raise QueryError("non-self join requires an 'other' database")
        started = time.perf_counter()
        result = JoinResult()
        engine_q = DirectionalSearchEngine(
            self._other, sigma_t=self._sigma_t, batch_size=self._batch_size
        )
        engine_p = DirectionalSearchEngine(
            self._database, sigma_t=self._sigma_t, batch_size=self._batch_size
        )
        from_p = self.candidate_sets(
            self._database, engine_q, theta, result.stats, exclude_self=False
        )
        from_q = self.candidate_sets(
            self._other, engine_p, theta, result.stats, exclude_self=False
        )
        for id1, candidates in from_p.items():
            for id2, v12 in candidates.items():
                v21 = from_q.get(id2, {}).get(id1)
                if v21 is None:
                    continue
                result.candidate_pairs += 1  # mutual candidates get scored
                score = v12 + v21
                if score >= theta - _EPS:
                    result.pairs.append((id1, id2, score))
        result.pairs.sort()
        result.stats.elapsed_seconds = time.perf_counter() - started
        return result


class TopKJoin:
    """Top-k similarity join: the ``k`` most similar pairs, no threshold.

    The paper family's stated future-work direction.  Strategy: process
    trajectories in id order, querying each one's candidate partners with an
    *adaptive* limit derived from the current k-th best pair score.  The
    limit is valid because every candidate pair ``(a, b)`` with final score
    ``s*`` in the true top-k satisfies, at the moment its later endpoint
    ``b`` is processed, ``current_kth - 1 <= s* - 1 <= V(b, a)`` (each
    directional ``V`` is at most 1), so ``a`` must appear in ``b``'s
    candidate set.  While the pair heap is still filling, a permissive
    top-k' partner search seeds it so the limit rises quickly.
    """

    def __init__(
        self,
        database: TrajectoryDatabase,
        lam: float = 0.5,
        sigma_t: float = 1800.0,
        batch_size: int = 32,
    ):
        if not (0.0 <= lam <= 1.0):
            raise QueryError(f"lam must be in [0, 1], got {lam}")
        self._database = database
        self._lam = lam
        self._sigma_t = sigma_t
        self._batch_size = batch_size

    def top_k(self, k: int) -> JoinResult:
        """The ``k`` highest-scoring unordered pairs (self join)."""
        if k < 1:
            raise QueryError(f"k must be >= 1, got {k}")
        import heapq

        started = time.perf_counter()
        database = self._database
        engine = DirectionalSearchEngine(
            database, sigma_t=self._sigma_t, batch_size=self._batch_size
        )
        result = JoinResult()
        # Min-heap of (score, -id1, -id2): the worst kept pair on top.
        heap: list[tuple[float, int, int]] = []
        scored: set[tuple[int, int]] = set()

        def offer(id1: int, id2: int, score: float) -> None:
            key = (min(id1, id2), max(id1, id2))
            if key in scored:
                return
            scored.add(key)
            result.candidate_pairs += 1
            entry = (score, -key[0], -key[1])
            if len(heap) < k:
                heapq.heappush(heap, entry)
            elif entry > heap[0]:
                heapq.heapreplace(heap, entry)

        def process(trajectory, permissive: bool) -> None:
            points = trajectory.samples()
            if permissive:
                seeded = engine.topk_search(
                    points, self._lam, k + 1, exclude_id=trajectory.id
                )
                result.stats.merge(seeded.stats)
                partner_values = {
                    item.trajectory_id: item.score for item in seeded.items
                }
            else:
                limit = heap[0][0] - 1.0 if len(heap) >= k else -_EPS
                candidates = engine.threshold_search(
                    points, self._lam, limit, exclude_id=trajectory.id
                )
                result.stats.merge(candidates.stats)
                partner_values = candidates.values
            for partner_id, forward in partner_values.items():
                if (min(trajectory.id, partner_id), max(trajectory.id, partner_id)) in scored:
                    continue
                partner = database.get(partner_id)
                backward = engine.exact_value(
                    partner.samples(),
                    self._lam,
                    trajectory.id,
                )
                offer(trajectory.id, partner_id, forward + backward)

        ordered = sorted(database.trajectories, key=lambda t: t.id)
        underfull: list = []
        for trajectory in ordered:
            if len(heap) < k:
                # Seed the heap fast; completeness for pairs whose later
                # endpoint lands here is restored by the repair pass below.
                process(trajectory, permissive=True)
                underfull.append(trajectory)
            else:
                process(trajectory, permissive=False)
        # Repair pass: trajectories handled with the permissive seeding may
        # have missed partners outside their top-k' by V; re-run them with
        # the (now tight, or fully exhaustive) adaptive limit.
        for trajectory in underfull:
            process(trajectory, permissive=False)

        result.pairs = sorted(
            ((-a, -b, score) for score, a, b in heap),
            key=lambda row: (-row[2], row[0], row[1]),
        )
        result.stats.elapsed_seconds = time.perf_counter() - started
        return result


class BruteForceJoin:
    """Exact exhaustive pair scoring — the oracle for the join algorithms."""

    def __init__(
        self,
        database: TrajectoryDatabase,
        other: TrajectoryDatabase | None = None,
        lam: float = 0.5,
        sigma_t: float = 1800.0,
    ):
        self._database = database
        self._other = other
        self._scorer = PairwiseScorer(database, lam=lam, sigma_t=sigma_t, other=other)

    def self_join(self, theta: float) -> JoinResult:
        """Score all unordered pairs within ``P``."""
        _validate_theta(theta)
        started = time.perf_counter()
        result = JoinResult()
        ids = sorted(self._database.trajectories.ids())
        for i, id1 in enumerate(ids):
            for id2 in ids[i + 1 :]:
                result.stats.similarity_evaluations += 1
                score = self._scorer.similarity(id1, id2)
                if score >= theta - _EPS:
                    result.pairs.append((id1, id2, score))
        result.candidate_pairs = result.stats.similarity_evaluations
        result.stats.visited_trajectories = len(ids)
        result.stats.elapsed_seconds = time.perf_counter() - started
        return result

    def join(self, theta: float) -> JoinResult:
        """Score all pairs across ``P x Q``."""
        _validate_theta(theta)
        if self._other is None:
            raise QueryError("non-self join requires an 'other' database")
        started = time.perf_counter()
        result = JoinResult()
        for id1 in sorted(self._database.trajectories.ids()):
            for id2 in sorted(self._other.trajectories.ids()):
                result.stats.similarity_evaluations += 1
                score = self._scorer.similarity(id1, id2, id2_from_other=True)
                if score >= theta - _EPS:
                    result.pairs.append((id1, id2, score))
        result.candidate_pairs = result.stats.similarity_evaluations
        result.stats.elapsed_seconds = time.perf_counter() - started
        return result
