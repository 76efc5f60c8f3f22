"""Two-phase trajectory similarity join (threshold join, self and non-self).

The extension realising the group's follow-up direction: given trajectory
sets ``P`` and ``Q`` (``P`` alone for a self join) and a threshold
``theta``, return every pair with ``SimST = V(t1, t2) + V(t2, t1) >= theta``.

Phase 1 (trajectory search): for each trajectory, a directional
spatio-temporal expansion search (:class:`DirectionalSearchEngine`) collects
its candidate set ``C(t) = {t' : V(t, t') >= theta - 1}`` — sufficient
because each directional ``V`` is at most 1, so a qualifying pair must reach
``theta - 1`` in *both* directions.  The per-trajectory searches are
independent, so ``TwoPhaseJoin(workers=N)`` forks them over ``N`` processes.

Phase 2 (merging): a pair qualifies iff each trajectory appears in the
other's candidate set and the two exact directional values sum to at least
``theta``.  Merging is a dictionary intersection — constant work per
candidate, independent of how many workers ran phase 1.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field

from repro.core.results import SearchStats
from repro.errors import QueryError
from repro.index.database import TrajectoryDatabase
from repro.join.pairs import PairwiseScorer
from repro.matching.engine import DirectionalSearchEngine
from repro.obs import harvest
from repro.obs.trace import current_tracer
from repro.parallel.executor import fork_available

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


@dataclass
class _Phase1State:
    """Everything a phase-1 task reads: per side, the trajectories searched
    and the engine they search against.  Forked workers receive it through
    ``Pool`` initargs, so it is inherited, never pickled."""

    sides: dict[str, tuple[TrajectoryDatabase, DirectionalSearchEngine]]
    lam: float
    limit: float
    exclude_self: bool
    config: dict | None  # harvest config; None in process (the work is the parent's)

    def search(self, task: tuple[str, int]):
        """One trajectory's candidate set: ``(side, id, values, stats,
        spans)``."""
        side, trajectory_id = task
        database, engine = self.sides[side]
        points = database.get(trajectory_id).samples()
        exclude_id = trajectory_id if self.exclude_self else None
        if not self.config:
            candidates = engine.threshold_search(
                points, self.lam, self.limit, exclude_id=exclude_id
            )
            return side, trajectory_id, candidates.values, candidates.stats, None
        with harvest.collecting(self.config) as tracer:
            # threshold_search is not span-instrumented; the task root gives
            # the stitched join trace its per-trajectory timing.
            with tracer.span("join_task", trajectory_id=trajectory_id, side=side):
                candidates = engine.threshold_search(
                    points, self.lam, self.limit, exclude_id=exclude_id
                )
        return (
            side, trajectory_id, candidates.values, candidates.stats,
            harvest.span_records(tracer),
        )


#: A forked phase-1 worker's state, set once by its pool initializer.
_FORKED: _Phase1State | None = None


def _adopt(state: _Phase1State) -> None:
    global _FORKED
    _FORKED = state


def _forked_search(task: tuple[str, int]):
    return _FORKED.search(task)


class TwoPhaseJoin:
    """The two-phase divide-and-conquer threshold join.

    ``workers > 1`` runs phase 1 on a fork-context process pool (SciPy's
    Dijkstra holds the GIL, so threads would not help); without ``fork``
    it runs in process.  Results and work counters do not depend on it.
    """

    def __init__(
        self,
        database: TrajectoryDatabase,
        other: TrajectoryDatabase | None = None,
        lam: float = 0.5,
        sigma_t: float = 1800.0,
        batch_size: int = 16,
        workers: int = 1,
    ):
        """``other`` enables the non-self join ``P x Q``; both databases must
        share the same spatial network."""
        if other is not None and other.graph is not database.graph:
            raise QueryError("both join sides must share the same spatial network")
        if not (0.0 <= lam <= 1.0):
            raise QueryError(f"lam must be in [0, 1], got {lam}")
        if workers < 1:
            raise QueryError(f"workers must be >= 1, got {workers}")
        self._database = database
        self._other = other
        self._lam = lam
        self._sigma_t = sigma_t
        self._batch_size = batch_size
        self._workers = workers

    def _engine(self, database: TrajectoryDatabase) -> DirectionalSearchEngine:
        return DirectionalSearchEngine(
            database, sigma_t=self._sigma_t, batch_size=self._batch_size
        )

    # -------------------------------------------------------------- joins
    def self_join(self, theta: float) -> JoinResult:
        """All pairs within ``P`` with ``SimST >= theta``."""
        _validate_theta(theta)
        sides = {"p": (self._database, self._engine(self._database))}
        return self._run(sides, theta, self_join=True)

    def join(self, theta: float) -> JoinResult:
        """All pairs across ``P x Q`` with ``SimST >= theta``."""
        _validate_theta(theta)
        if self._other is None:
            raise QueryError("non-self join requires an 'other' database")
        # Side "p" trajectories search the Q engine and vice versa.
        sides = {
            "p": (self._database, self._engine(self._other)),
            "q": (self._other, self._engine(self._database)),
        }
        return self._run(sides, theta, self_join=False)

    def _run(self, sides: dict, theta: float, self_join: bool) -> JoinResult:
        started = time.perf_counter()
        tasks = [
            (side, trajectory_id)
            for side, (database, __) in sides.items()
            for trajectory_id in database.trajectories.ids()
        ]
        result = JoinResult()
        found: dict[str, dict[int, dict[int, float]]] = {side: {} for side in sides}
        tracer = current_tracer()
        with tracer.span("parallel_join", workers=self._workers, tasks=len(tasks)) as span:
            rows = self._phase1(sides, tasks, theta - 1.0, self_join)
            for side, trajectory_id, values, stats, spans in rows:
                found[side][trajectory_id] = values
                result.stats.merge(stats)
                harvest.graft_telemetry(tracer, span, spans)
        _merge(result, found["p"], found["p" if self_join else "q"], theta, self_join)
        result.stats.elapsed_seconds = time.perf_counter() - started
        return result

    # ------------------------------------------------------------- phase 1
    def _phase1(self, sides: dict, tasks: list, limit: float, self_join: bool) -> list:
        """One directional threshold search per task, in process or forked."""
        forked = self._workers > 1 and fork_available()
        config = harvest.harvest_config() if forked else None
        state = _Phase1State(sides, self._lam, limit, self_join, config)
        if not forked:
            return [state.search(task) for task in tasks]
        context = multiprocessing.get_context("fork")
        with context.Pool(self._workers, initializer=_adopt, initargs=(state,)) as pool:
            chunk = max(1, len(tasks) // (self._workers * 8))
            return pool.map(_forked_search, tasks, chunksize=chunk)


# ----------------------------------------------------------------- phase 2
def _merge(
    result: JoinResult,
    forward: dict[int, dict[int, float]],
    backward: dict[int, dict[int, float]],
    theta: float,
    self_join: bool,
) -> None:
    """Score every mutual candidate pair into ``result``: a dictionary
    intersection, the same work whoever ran phase 1."""
    for id1, candidates in forward.items():
        for id2, v12 in candidates.items():
            if self_join and id2 <= id1:
                continue  # each unordered pair once
            v21 = backward.get(id2, {}).get(id1)
            if v21 is None:
                continue
            result.candidate_pairs += 1  # mutual candidates get scored
            score = v12 + v21
            if score >= theta - _EPS:
                result.pairs.append((id1, id2, score))
    result.pairs.sort()


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
