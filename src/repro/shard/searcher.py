"""The sharded searcher: bound-pruned shard scans in one process.

``ShardedSearcher`` partitions its database into per-shard
:class:`~repro.index.database.TrajectoryDatabase` views (each with its own
inverted index, sharing the parent's graph and landmark table) and answers
an un-budgeted spatial query with a single loop over those shards:

- **shared work** — the query's exact text scores and one dense
  CSR-kernel distance array per query location are computed *once*; every
  shard is then one :func:`~repro.core.scan.scan_topk` over its own
  members;
- **shard pruning** — shards are visited in estimated-cost order, and one
  whose summary upper bound (best possible combined similarity of any
  member, see :class:`~repro.shard.summary.ShardSummary`) falls below the
  running global score floor is skipped without being scanned at all;
- **floor filtering** — a scanned shard receives the floor and returns
  only members that can still matter, keeping the merge at ``O(k)`` items
  per shard.

The floor starts at the kth best *textual* component over the global
candidate set (``score >= (1-lam) * SimT`` holds for every trajectory, so
the global kth exact score can never sit below it) and rises to the merged
collector's kth score after *every* shard, so each later shard is pruned
against the tightest floor available.

Nothing here forks: a per-query fork scatter measured 5-7x slower than
this loop on the same shards (DESIGN §11), and the process-level fan-out
that does pay lives at batch grain in
:meth:`QueryService.execute_many <repro.service.service.QueryService.execute_many>`.

Merge correctness does not depend on floats: every shard ranks with the
same total order (score desc, id asc), each scanned shard returns
everything that could beat the floor (up to its k best), and the global
top-k under that order is always contained in the union of per-shard
top-k sets.  Budgeted (anytime) and text-only queries delegate wholesale
to the flat collaborative path, which keeps their semantics byte-identical
to the unsharded searcher.

State ownership: the searcher owns the shard collection (views, summaries,
array snapshots), which is mutable only through the parent database's
mutation hooks — never during a search.  Everything per-query lives in
locals of ``execute``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from repro.core.instrument import annotate_search_span, execute_span
from repro.core.plan import QueryPlan
from repro.core.query import UOTSQuery
from repro.core.results import SearchResult, SearchStats, TopK
from repro.core.scan import ScanArrays, scan_topk
from repro.core.scheduler import Scheduler
from repro.core.search import CollaborativeSearcher, exact_text_scores
from repro.index.database import TrajectoryDatabase
from repro.network.csr import sssp_arrays_batch
from repro.network.landmarks import LandmarkIndex
from repro.obs.trace import current_tracer
from repro.resilience.budget import SearchBudget
from repro.shard.partition import GridPartitioner, Partitioner, trajectory_center
from repro.shard.summary import ShardSummary
from repro.trajectory.model import Trajectory, TrajectorySet

__all__ = ["ShardedQueryPlan", "ShardedSearcher", "ShardCollection"]

_EPS = 1e-9

#: Default shard count when the caller does not size the grid.
DEFAULT_NUM_SHARDS = 8


class _Shard:
    """One shard: a database view, its scan arrays, routing bookkeeping."""

    __slots__ = (
        "shard_id", "database", "arrays",
        "center_x", "center_y", "count", "summary", "version", "summary_version",
    )

    def __init__(self, shard_id: int, database: TrajectoryDatabase):
        self.shard_id = shard_id
        self.database = database
        self.arrays = ScanArrays(database)
        self.center_x = 0.0  # running sums of member bbox centers (routing)
        self.center_y = 0.0
        self.count = 0
        self.summary: ShardSummary | None = None
        self.version = 0
        self.summary_version = -1


class ShardCollection:
    """The shards of one parent database, kept in sync under mutation.

    Built once per :class:`ShardedSearcher`; a listener on the parent
    database routes every ``add`` to the shard whose member centroid is
    nearest (deterministic, partitioner-agnostic) and every ``remove`` to
    the owning shard, so shard views, their indexes/caches, and the lazily
    rebuilt summaries never go stale.
    """

    def __init__(self, database: TrajectoryDatabase, partitioner: Partitioner):
        self._parent = database
        graph = database.graph
        labels = partitioner.assign(graph, database.trajectories)
        groups: dict[int, list[Trajectory]] = {}
        for trajectory in database.trajectories:
            label = labels.get(trajectory.id, 0)
            groups.setdefault(label, []).append(trajectory)
        landmark_index = database.landmark_index  # build once, share below
        self.shards: list[_Shard] = []
        self._owner: dict[int, int] = {}
        for shard_id, label in enumerate(sorted(groups)):
            members = groups[label]
            view = TrajectoryDatabase(
                graph, TrajectorySet(members), sigma=database.sigma
            )
            view.adopt_landmark_index(landmark_index)
            shard = _Shard(shard_id, view)
            for trajectory in members:
                cx, cy = trajectory_center(graph, trajectory)
                shard.center_x += cx
                shard.center_y += cy
                shard.count += 1
                self._owner[trajectory.id] = shard_id
            self.shards.append(shard)
        self.landmark_index: LandmarkIndex | None = landmark_index
        #: Total mutations mirrored; plans stamp it to detect staleness.
        self.mutations = 0
        database.add_mutation_listener(self._sync)

    def summary_of(self, shard: _Shard) -> ShardSummary:
        """The shard's (possibly rebuilt) keyword/region summary."""
        if shard.summary is None or shard.summary_version != shard.version:
            shard.summary = ShardSummary.build(shard.database, self.landmark_index)
            shard.summary_version = shard.version
        return shard.summary

    # ------------------------------------------------------- mutation sync
    def _sync(self, event) -> None:
        """Mirror one parent mutation into the owning/receiving shard.

        The typed event names the mutation kind directly — no more
        re-deriving add-vs-remove from parent membership (which misreads a
        remove-then-re-add of the same id arriving out of order).
        """
        self.mutations += 1
        trajectory_id = event.trajectory_id
        if event.kind == "add":
            trajectory = self._parent.get(trajectory_id)
            shard = self._route(trajectory)
            shard.database.add(trajectory)
            cx, cy = trajectory_center(self._parent.graph, trajectory)
            shard.center_x += cx
            shard.center_y += cy
            shard.count += 1
            shard.version += 1
            self._owner[trajectory_id] = shard.shard_id
        else:
            shard_id = self._owner.pop(trajectory_id, None)
            if shard_id is None:
                return
            shard = self.shards[shard_id]
            trajectory = shard.database.get(trajectory_id)
            cx, cy = trajectory_center(self._parent.graph, trajectory)
            shard.database.remove(trajectory_id)
            shard.center_x -= cx
            shard.center_y -= cy
            shard.count -= 1
            shard.version += 1

    def _route(self, trajectory: Trajectory) -> _Shard:
        """The shard whose member centroid is nearest the new trajectory."""
        cx, cy = trajectory_center(self._parent.graph, trajectory)
        best = None
        best_key = None
        for shard in self.shards:
            if shard.count == 0:
                continue
            mx = shard.center_x / shard.count
            my = shard.center_y / shard.count
            key = ((mx - cx) ** 2 + (my - cy) ** 2, shard.shard_id)
            if best_key is None or key < best_key:
                best, best_key = shard, key
        return best if best is not None else self.shards[0]


@dataclass(frozen=True)
class ShardedQueryPlan(QueryPlan):
    """A :class:`QueryPlan` carrying the per-shard schedule.

    The parallel tuples are aligned and in visiting order (keyword
    candidates ascending, ties by shard id): entry ``i`` describes the
    shard with id ``shard_ids[i]``.  ``plan_floor`` is the planning-time
    global floor (kth textual bound); the top-level ``estimated_cost``
    sums only the shards not already prunable at that floor.
    """

    shard_ids: tuple[int, ...] = ()
    shard_costs: tuple[float, ...] = ()
    shard_upper_bounds: tuple[float, ...] = ()
    shard_sizes: tuple[int, ...] = ()
    shard_candidates: tuple[int, ...] = ()
    plan_floor: float = 0.0
    #: Shard-collection mutation count at planning time; a mismatch at
    #: execute time means the schedule is stale and is re-planned.
    plan_version: int = -1

    def describe(self) -> str:
        lines = [super().describe()]
        prunable = sum(
            1 for ub in self.shard_upper_bounds if ub < self.plan_floor - _EPS
        )
        lines.append(
            f"  shards:       {len(self.shard_ids)} planned, "
            f"{prunable} prunable at plan floor {self.plan_floor:.4f} "
            "(kth textual bound); schedule = candidates ascending"
        )
        for i, shard_id in enumerate(self.shard_ids):
            pruned = " [prunable]" if (
                self.shard_upper_bounds[i] < self.plan_floor - _EPS
            ) else ""
            lines.append(
                f"  shard[{shard_id}]:     "
                f"cost={self.shard_costs[i]:.0f} "
                f"size={self.shard_sizes[i]} "
                f"candidates={self.shard_candidates[i]} "
                f"ub={self.shard_upper_bounds[i]:.4f}{pruned}"
            )
        return "\n".join(lines)


class ShardedSearcher(CollaborativeSearcher):
    """Exact top-k over spatially partitioned shards, pruned by bounds.

    Subclasses :class:`CollaborativeSearcher` so text-only (``lam=0``) and
    budgeted queries delegate to the flat pipeline on the parent database
    (their semantics stay byte-identical), while un-budgeted spatial
    queries scan the shard views one after another in this process.

    Parameters beyond the base searcher's:

    shards:
        Target shard count for the default grid partitioner (the actual
        count is the number of non-empty grid cells).
    partitioner:
        Any :class:`~repro.shard.partition.Partitioner`; defaults to the
        uniform grid.  This is the graph-partitioner hook.
    """

    plan_name = "sharded"

    def __init__(
        self,
        database: TrajectoryDatabase,
        shards: int = DEFAULT_NUM_SHARDS,
        scheduler: str | Scheduler = "heuristic",
        batch_size: int = 16,
        refinement: bool | None = None,
        alt: bool | None = None,
        partitioner: Partitioner | None = None,
    ):
        super().__init__(database, scheduler, batch_size, refinement, alt)
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self._collection = ShardCollection(
            database, partitioner or GridPartitioner(shards)
        )

    # ----------------------------------------------------------------- API
    def warm(self) -> None:
        """Build the SciPy matrix and every shard's snapshot and summary
        ahead of a fork (the landmark table exists since construction)."""
        self._database.graph.csr.matrix()
        for shard in self._collection.shards:
            shard.arrays.snapshot()
            self._collection.summary_of(shard)

    def plan(self, query: UOTSQuery) -> ShardedQueryPlan:
        """The flat plan plus the per-shard schedule."""
        base = super().plan(query)
        floor = self._textual_floor(query)
        sources = np.array(query.locations, dtype=np.intp)
        rows = []
        for shard in self._collection.shards:
            if not len(shard.database):
                continue
            summary = self._collection.summary_of(shard)
            count = (
                len(shard.database.keyword_index.candidates(query.keywords))
                if query.keywords
                else 0
            )
            # The flat cost formula with the *shard's* reach: every source
            # settles at worst the shard's covered vertices.
            cost = float(
                count
                + (0 if query.lam == 0.0 else query.num_locations * summary.covered.size)
            )
            bound = summary.upper_bound(
                query.lam, query.keywords, query.text_measure,
                self._shard_caps(query, summary, sources),
            )
            rows.append((count, shard.shard_id, cost, bound, len(shard.database)))
        # Estimated flat-search cost ascending: its spatial term is the same
        # for every shard, which leaves keyword candidates, ties by shard id.
        rows.sort()
        candidates, ids, costs, ubs, sizes = zip(*rows) if rows else ((),) * 5
        scheduled = sum(
            cost for cost, ub in zip(costs, ubs) if ub >= floor - _EPS
        )
        return ShardedQueryPlan(
            algorithm=base.algorithm,
            query=base.query,
            scheduler=base.scheduler,
            batch_size=base.batch_size,
            use_text_in_bounds=base.use_text_in_bounds,
            use_refinement=base.use_refinement,
            alt_enabled=base.alt_enabled,
            alt_reason=base.alt_reason,
            text_measure=base.text_measure,
            source_vertices=base.source_vertices,
            candidate_count=base.candidate_count,
            database_size=base.database_size,
            cache_enabled=base.cache_enabled,
            estimated_cost=max(1.0, scheduled),
            notes=base.notes + (f"in-process scan of {len(ids)} shards, bound-pruned",),
            shard_ids=ids,
            shard_costs=costs,
            shard_upper_bounds=ubs,
            shard_sizes=sizes,
            shard_candidates=candidates,
            plan_floor=floor,
            plan_version=self._collection.mutations,
        )

    def execute(
        self, plan: QueryPlan, budget: SearchBudget | None = None
    ) -> SearchResult:
        """Scan the shards and merge; or delegate to the flat pipeline.

        Budgeted (anytime) and text-only queries run the inherited flat
        path on the parent database — identical results to the unsharded
        collaborative searcher by construction.
        """
        query: UOTSQuery = plan.query
        effective_budget = budget if budget is not None else query.budget
        if query.lam == 0.0 or (
            effective_budget is not None and not effective_budget.unlimited
        ):
            return super().execute(plan, budget)
        if (
            not isinstance(plan, ShardedQueryPlan)
            or plan.plan_version != self._collection.mutations
        ):
            plan = self.plan(query)
        query.validate_against(self._database.graph)
        with execute_span(self.plan_name) as span:
            result = self._scan_shards(plan, query)
            annotate_search_span(span, result)
            return result

    # ---------------------------------------------------------- shard loop
    def _scan_shards(self, plan: ShardedQueryPlan, query: UOTSQuery) -> SearchResult:
        started = time.perf_counter()
        stats = SearchStats(shards_planned=len(plan.shard_ids))
        tracer = current_tracer()
        # The query's text and spatial work, paid once for every shard: the
        # exact SimT table and one dense distance array per query location
        # (CSR kernel, vectorised).  Shards answer with member scans.
        text_scores = exact_text_scores(self._database, query)
        distance_maps = sssp_arrays_batch(self._database.graph.csr, query.locations)
        floor = plan.plan_floor
        topk = TopK(query.k)
        # The plan is current (``execute`` re-plans a stale one), so its
        # schedule and bounds describe exactly the shards visited here.
        for shard_id, bound in zip(plan.shard_ids, plan.shard_upper_bounds):
            shard = self._collection.shards[shard_id]
            if floor > 0.0 and bound < floor - _EPS:
                stats.shards_pruned += 1
                stats.pruned_trajectories += len(shard.database)
                if tracer.enabled:
                    with tracer.span(
                        f"shard[{shard_id}]", pruned=True, upper_bound=bound
                    ):
                        pass
                continue
            # The floor handed to the scan keeps a 2*eps slack so a member
            # whose exact score *ties* the floor is still scored and
            # offered — the merged TopK's shared total order (score desc,
            # id asc) then resolves ties exactly like the flat path.
            shard_floor = floor - 2.0 * _EPS if floor > 0.0 else None
            with tracer.span(f"shard[{shard_id}]", executed=True) as sspan:
                with execute_span("shard-scan") as span:
                    scan_started = time.perf_counter()
                    result = scan_topk(
                        shard.arrays.snapshot(), distance_maps, text_scores,
                        query, shard_floor,
                    )
                    result.stats.elapsed_seconds = time.perf_counter() - scan_started
                    annotate_search_span(span, result)
                if sspan is not None:
                    sspan.set("items", len(result.items))
                    sspan.set("evaluations", result.stats.similarity_evaluations)
            stats.shards_executed += 1
            stats.shard_seconds += result.stats.elapsed_seconds
            stats.merge(result.stats)
            for item in result.items:
                topk.offer(item)
            floor = max(floor, topk.threshold)

        if not topk.full:
            self._zero_fill(
                topk, SearchStats(),
                exclude={item.trajectory_id for item in topk.ranked()},
            )
        # Merged bookkeeping: wall time is the whole loop's, not the shard
        # sum; the candidate count is the global one (pruned shards
        # contributed no per-shard stats); nothing overlaps in one process,
        # so the critical path *is* the shard sum.
        stats.shard_critical_seconds = stats.shard_seconds
        stats.elapsed_seconds = time.perf_counter() - started
        stats.text_candidates = len(text_scores)
        stats.estimated_cost = plan.estimated_cost
        return SearchResult(items=topk.ranked(), stats=stats)

    # ------------------------------------------------------------- helpers
    def _textual_floor(self, query: UOTSQuery) -> float:
        """Planning-time floor: kth best ``(1-lam) * SimT`` globally.

        ``score >= (1-lam) * SimT`` holds per trajectory, so with ``k``
        candidates the global kth exact score is at least the kth best
        textual component — a pruning floor available before any shard
        runs.  0 when fewer than ``k`` candidates exist (no guarantee)."""
        text_scores = exact_text_scores(self._database, query)
        if len(text_scores) < query.k:
            return 0.0
        kth = sorted(text_scores.values(), reverse=True)[query.k - 1]
        return (1.0 - query.lam) * kth

    def _shard_caps(
        self, query: UOTSQuery, summary: ShardSummary, sources: np.ndarray
    ) -> list[float] | None:
        """One shard's per-source spatial contribution caps from landmarks."""
        if query.lam == 0.0:
            return None
        lbs = summary.distance_lower_bounds(self._collection.landmark_index, sources)
        if lbs is None:
            return None
        alpha = query.lam / query.num_locations
        sigma = self._database.sigma
        return [alpha * math.exp(-lb / sigma) for lb in lbs]
