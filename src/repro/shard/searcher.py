"""The sharded scatter-gather searcher.

``ShardedSearcher`` partitions its database into per-shard
:class:`~repro.index.database.TrajectoryDatabase` views (each with its own
inverted indexes and query caches, sharing the parent's graph and landmark
table), plans a scatter schedule per shard, and executes the shards in
cost-ascending *waves*, merging the per-shard top-k streams into one
global collector.  Three mechanisms keep the scatter cheap:

- **shared spatial work** — the query's per-source network distances are
  computed *once* by the parent (one dense CSR-kernel array per query
  location) and handed to every shard; a shard answers with an exact
  vectorised scan of its own members instead of re-expanding the network,
  so the scatter's critical path is the slowest *scan*, not a repeated
  graph search;
- **shard pruning** — a shard whose summary upper bound (best possible
  combined similarity of any member, see
  :class:`~repro.shard.summary.ShardSummary`) falls below the running
  global score floor is skipped without executing at all;
- **floor filtering** — executing shards receive the floor as
  ``score_floor`` and return only members that can still matter, keeping
  the merge traffic per shard at ``O(k)``.

The floor starts at the kth best *textual* component over the global
candidate set (``score >= (1-lam) * SimT`` holds for every trajectory, so
the global kth exact score can never sit below it) and rises to the merged
collector's kth score between waves — late shards prune harder, which is
why the schedule runs cheap shards first.

Merge correctness does not depend on floats: every shard ranks with the
same total order (score desc, id asc), each executing shard returns
everything that could beat the floor (up to its k best), and the global
top-k under that order is always contained in the union of per-shard
top-k sets.  Budgeted (anytime) and text-only queries delegate wholesale
to the flat collaborative path, which keeps their semantics byte-identical
to the unsharded searcher.

State ownership: the searcher owns the shard collection (views, summaries,
per-shard caches), which is mutable only through the parent database's
mutation hooks — never during a search.  Everything per-query lives in
locals of ``execute``; the per-shard searchers are themselves stateless.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.instrument import annotate_search_span, execute_span
from repro.core.plan import QueryPlan
from repro.core.query import UOTSQuery
from repro.core.results import SearchResult, SearchStats, TopK
from repro.core.scan import ScanArrays
from repro.core.scheduler import Scheduler
from repro.core.search import CollaborativeSearcher, exact_text_scores
from repro.index.database import TrajectoryDatabase
from repro.network.csr import sssp_arrays_batch
from repro.network.landmarks import LandmarkIndex
from repro.obs import harvest
from repro.obs.trace import current_tracer
from repro.parallel import executor as _executor
from repro.resilience.budget import SearchBudget
from repro.shard.partition import GridPartitioner, Partitioner, trajectory_center
from repro.shard.summary import ShardSummary
from repro.trajectory.model import Trajectory, TrajectorySet

__all__ = ["ShardedQueryPlan", "ShardedSearcher", "ShardCollection"]

_EPS = 1e-9

#: Default shard count when the caller does not size the grid.
DEFAULT_NUM_SHARDS = 8


class _Shard:
    """One shard: a database view, its searcher, and routing bookkeeping."""

    __slots__ = (
        "shard_id", "database", "searcher",
        "center_x", "center_y", "count", "summary", "version", "summary_version",
    )

    def __init__(self, shard_id: int, database: TrajectoryDatabase, searcher):
        self.shard_id = shard_id
        self.database = database
        self.searcher = searcher
        self.center_x = 0.0  # running sums of member bbox centers (routing)
        self.center_y = 0.0
        self.count = 0
        self.summary: ShardSummary | None = None
        self.version = 0
        self.summary_version = -1


class _ShardSearcher(CollaborativeSearcher):
    """The per-shard execution engine: plans like the flat searcher (the
    schedule orders shards by that estimate), executes as a scan.

    The scattering parent supplies shared per-source *distance maps* (one
    dense ``|V|``-array per query location, computed once per query — the
    spatial work flat search would repeat per shard is paid exactly once)
    and the shard answers with :func:`~repro.core.scan.scan_topk` over its
    own members: exact for every member, so the merged global top-k equals
    the brute-force canonical answer.
    """

    def __init__(self, view, scheduler, batch_size, refinement, alt):
        super().__init__(view, scheduler, batch_size, refinement, alt)
        self._arrays = ScanArrays(view)

    def execute(
        self,
        plan: QueryPlan,
        budget: SearchBudget | None = None,
        *,
        score_floor: float | None,
        distance_maps: np.ndarray,
    ) -> SearchResult:
        """``budget`` is ignored: budgeted queries never scatter."""
        with execute_span("shard-scan") as span:
            started = time.perf_counter()
            result = self._arrays.topk(distance_maps, plan.query, score_floor)
            result.stats.elapsed_seconds = time.perf_counter() - started
            annotate_search_span(span, result)
        return result


class ShardCollection:
    """The shards of one parent database, kept in sync under mutation.

    Built once per :class:`ShardedSearcher`; a listener on the parent
    database routes every ``add`` to the shard whose member centroid is
    nearest (deterministic, partitioner-agnostic) and every ``remove`` to
    the owning shard, so shard views, their indexes/caches, and the lazily
    rebuilt summaries never go stale.
    """

    def __init__(
        self,
        database: TrajectoryDatabase,
        partitioner: Partitioner,
        searcher_factory,
    ):
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
            shard = _Shard(shard_id, view, searcher_factory(view))
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
    """A :class:`QueryPlan` carrying the per-shard scatter schedule.

    The parallel tuples are aligned: entry ``i`` describes the shard with
    id ``shard_ids[i]``.  ``plan_floor`` is the planning-time global floor
    (kth textual bound); the top-level ``estimated_cost`` sums only the
    shards not already prunable at that floor.
    """

    shard_ids: tuple[int, ...] = ()
    shard_costs: tuple[float, ...] = ()
    shard_upper_bounds: tuple[float, ...] = ()
    shard_sizes: tuple[int, ...] = ()
    shard_candidates: tuple[int, ...] = ()
    plan_floor: float = 0.0
    #: Shard-collection mutation count at planning time; a mismatch at
    #: execute time means the scatter schedule is stale and is re-planned.
    plan_version: int = -1
    shard_plans: tuple[QueryPlan, ...] = field(default=(), repr=False)

    def describe(self) -> str:
        lines = [super().describe()]
        prunable = sum(
            1 for ub in self.shard_upper_bounds if ub < self.plan_floor - _EPS
        )
        lines.append(
            f"  shards:       {len(self.shard_ids)} planned, "
            f"{prunable} prunable at plan floor {self.plan_floor:.4f} "
            "(kth textual bound); schedule = est. cost ascending"
        )
        order = sorted(
            range(len(self.shard_ids)),
            key=lambda i: (self.shard_costs[i], self.shard_ids[i]),
        )
        for i in order:
            pruned = " [prunable]" if (
                self.shard_upper_bounds[i] < self.plan_floor - _EPS
            ) else ""
            lines.append(
                f"  shard[{self.shard_ids[i]}]:     "
                f"cost={self.shard_costs[i]:.0f} "
                f"size={self.shard_sizes[i]} "
                f"candidates={self.shard_candidates[i]} "
                f"ub={self.shard_upper_bounds[i]:.4f}{pruned}"
            )
        return "\n".join(lines)


class ShardedSearcher(CollaborativeSearcher):
    """Scatter-gather top-k over spatially partitioned shards.

    Subclasses :class:`CollaborativeSearcher` so text-only (``lam=0``) and
    budgeted queries delegate to the flat pipeline on the parent database
    (their semantics stay byte-identical), while un-budgeted spatial
    queries scatter across the shard views.

    Parameters beyond the base searcher's:

    shards:
        Target shard count for the default grid partitioner (the actual
        count is the number of non-empty grid cells).
    workers:
        Fan-out width per scheduling wave.  ``None`` picks
        ``min(shards, cpu_count)``; ``1`` (or an unavailable ``fork``, or
        running inside another fork fan-out) scatters sequentially in
        process, which also gives fully nested per-shard trace spans.
    partitioner:
        Any :class:`~repro.shard.partition.Partitioner`; defaults to the
        uniform grid.  This is the graph-partitioner hook.
    scatter_mode:
        ``"auto"`` (fork when beneficial and available) or
        ``"sequential"`` — execute every wave in process while keeping the
        ``workers``-wide wave schedule, so ``shard_critical_seconds``
        measures the parallel critical path without fork overhead or CPU
        contention (the measurement harness for single-core machines).
    """

    plan_name = "sharded"

    def __init__(
        self,
        database: TrajectoryDatabase,
        shards: int = DEFAULT_NUM_SHARDS,
        workers: int | None = None,
        scheduler: str | Scheduler = "heuristic",
        batch_size: int = 16,
        refinement: bool | None = None,
        alt: bool | None = None,
        partitioner: Partitioner | None = None,
        max_task_retries: int = 2,
        scatter_mode: str = "auto",
    ):
        super().__init__(database, scheduler, batch_size, refinement, alt)
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if scatter_mode not in ("auto", "sequential"):
            raise ValueError(
                f"scatter_mode must be 'auto' or 'sequential', got {scatter_mode!r}"
            )
        self._workers = workers
        self._scatter_mode = scatter_mode
        self._max_task_retries = max_task_retries
        make_shard_searcher = lambda view: _ShardSearcher(  # noqa: E731
            view, scheduler, batch_size, refinement, alt
        )
        self._collection = ShardCollection(
            database, partitioner or GridPartitioner(shards), make_shard_searcher
        )

    # ----------------------------------------------------------------- API
    def plan(self, query: UOTSQuery) -> ShardedQueryPlan:
        """The flat plan plus the per-shard scatter schedule."""
        base = super().plan(query)
        shards = [s for s in self._collection.shards if len(s.database)]
        floor = self._textual_floor(query)
        caps_by_shard = self._shard_caps(query, shards)
        ids, costs, ubs, sizes, candidates, plans = [], [], [], [], [], []
        for shard, caps in zip(shards, caps_by_shard):
            shard_plan = shard.searcher.plan(query)
            summary = self._collection.summary_of(shard)
            # The flat cost formula with the *shard's* reach: every source
            # settles at worst the shard's covered vertices.
            cost = float(
                shard_plan.candidate_count
                + (0 if query.lam == 0.0 else query.num_locations * summary.covered.size)
            )
            ids.append(shard.shard_id)
            costs.append(cost)
            ubs.append(summary.upper_bound(query.lam, query.keywords, query.text_measure, caps))
            sizes.append(len(shard.database))
            candidates.append(shard_plan.candidate_count)
            plans.append(shard_plan)
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
            notes=base.notes + (f"scatter-gather over {len(ids)} shards",),
            shard_ids=tuple(ids),
            shard_costs=tuple(costs),
            shard_upper_bounds=tuple(ubs),
            shard_sizes=tuple(sizes),
            shard_candidates=tuple(candidates),
            plan_floor=floor,
            plan_version=self._collection.mutations,
            shard_plans=tuple(plans),
        )

    def execute(
        self,
        plan: QueryPlan,
        budget: SearchBudget | None = None,
        *,
        score_floor: float | None = None,
        unseen_caps: list[float] | None = None,
    ) -> SearchResult:
        """Scatter, merge, prune; or delegate to the flat pipeline.

        Budgeted (anytime) and text-only queries run the inherited flat
        path on the parent database — identical results to the unsharded
        collaborative searcher by construction.  ``score_floor`` /
        ``unseen_caps`` exist for protocol compatibility and are ignored
        (this searcher *is* the merging caller).
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
            result = self._scatter_gather(plan, query)
            if span is not None:
                annotate_search_span(span, result)
            return result

    # ----------------------------------------------------- scatter-gather
    def _scatter_gather(self, plan: ShardedQueryPlan, query: UOTSQuery) -> SearchResult:
        started = time.perf_counter()
        stats = SearchStats()
        tracer = current_tracer()
        collection = self._collection
        shards = [
            collection.shards[sid]
            for sid in plan.shard_ids
            if len(collection.shards[sid].database)
        ]
        shard_plans = {
            sid: shard_plan for sid, shard_plan in zip(plan.shard_ids, plan.shard_plans)
        }
        # Bounds against the *current* summaries (the plan may be stale).
        caps_by_shard = self._shard_caps(query, shards)
        bounds = {
            shard.shard_id: collection.summary_of(shard).upper_bound(
                query.lam, query.keywords, query.text_measure, caps
            )
            for shard, caps in zip(shards, caps_by_shard)
        }

        text_scores = exact_text_scores(self._database, query)
        floor = self._floor_from_scores(query, text_scores)
        # The query's spatial work, paid once for every shard: one dense
        # distance array per query location (CSR kernel, vectorised).
        # Shards then answer with member scans instead of re-expanding the
        # network per shard — this sharing is what makes the scatter's
        # critical path (max shard, not sum) beat the flat search.
        distance_maps = sssp_arrays_batch(
            self._database.graph.csr, list(query.locations)
        )
        order = sorted(
            shards, key=lambda s: (shard_plans[s.shard_id].estimated_cost, s.shard_id)
        )
        workers = self._resolve_workers(len(order))
        use_fork = (
            self._scatter_mode == "auto"
            and workers > 1
            and _executor.fork_available()
            and not _executor._WORKER_STATE  # no nested pools inside a worker
        )
        # Waves are ``workers`` wide even when executed sequentially in
        # process: the wave schedule (and hence the floor-update points and
        # ``shard_critical_seconds``, the per-wave max) models the
        # ``workers``-way parallel run, which is what makes the sequential
        # mode a faithful critical-path measurement harness.  The first
        # wave is a *seed*: the single cheapest shard runs alone so the
        # merged collector's kth score exists before the wide fan-out —
        # one scan of critical path buys a real floor for every other
        # shard, which is what lets summary bounds prune whole shards even
        # when ``workers >= shards`` would otherwise put everything in one
        # floor-less wave.
        wave_width = workers
        waves = []
        if order:
            waves.append(order[:1])
            for at in range(1, len(order), wave_width):
                waves.append(order[at:at + wave_width])

        topk = TopK(query.k)
        forked = False
        stats.shards_planned = len(plan.shard_ids)
        for wave in waves:
            survivors = []
            for shard in wave:
                if floor > 0.0 and bounds[shard.shard_id] < floor - _EPS:
                    stats.shards_pruned += 1
                    stats.pruned_trajectories += len(shard.database)
                    if tracer.enabled:
                        with tracer.span(
                            f"shard[{shard.shard_id}]", pruned=True,
                            upper_bound=bounds[shard.shard_id],
                        ):
                            pass
                    continue
                survivors.append(shard)
            if not survivors:
                continue
            # The floor handed to shard searches keeps a 2*eps slack so a
            # candidate whose exact score *ties* the floor is still scored
            # and offered — the merged TopK's shared total order (score
            # desc, id asc) then resolves ties exactly like the flat path.
            shard_floor = floor - 2.0 * _EPS if floor > 0.0 else None
            outcome = None
            if use_fork and len(survivors) > 1:
                # Built here, a snapshot is inherited by every later fork;
                # built in a worker it dies with it, after its refcount
                # traffic has copied the worker's heap page by page.
                for shard in survivors:
                    shard.searcher._arrays.snapshot()
                try:
                    outcome = _executor._fork_shard_batch(
                        [s.searcher for s in survivors],
                        [shard_plans[s.shard_id] for s in survivors],
                        shard_floor,
                        workers,
                        self._max_task_retries,
                        distance_maps=distance_maps,
                    )
                except _executor.FanOutBusy:
                    # A concurrent request is mid-fork: run this wave in
                    # process below instead of failing the request.
                    pass
            if outcome is not None:
                forked = True
                results, telemetries = outcome
                if tracer.enabled:
                    for shard, result, telemetry in zip(
                        survivors, results, telemetries
                    ):
                        # The owning shard span; the worker's execute tree
                        # (harvested telemetry) grafts underneath it, so a
                        # stitched trace breaks the scatter down per shard.
                        with tracer.span(
                            f"shard[{shard.shard_id}]",
                            executed=True,
                            items=len(result.items),
                            elapsed_seconds=result.stats.elapsed_seconds,
                            evaluations=result.stats.similarity_evaluations,
                            executor=result.stats.executor,
                        ) as sspan:
                            harvest.graft_telemetry(tracer, sspan, telemetry)
                        if sspan is not None:
                            # The wrapper span opened after the fork
                            # returned; the shard's honest wall time is
                            # what its worker measured.
                            sspan.duration_s = result.stats.elapsed_seconds
            else:
                results = []
                for shard in survivors:
                    with tracer.span(f"shard[{shard.shard_id}]", executed=True) as sspan:
                        result = shard.searcher.execute(
                            shard_plans[shard.shard_id],
                            score_floor=shard_floor,
                            distance_maps=distance_maps,
                        )
                        if sspan is not None:
                            sspan.set("items", len(result.items))
                            sspan.set("evaluations", result.stats.similarity_evaluations)
                    results.append(result)
            wave_seconds = [r.stats.elapsed_seconds for r in results]
            stats.shard_seconds += sum(wave_seconds)
            stats.shard_critical_seconds += max(wave_seconds, default=0.0)
            stats.shards_executed += len(survivors)
            for result in results:
                stats.merge(result.stats)
                for item in result.items:
                    topk.offer(item)
            floor = max(floor, topk.threshold)

        if not topk.full:
            self._zero_fill(
                topk, SearchStats(),
                exclude={item.trajectory_id for item in topk.ranked()},
            )
        # Merged bookkeeping: wall time is the parent's, not the shard sum;
        # the candidate count is the global one (pruned shards contributed
        # no per-shard stats).
        stats.elapsed_seconds = time.perf_counter() - started
        stats.text_candidates = len(text_scores)
        stats.executor = "fork" if forked else ""
        stats.cache = ""
        # The merge above summed the member shards' (zero) estimates; the
        # served estimate is the scheduled scatter cost of this plan.
        stats.estimated_cost = plan.estimated_cost
        return SearchResult(items=topk.ranked(), stats=stats)

    # ------------------------------------------------------------- helpers
    def _resolve_workers(self, num_shards: int) -> int:
        workers = self._workers
        if workers is None:
            workers = min(num_shards, os.cpu_count() or 1)
        return max(1, min(workers, max(1, num_shards)))

    def _textual_floor(self, query: UOTSQuery) -> float:
        """Planning-time floor: kth best ``(1-lam) * SimT`` globally."""
        return self._floor_from_scores(
            query, exact_text_scores(self._database, query)
        )

    def _floor_from_scores(
        self, query: UOTSQuery, text_scores: dict[int, float]
    ) -> float:
        """``score >= (1-lam) * SimT`` holds per trajectory, so with ``k``
        candidates the global kth exact score is at least the kth best
        textual component — a pruning floor available before any shard
        runs.  0 when fewer than ``k`` candidates exist (no guarantee)."""
        if len(text_scores) < query.k:
            return 0.0
        kth = sorted(text_scores.values(), reverse=True)[query.k - 1]
        return (1.0 - query.lam) * kth

    def _shard_caps(
        self, query: UOTSQuery, shards: list[_Shard]
    ) -> list[list[float] | None]:
        """Per-shard, per-source spatial contribution caps from landmarks."""
        landmark_index = self._collection.landmark_index
        if landmark_index is None or query.lam == 0.0:
            return [None] * len(shards)
        sources = np.array(query.locations, dtype=np.intp)
        alpha = query.lam / query.num_locations
        sigma = self._database.sigma
        caps: list[list[float] | None] = []
        for shard in shards:
            summary = self._collection.summary_of(shard)
            lbs = summary.distance_lower_bounds(landmark_index, sources)
            if lbs is None:
                caps.append(None)
            else:
                caps.append([alpha * math.exp(-lb / sigma) for lb in lbs])
        return caps
