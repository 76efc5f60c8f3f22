"""The serving layer: one database, one searcher, many queries.

:class:`QueryService` is the single substrate every batch-ish caller sits
on — the :class:`~repro.core.engine.TripRecommender` facade, the CLI's
``query``/``bench``/``explain`` commands, :func:`repro.parallel.executor.
parallel_search`, and the bench harness.  It owns one database plus one
stateless searcher (searchers hold no per-query state, so a single
instance serves arbitrarily many queries, sequentially or concurrently)
and layers on what a front-end needs and individual searchers should not
carry:

- **admission control** — one :class:`~repro.service.admission.
  AdmissionController` that *rejects* excess load: an in-flight cap,
  per-tenant weighted shares, priority classes, cost-based shedding over
  planned ``estimated_cost`` and graceful degradation under a
  policy-tightened budget (all off by default);
- **failure isolation** — a query that raises a library error comes back
  as an error-marked result, never as an exception that takes the batch
  down;
- **observability** — one :class:`~repro.obs.metrics.MetricsRegistry`
  that every answered query is written into once (outcome, latency
  histogram, executor path, work counters, plan drift) and per-query
  :meth:`explain` plans without execution;
- **result caching** — an optional bounded
  :class:`~repro.perf.result_cache.ResultCache` mapping a canonical query
  fingerprint to a completed result, so hot repeated trips are answered in
  O(1).  Hits carry ``stats.cache = "result"`` and are served *before*
  admission control (they do no search work, so they never compete for an
  in-flight slot); budgeted queries bypass the cache in both directions,
  and any database mutation clears it through the database's invalidation
  hook.

There is one pipeline of three stages — ``_probe`` (result cache),
``_admit`` (or record the rejection), ``_execute_admitted`` (search,
record, release) — and every caller composes it: :meth:`~QueryService.
submit` and ``execute_many`` run all three, :meth:`~QueryService.search`
runs probe → execute in process, and the asyncio gateway runs probe →
admit on its event loop and bridges the execute stage to a thread.  A
service has one executor: the :class:`~repro.parallel.pool.
SearchWorkerPool` it forks in its constructor (``pool=N``), to which
``_execute_admitted`` sends every admitted search while everything else
stays here in the parent.  Without one (the default) searches run on the
calling thread.  ``execute_many`` fans a batch out over that pool, never
wider than its live workers, and never forks.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import replace
from functools import partial
from typing import Hashable, Sequence

from repro.core.plan import QueryPlan, Searcher
from repro.core.query import UOTSQuery
from repro.core.registry import get_spec, make_searcher
from repro.core.results import SearchResult
from repro.index.database import TrajectoryDatabase
from repro.obs.adapters import (
    bind_admission,
    bind_result_cache,
    bind_slowlog,
    bind_tracer,
)
from repro.obs.metrics import (
    DRIFT_BUCKETS,
    LATENCY_BUCKETS,
    MetricsRegistry,
    get_registry,
)
from repro.obs.slowlog import SlowLogEntry, SlowQueryJournal
from repro.obs.trace import Tracer, activated
from repro.parallel.executor import _charged_search, _safe_search
from repro.parallel.pool import SearchWorkerPool
from repro.perf.result_cache import ResultCache, query_fingerprint
from repro.resilience.budget import SearchBudget
from repro.service.admission import AdmissionController
from repro.service.policy import AdmissionDecision, AdmissionPolicy

__all__ = ["QueryService"]

#: The four ``repro_service_queries_total`` outcomes; every series exists
#: (at 0) from construction so a scrape can index any of them.
_OUTCOMES = ("exact", "degraded", "failed", "rejected")

#: ``SearchStats`` work fields as exported ``(field, series, help, labels)``,
#: in groups written together: an executed query writes a group when it
#: moved any field of it.  So an engine that never consults a cross-query
#: cache or plans a shard writes no series for them, and one that does
#: writes the group's zeros too (a sharded query that pruned nothing adds
#: 0 to ``repro_shard_pruned_total``).
_WORK_SERIES = (
    (("visited_trajectories", "repro_search_visited_trajectories_total",
      "Trajectories visited across served queries", {}),),
    (("expanded_vertices", "repro_search_expanded_vertices_total",
      "Dijkstra/expansion vertices settled", {}),),
    (("similarity_evaluations", "repro_search_similarity_evaluations_total",
      "Exact similarity evaluations", {}),),
    (("pruned_trajectories", "repro_search_pruned_trajectories_total",
      "Candidates eliminated by bounds", {}),),
    (("text_candidates", "repro_search_text_candidates_total",
      "Candidates surviving the text filter", {}),),
    (("refinements", "repro_search_refinements_total",
      "Point-to-set refinement computations", {}),),
    (("retries", "repro_search_retries_total",
      "Worker-crash re-runs plus storage retries absorbed inside searches", {}),),
    (("expand_batches", "repro_search_expand_batches_total",
      "Batched expansion rounds", {}),),
    (("alt_pruned", "repro_search_alt_pruned_total",
      "Frontier caps tightened by ALT lower bounds", {}),),
    (("elapsed_seconds", "repro_search_elapsed_seconds_total",
      "Wall time spent inside searches", {}),),
    (("distance_cache_hits", "repro_search_cache_hits_total",
      "Per-query cache hits, by cache", {"cache": "distance"}),
     ("distance_cache_misses", "repro_search_cache_misses_total",
      "Per-query cache misses, by cache", {"cache": "distance"})),
    (("text_cache_hits", "repro_search_cache_hits_total",
      "Per-query cache hits, by cache", {"cache": "text"}),
     ("text_cache_misses", "repro_search_cache_misses_total",
      "Per-query cache misses, by cache", {"cache": "text"})),
    (("shards_planned", "repro_shard_planned_total",
      "Shards considered by sharded plans", {}),
     ("shards_executed", "repro_shard_executed_total",
      "Shards actually searched", {}),
     ("shards_pruned", "repro_shard_pruned_total",
      "Shards skipped by the bound-based filter", {}),
     ("shard_seconds", "repro_shard_seconds_total",
      "Summed per-shard search time", {})),
)


class QueryService:
    """A query front-end over one database and one shared searcher.

    Parameters
    ----------
    database:
        The indexed trajectory database to serve.
    algorithm:
        Registry name of the search algorithm (see
        :mod:`repro.core.registry`).
    admission:
        ``None`` (unbounded), an in-flight cap ``n`` as an ``int``
        (shorthand for ``AdmissionPolicy(max_inflight=n)``), or a
        pre-built :class:`AdmissionController` carrying an
        :class:`~repro.service.policy.AdmissionPolicy` for multi-tenant
        share / priority / cost protection.
    trace:
        ``None``/``False`` (default, tracing off), ``True`` for a fresh
        :class:`~repro.obs.trace.Tracer`, or a pre-built tracer to share.
        When set, every query the service answers runs under an ambient
        ``query`` span with plan/execute/stage children (read them back
        via :attr:`tracer`).
    metrics:
        ``None``/``False`` (default: a private
        :class:`~repro.obs.metrics.MetricsRegistry`), ``True`` for the
        process-wide default registry, or an explicit registry.  The
        registry is the service's only record (read it back via
        :attr:`metrics`): every answered query writes its outcome,
        latency, executor path, work counters and plan drift into it
        once, and the admission controller, result cache, tracer and
        slow-query journal are bound to it as collectors.
    result_cache:
        ``None``/``False``/``0`` (default, no result caching), an entry
        bound as an ``int``, ``True`` for the default bound, or a
        pre-built :class:`~repro.perf.result_cache.ResultCache` to share
        between services.  When enabled, exact un-budgeted answers are
        cached under a canonical query fingerprint and identical repeats
        are served in O(1); the service registers a typed mutation
        listener on the database so ``add``/``remove`` invalidate only
        the entries they can affect (see
        :meth:`~repro.perf.result_cache.ResultCache.on_event`).
    slowlog:
        ``None``/``False``/``0`` (default, no journal), a worst-N
        capacity as an ``int``, ``True`` for the default capacity, or a
        pre-built :class:`~repro.obs.slowlog.SlowQueryJournal` (e.g. one
        with a latency threshold).  When set, every recorded query past
        the journal's threshold is considered for the bounded worst-N
        ring, capturing fingerprint, plan text, work counters, drift
        ratio, and — when tracing — the stitched trace (read it back via
        :attr:`slowlog` or ``repro slowlog``).
    pool:
        ``None``/``0`` (default: every search runs in this process) or
        the number of search worker processes to fork — here, in the
        constructor, so build the service before starting threads.  The
        service then holds a
        :class:`~repro.parallel.pool.SearchWorkerPool` (:attr:`pool`), its
        only executor: admitted searches, single or batched, run on its
        workers while cache, admission and recording stay in this
        process; :meth:`close` stops the workers.
    **searcher_kwargs:
        Tuning kwargs forwarded to the registry factory (``alt=``,
        ``batch_size=``, ``refinement=``, ``scheduler=``).
    """

    def __init__(
        self,
        database: TrajectoryDatabase,
        algorithm: str = "collaborative",
        admission: AdmissionController | int | None = None,
        trace: Tracer | bool | None = None,
        metrics: MetricsRegistry | bool | None = None,
        result_cache: ResultCache | int | bool | None = None,
        slowlog: SlowQueryJournal | int | bool | None = None,
        pool: int | None = None,
        **searcher_kwargs,
    ):
        self._database = database
        self._algorithm = algorithm
        self._searcher = make_searcher(database, algorithm, **searcher_kwargs)
        if not isinstance(admission, AdmissionController):
            # An int is shorthand for AdmissionPolicy(max_inflight=n).
            admission = AdmissionController(AdmissionPolicy(max_inflight=admission))
        self._admission = admission
        # The fingerprint pins the *resolved* serving configuration, so
        # services sharing one result cache can never alias across tunings
        # (and slowlog entries identify the exact query + tuning served).
        self._tuning_key = tuple(
            sorted(get_spec(algorithm).resolve_tuning(**searcher_kwargs).items())
        )
        if result_cache is True:
            result_cache = ResultCache()
        elif not isinstance(result_cache, ResultCache):
            # int capacity (0/None/False mean disabled, like LRUCache).
            result_cache = ResultCache(int(result_cache)) if result_cache else None
        if result_cache is not None and not result_cache.enabled:
            result_cache = None
        self._result_cache: ResultCache | None = result_cache
        if result_cache is not None:
            database.add_mutation_listener(self._on_mutation)
        if slowlog is True:
            slowlog = SlowQueryJournal()
        elif not isinstance(slowlog, SlowQueryJournal):
            # int capacity (0/None/False mean disabled, like the caches).
            slowlog = SlowQueryJournal(int(slowlog)) if slowlog else None
        self._slowlog: SlowQueryJournal | None = slowlog
        if trace is True:
            trace = Tracer()
        elif trace is False:
            trace = None
        self._tracer: Tracer | None = trace
        if metrics is True:
            metrics = get_registry()
        elif not isinstance(metrics, MetricsRegistry):
            metrics = MetricsRegistry()
        self._metrics = metrics
        self._bind(metrics)
        # Last: the workers fork with everything above already in place.
        # This is the only place a service forks.
        self._pool: SearchWorkerPool | None = None
        if pool:
            parent_only = (self._on_mutation,) if result_cache is not None else ()
            self._pool = SearchWorkerPool(
                self._searcher, database, pool, metrics, parent_only
            )

    def _bind(self, metrics: MetricsRegistry) -> None:
        """Resolve the instruments :meth:`_record` and :meth:`_admit` write
        and bind the service's pull-style sources as collectors."""
        bind_admission(self._admission, metrics)
        if self._result_cache is not None:
            bind_result_cache(self._result_cache, metrics)
        if self._tracer is not None:
            bind_tracer(self._tracer, metrics)
        if self._slowlog is not None:
            bind_slowlog(self._slowlog, metrics)
        self._outcomes = metrics.counter(
            "repro_service_queries_total", "Queries by outcome (served + rejected)"
        )
        for outcome in _OUTCOMES:
            self._outcomes.inc(0, outcome=outcome)
        # Sub-millisecond buckets: result-cache hits and pruned-out
        # queries finish far below DEFAULT_BUCKETS' lowest bound.
        self._latency = metrics.histogram(
            "repro_service_latency_seconds",
            "Per-query service latency, every outcome",
            buckets=LATENCY_BUCKETS,
        )
        self._executor_paths = metrics.counter(
            "repro_executor_queries_total", "Executed queries, by executor path"
        )
        self._work = [
            [
                (field, metrics.counter(name, help), labels)
                for field, name, help, labels in group
            ]
            for group in _WORK_SERIES
        ]
        self._drift = metrics.histogram(
            "repro_plan_drift_ratio",
            "Measured work / planner-estimated cost, by algorithm",
            buckets=DRIFT_BUCKETS,
        )
        self._drift_estimated = metrics.counter(
            "repro_plan_drift_estimated_units_total",
            "Planner-estimated work units across drift-tracked queries",
        )
        self._drift_actual = metrics.counter(
            "repro_plan_drift_actual_units_total",
            "Measured work units across drift-tracked queries",
        )
        self._shed = metrics.counter(
            "repro_service_shed_total", "Queries shed by policy, by reason"
        )
        self._policy_degraded = metrics.counter(
            "repro_service_policy_degraded_total",
            "Queries answered inexactly under an admission-tightened budget",
        )
        self._tenant_queries = metrics.counter(
            "repro_service_tenant_queries_total",
            "Queries by tenant and admission outcome",
        )
        self._priority_queries = metrics.counter(
            "repro_service_priority_queries_total",
            "Queries by priority class and admission outcome",
        )

    def close(self) -> None:
        """Stop the search workers (a no-op without a pool); the service
        keeps answering, in process."""
        if self._pool is not None:
            self._pool.close()

    # ------------------------------------------------------------ accessors
    @property
    def database(self) -> TrajectoryDatabase:
        """The underlying trajectory database."""
        return self._database

    @property
    def searcher(self) -> Searcher:
        """The shared, stateless searcher instance."""
        return self._searcher

    @property
    def algorithm(self) -> str:
        """The registry name the service was built with."""
        return self._algorithm

    @property
    def admission(self) -> AdmissionController:
        """The admission controller guarding :meth:`submit`."""
        return self._admission

    @property
    def tracer(self) -> Tracer | None:
        """The tracer queries run under (``None`` when tracing is off)."""
        return self._tracer

    @property
    def metrics(self) -> MetricsRegistry:
        """The registry every answered query is recorded in."""
        return self._metrics

    @property
    def result_cache(self) -> ResultCache | None:
        """The service-level result cache (``None`` when disabled)."""
        return self._result_cache

    @property
    def slowlog(self) -> SlowQueryJournal | None:
        """The slow-query journal (``None`` when disabled)."""
        return self._slowlog

    @property
    def pool(self) -> SearchWorkerPool | None:
        """The search worker pool (``None``: searches run in process)."""
        return self._pool

    # ------------------------------------------------------------- planning
    def plan(self, query: UOTSQuery) -> QueryPlan:
        """The searcher's plan, stamped with the *registry* name.

        Variants share searcher classes (``collaborative-rr`` is a pinned
        ``CollaborativeSearcher``), so the class-level plan name is
        rewritten to the name the service actually serves under.
        """
        plan = self._searcher.plan(query)
        if plan.algorithm != self._algorithm:
            plan = replace(plan, algorithm=self._algorithm)
        return plan

    def explain(self, query: UOTSQuery) -> str:
        """Render the query's plan without executing it.

        Once the service has served drift-comparable queries under this
        algorithm, the plan text gains an ``observed drift`` line — how
        measured work has actually compared to estimates like this one.
        """
        text = self.plan(query).describe()
        lane = {"algorithm": self._algorithm}
        queries = self._drift.count(**lane)
        if queries:
            mean = self._drift.sum(**lane) / queries
            pooled = self._drift_actual.value(**lane) / self._drift_estimated.value(
                **lane
            )
            text += (
                f"\nobserved drift: actual/estimated x{mean:.2f} mean, "
                f"x{pooled:.2f} in total, over {queries} queries"
            )
        return text

    # ------------------------------------------------------------ execution
    @contextmanager
    def _traced(self, name: str, **attributes):
        """Run a block under the service tracer (a no-op when tracing is
        off); yields the open span or ``None``."""
        if self._tracer is None:
            yield None
            return
        with activated(self._tracer), self._tracer.span(name, **attributes) as span:
            yield span

    def _record(
        self,
        result: SearchResult,
        elapsed_seconds: float,
        query: UOTSQuery | None = None,
        tenant: str | None = None,
        priority: str | None = None,
    ) -> None:
        """THE recording path: every answered query — ``search``,
        ``submit``, ``execute_many``, result-cache hits — is written into
        the registry here, one write per fact, so outcome counters, the
        latency histogram, work counters, drift accounting and the
        slow-query journal can never diverge between in-process and
        pooled execution.  A result-cache hit ran nowhere and did no work
        (its work counters are zero): it writes its outcome and latency,
        and the result cache's own hit counter is its only other record.
        """
        stats = result.stats
        if result.error is not None:
            outcome = "failed"
        elif result.exact:
            outcome = "exact"
        else:
            outcome = "degraded"
        self._outcomes.inc(outcome=outcome)
        self._latency.observe(elapsed_seconds)
        if tenant is not None:
            self._tenant_queries.inc(tenant=tenant, outcome="served")
        if priority is not None:
            self._priority_queries.inc(priority=priority, outcome="served")
        drift = None
        if stats.cache != "result":
            self._executor_paths.inc(path=stats.executor or "in-process")
            for group in self._work:
                values = [getattr(stats, field) for field, _, _ in group]
                if any(values):
                    for (_, counter, labels), value in zip(group, values):
                        counter.inc(value, **labels)
            drift = self._record_drift(result)
        if (
            self._slowlog is not None
            and query is not None
            and self._slowlog.would_record(elapsed_seconds)
        ):
            self._journal(query, result, elapsed_seconds, drift)

    def _record_drift(self, result: SearchResult) -> float | None:
        """Write one executed query's plan-vs-actual comparison; returns the
        drift ratio, or ``None`` when the query carries no comparable
        estimate (failures, plan-less search paths)."""
        stats = result.stats
        if result.error is not None or stats.estimated_cost <= 0.0:
            return None
        actual = float(stats.expanded_vertices + stats.similarity_evaluations)
        ratio = actual / stats.estimated_cost
        self._drift.observe(ratio, algorithm=self._algorithm)
        self._drift_estimated.inc(stats.estimated_cost, algorithm=self._algorithm)
        self._drift_actual.inc(actual, algorithm=self._algorithm)
        return ratio

    def _journal(
        self,
        query: UOTSQuery,
        result: SearchResult,
        elapsed_seconds: float,
        drift: float | None,
    ) -> None:
        """Admit one slow query to the journal (caller pre-checked
        :meth:`~repro.obs.slowlog.SlowQueryJournal.would_record`).  The
        describe text is deferred: re-planning a sharded query costs
        milliseconds, so the entry carries a provider that renders it on
        first read instead of taxing the serving path."""
        trace = None
        if self._tracer is not None:
            root = self._tracer.last_trace()
            # Only attach a root this query owns: sequential-batch queries
            # share one execute_many root, which must not be duplicated
            # into every entry of the batch.
            if root is not None and root.name == "query":
                trace = root
        self._slowlog.record(
            SlowLogEntry(
                fingerprint=query_fingerprint(
                    query, self._algorithm, self._tuning_key
                ),
                algorithm=self._algorithm,
                latency_seconds=elapsed_seconds,
                stats=result.stats,
                plan_provider=lambda: self.plan(query).describe(),
                trace=trace,
                drift_ratio=drift,
                degradation_reason=result.degradation_reason,
                error=result.error,
            )
        )

    # ------------------------------------------------------- result caching
    def _on_mutation(self, event) -> None:
        """Database mutation listener: scoped result-cache invalidation.

        Routes the typed event into the result cache with the database
        (its graph and sigma feed the add-survival bound; the cache counts
        the scope) and — when tracing — records an ``invalidation`` span
        carrying kind / trajectory id / dropped / retained so ingest churn
        is visible next to the queries it interleaves with.
        """
        dropped, retained = self._result_cache.on_event(event, self._database)
        with self._traced(
            "invalidation",
            kind=event.kind,
            trajectory_id=event.trajectory_id,
            entries_dropped=dropped,
            entries_retained=retained,
        ):
            pass  # no body: the span records the invalidation scope

    @staticmethod
    def _label_span_attrs(tenant: str | None, priority: str | None) -> dict:
        """Tenant/priority span attributes (empty for unlabelled traffic,
        keeping default-configuration traces byte-identical)."""
        labels = (("tenant", tenant), ("priority", priority))
        return {name: value for name, value in labels if value is not None}

    # ------------------------------------------------------------- pipeline
    def _probe(
        self,
        query: UOTSQuery,
        budget: SearchBudget | None,
        tenant: str | None = None,
        priority: str | None = None,
    ) -> tuple[float, Hashable | None, SearchResult | None]:
        """Stage 1: start the query's clock and probe the result cache.

        Returns ``(started, key, hit)``.  ``started`` is the one
        ``perf_counter`` reading both the recorded latency and the deadline
        charge run from.  ``key`` is the result-cache key, ``None`` when
        the cache is bypassed: cache disabled, or a budget that can trip
        (degraded answers are execution policy, never cacheable and never
        served from cache).  ``hit`` is the recorded cached answer, or
        ``None`` on a miss.  Hits are served before admission: they do no
        search work, so they never compete for an in-flight slot.
        """
        started = time.perf_counter()
        effective = budget if budget is not None else query.budget
        can_trip = effective is not None and not effective.unlimited
        if self._result_cache is None or can_trip:
            return started, None, None
        key = query_fingerprint(query, self._algorithm, self._tuning_key)
        hit = self._result_cache.get(key)
        if hit is None:
            return started, key, None
        if self._tracer is not None:
            # No execution: the span only marks the served hit.
            with self._traced(
                "query", algorithm=self._algorithm, k=query.k,
                result_cache="hit", **self._label_span_attrs(tenant, priority),
            ):
                pass
        hit.stats.elapsed_seconds = time.perf_counter() - started
        self._record(hit, hit.stats.elapsed_seconds, query, tenant, priority)
        return started, key, hit

    def _admit(
        self,
        query: UOTSQuery,
        started: float,
        tenant: str | None = None,
        priority: str | None = None,
    ) -> tuple[AdmissionDecision, SearchResult | None]:
        """Stage 2: the admission decision, planned first when the policy
        wants a cost opinion.

        Returns ``(decision, rejected)``.  A refusal is recorded here
        (outcome, latency, shed reason, lanes) and ``rejected`` is its
        error-marked result, wall time stamped like every other outcome.
        An admitted decision MUST be followed by exactly one
        :meth:`_execute_admitted`, which releases its slot.
        """
        cost = None
        if self._admission.needs_plan:
            try:
                cost = self.plan(query).estimated_cost
            except Exception:
                # An unplannable query is an invalid one; admission has no
                # cost opinion and _safe_search produces the error result.
                cost = None
        decision = self._admission.admit(tenant=tenant, priority=priority, cost=cost)
        if decision.admitted:
            return decision, None
        with self._traced(
            "query", algorithm=self._algorithm, k=query.k,
            admission="shed", shed_reason=decision.reason,
            **self._label_span_attrs(tenant, priority),
        ):
            pass  # never executed; the span records the shed
        rejected = SearchResult(
            items=[],
            exact=False,
            degradation_reason=f"shed by admission policy ({decision.reason})",
            error=f"AdmissionError: {decision.detail}",
        )
        rejected.stats.elapsed_seconds = time.perf_counter() - started
        self._outcomes.inc(outcome="rejected")
        self._latency.observe(rejected.stats.elapsed_seconds)
        self._shed.inc(reason=decision.reason)
        if tenant is not None:
            self._tenant_queries.inc(tenant=tenant, outcome="rejected")
        if priority is not None:
            self._priority_queries.inc(priority=priority, outcome="rejected")
        return decision, rejected

    def _execute_admitted(
        self,
        query: UOTSQuery,
        budget: SearchBudget | None,
        decision: AdmissionDecision | None,
        key: Hashable | None,
        started: float,
        executor_label: str | None = None,
        tenant: str | None = None,
        priority: str | None = None,
    ) -> SearchResult:
        """Stage 3: search, record, release the admission slot.

        Runs on the thread that waits for the answer (the gateway calls it
        from a bridge thread), owns the slot ``decision`` claimed, and
        releases it on every path.  The search runs on a worker of the
        service's pool when it has one, and on this thread otherwise;
        either way the time since ``started`` — the probe's clock — is
        charged to the budget's deadline and to the recorded latency.
        ``decision=None`` is :meth:`search`'s ungated path: in process,
        library errors raise.
        """
        pool = self._pool if decision is not None else None
        try:
            # The policy's tightened budget applies only when the caller
            # did not bring their own — an explicit budget always wins.
            policy_budget = (
                decision.budget if decision is not None and budget is None else None
            )
            effective = policy_budget if policy_budget is not None else budget
            attrs = {"result_cache": "miss"} if key is not None else {}
            attrs.update(self._label_span_attrs(tenant, priority))
            if policy_budget is not None:
                attrs.update(admission="degraded", admission_reason=decision.reason)
            with self._traced(
                "query", algorithm=self._algorithm, k=query.k, **attrs
            ) as span:
                if pool is not None:
                    result = pool.search(query, effective, started, span)
                else:
                    run = (
                        self._searcher.search
                        if decision is None
                        else partial(_safe_search, self._searcher)
                    )
                    result = _charged_search(run, query, effective, started)
            if executor_label is not None and not result.stats.executor:
                result.stats.executor = executor_label
            policy_degraded = (
                policy_budget is not None
                and result.error is None
                and not result.exact
            )
            if policy_degraded:
                self._policy_degraded.inc()
                note = f"admission degrade: {decision.detail}"
                result.degradation_reason = (
                    f"{result.degradation_reason}; {note}"
                    if result.degradation_reason
                    else note
                )
            if key is not None:
                self._result_cache.put(key, result, query=query)
            self._record(
                result,
                time.perf_counter() - started,
                query=query,
                tenant=tenant,
                priority=priority,
            )
            return result
        finally:
            if decision is not None:
                self._admission.release(decision)

    def _submit(
        self,
        query: UOTSQuery,
        budget: SearchBudget | None,
        executor_label: str | None,
        tenant: str | None = None,
        priority: str | None = None,
    ) -> SearchResult:
        """The full pipeline: probe → admit → execute → record."""
        started, key, hit = self._probe(query, budget, tenant, priority)
        if hit is not None:
            return hit
        decision, rejected = self._admit(query, started, tenant, priority)
        if rejected is not None:
            return rejected
        return self._execute_admitted(
            query, budget, decision, key, started, executor_label, tenant,
            priority,
        )

    # ------------------------------------------------------------ execution
    def search(
        self,
        query: UOTSQuery,
        budget: SearchBudget | None = None,
        tenant: str | None = None,
        priority: str | None = None,
    ) -> SearchResult:
        """Answer one query, letting library errors propagate.

        The exception-transparent sibling of :meth:`submit`, for embedded
        callers (the :class:`~repro.core.engine.TripRecommender` facade)
        where a strict budget or an invalid query should raise rather than
        come back as an error-marked result.  It runs the probe and execute
        stages in process; successful answers are recorded in the service
        registry.  ``tenant``/``priority`` label the lane counters and trace
        span; this path does not pass the admission gate (it never
        rejects), so no quota or shed policy applies.
        """
        started, key, hit = self._probe(query, budget, tenant, priority)
        if hit is not None:
            return hit
        return self._execute_admitted(
            query, budget, None, key, started, tenant=tenant, priority=priority
        )

    def submit(
        self,
        query: UOTSQuery,
        budget: SearchBudget | None = None,
        tenant: str | None = None,
        priority: str | None = None,
    ) -> SearchResult:
        """Answer one query through admission control and stats recording.

        Library errors come back as error-marked results (the executor's
        isolation contract); a query turned away by admission control
        returns an error-marked result with ``degradation_reason``
        ``"shed by admission policy (<reason>)"`` and is counted as
        rejected, not served.  A result-cache hit is answered *before* the
        admission gate — it does no search work, so it never competes for
        (or is turned away from) an in-flight slot.

        ``tenant`` and ``priority`` identify the caller to the admission
        policy (quotas, class-based shedding) and label the lane counters
        and trace span.  An unknown ``priority`` raises
        :class:`~repro.errors.QueryError` — it is an argument error, not
        a query outcome.  Under a cost policy the query is planned first;
        a borderline-expensive admission may
        come back *degraded*: the service attaches the policy's tightened
        budget (a caller-supplied ``budget`` always wins) and the answer
        is anytime (``exact=False`` with a usable ``confirmed_prefix()``),
        counted under ``repro_service_policy_degraded_total``.
        """
        return self._submit(query, budget, None, tenant, priority)

    def execute_many(
        self,
        queries: Sequence[UOTSQuery],
        budget: SearchBudget | None = None,
        tenant: str | None = None,
        priority: str | None = None,
    ) -> list[SearchResult]:
        """Answer a batch of queries, in query order.

        Every query goes through :meth:`submit`'s pipeline (result-cache
        probe, admission, search, recording).  On a pooled service the
        batch fans out over the pool: one thread per live worker, so the
        searches run at once on separate processes; a query whose worker
        died is re-run in this process.  Without a pool the batch runs
        sequentially on the calling thread.  Every result's
        ``stats.executor`` records the path that produced it
        (``"fork"``, ``"sequential"``, ``"sequential-fallback"``).

        The batch never runs wider than the admission cap, so its own
        parallelism cannot shed its own queries.  ``tenant``/``priority``
        apply to every query of the batch.
        """
        queries = list(queries)
        live = self._pool.live_workers if self._pool is not None else 1
        width = min(live, len(queries), self._admission.max_inflight or live)

        def submit(query: UOTSQuery) -> SearchResult:
            return self._submit(query, budget, "sequential", tenant, priority)

        with self._traced(
            "execute_many", queries=len(queries), workers=max(width, 1)
        ) as span:
            if width < 2:
                results = [submit(query) for query in queries]
            else:
                # Each thread's ``query`` span is a root of its own (spans
                # nest per thread); the batch span carries the totals.
                with ThreadPoolExecutor(width, "uots-batch") as threads:
                    results = list(threads.map(submit, queries))
            if span is not None and self._result_cache is not None:
                span.set(
                    "result_cache_hits",
                    sum(1 for result in results if result.stats.cache == "result"),
                )
        return results
