"""Adapters publishing the existing stats classes into the registry.

The library already keeps three stats surfaces — ``SearchStats``,
``ServiceStats``, ``BufferStats`` — plus the chaos-testing
``FaultInjector`` counters.
Each ``bind_*`` function here takes a *live* stats object and a
:class:`~repro.obs.metrics.MetricsRegistry`, registers a collector that
mirrors the object's current totals into named instruments at export
time, and returns that collector (tests call it directly).  The stats
objects stay the source of truth, and each fact is exported once: a
query's work (including its per-query cache hits and misses) is
``repro_search_*_total``, mirrored from the service totals that every
answer — pooled or in process — folds into.

Metric names follow the DESIGN.md §8 convention
(``repro_<subsystem>_<what>[_total]``); all ``bind_*`` functions default
to the process-wide registry when ``registry`` is omitted.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.obs.metrics import MetricsRegistry, get_registry

if TYPE_CHECKING:  # pragma: no cover - typing only, keeps import light
    from repro.core.results import SearchStats
    from repro.obs.slowlog import SlowQueryJournal
    from repro.obs.trace import Tracer
    from repro.perf.result_cache import ResultCache
    from repro.resilience.faults import FaultInjector
    from repro.service.admission import AdmissionController
    from repro.service.stats import ServiceStats
    from repro.storage.buffer import BufferStats

__all__ = [
    "bind_search_stats",
    "bind_service_stats",
    "bind_tracer",
    "bind_slowlog",
    "bind_admission",
    "bind_buffer_stats",
    "bind_result_cache",
    "bind_fault_injector",
]

Collector = Callable[[], None]

#: SearchStats counter fields exported one-to-one, with help strings.
_SEARCH_FIELDS = {
    "visited_trajectories": "Trajectories visited across served queries",
    "expanded_vertices": "Dijkstra/expansion vertices settled",
    "similarity_evaluations": "Exact similarity evaluations",
    "pruned_trajectories": "Candidates eliminated by bounds",
    "text_candidates": "Candidates surviving the text filter",
    "refinements": "Point-to-set refinement computations",
    "retries": "Transient faults absorbed by retry inside searches",
    "degraded_queries": "Queries answered inexactly under a budget",
    "failed_queries": "Queries that raised inside the search core",
    "expand_batches": "Batched expansion rounds",
    "alt_pruned": "Frontier caps tightened by ALT lower bounds",
}


def bind_search_stats(
    stats: "SearchStats",
    registry: MetricsRegistry | None = None,
    **labels,
) -> Collector:
    """Mirror a live (monotone) :class:`SearchStats` into the registry.

    Bind accumulating instances — a service's ``stats.totals`` — not a
    single query's result stats, which a later bind would regress.
    """
    if registry is None:
        registry = get_registry()
    counters = {
        field: registry.counter(f"repro_search_{field}_total", help)
        for field, help in _SEARCH_FIELDS.items()
    }
    elapsed = registry.counter(
        "repro_search_elapsed_seconds_total", "Wall time spent inside searches"
    )
    shard_planned = registry.counter(
        "repro_shard_planned_total", "Shards considered by sharded plans"
    )
    shard_executed = registry.counter(
        "repro_shard_executed_total", "Shards actually searched"
    )
    shard_pruned = registry.counter(
        "repro_shard_pruned_total", "Shards skipped by the bound-based filter"
    )
    shard_seconds = registry.counter(
        "repro_shard_seconds_total", "Summed per-shard search time"
    )
    cache_hits = registry.counter(
        "repro_search_cache_hits_total", "Per-query cache hits, by cache"
    )
    cache_misses = registry.counter(
        "repro_search_cache_misses_total", "Per-query cache misses, by cache"
    )

    def collect() -> None:
        for field, counter in counters.items():
            counter.set_total(getattr(stats, field), **labels)
        elapsed.set_total(stats.elapsed_seconds, **labels)
        shard_planned.set_total(stats.shards_planned, **labels)
        shard_executed.set_total(stats.shards_executed, **labels)
        shard_pruned.set_total(stats.shards_pruned, **labels)
        shard_seconds.set_total(stats.shard_seconds, **labels)
        cache_hits.set_total(stats.distance_cache_hits, cache="distance", **labels)
        cache_hits.set_total(stats.text_cache_hits, cache="text", **labels)
        cache_misses.set_total(stats.distance_cache_misses, cache="distance", **labels)
        cache_misses.set_total(stats.text_cache_misses, cache="text", **labels)

    registry.register_collector(collect)
    return collect


def bind_service_stats(
    stats: "ServiceStats",
    registry: MetricsRegistry | None = None,
    **labels,
) -> Collector:
    """Mirror a :class:`ServiceStats` (outcomes, latency percentiles, totals)."""
    if registry is None:
        registry = get_registry()
    outcomes = registry.counter(
        "repro_service_queries_total", "Queries by outcome (served + rejected)"
    )
    p50 = registry.gauge(
        "repro_service_latency_p50_seconds", "Median latency over the recent window"
    )
    p95 = registry.gauge(
        "repro_service_latency_p95_seconds", "p95 latency over the recent window"
    )
    totals = bind_search_stats(stats.totals, registry, **labels)

    def collect() -> None:
        snapshot = stats.snapshot()
        outcomes.set_total(snapshot["exact_results"], outcome="exact", **labels)
        outcomes.set_total(snapshot["degraded_results"], outcome="degraded", **labels)
        outcomes.set_total(snapshot["failed_queries"], outcome="failed", **labels)
        outcomes.set_total(snapshot["rejected_queries"], outcome="rejected", **labels)
        p50.set(snapshot["p50_ms"] / 1000.0, **labels)
        p95.set(snapshot["p95_ms"] / 1000.0, **labels)
        # Invalidation and admission series materialise only once such an
        # event happened (get-or-create makes the repeats cheap).
        if "invalidation_events" in snapshot:
            invalidation_events = registry.counter(
                "repro_invalidation_events_total",
                "Result-cache invalidation events, by mutation kind",
            )
            for kind, count in snapshot["invalidation_kinds"].items():
                invalidation_events.set_total(count, kind=kind, **labels)
            registry.counter(
                "repro_invalidation_entries_dropped_total",
                "Result-cache entries dropped by scoped invalidation",
            ).set_total(snapshot["invalidation_entries_dropped"], **labels)
            registry.counter(
                "repro_invalidation_entries_retained_total",
                "Result-cache entries proven unaffected and retained, "
                "summed per event",
            ).set_total(snapshot["invalidation_entries_retained"], **labels)
        if "shed_reasons" in snapshot:
            shed = registry.counter(
                "repro_service_shed_total", "Queries shed by policy, by reason"
            )
            for reason, count in snapshot["shed_reasons"].items():
                shed.set_total(count, reason=reason, **labels)
        if "policy_degraded_results" in snapshot:
            degraded = registry.counter(
                "repro_service_policy_degraded_total",
                "Queries answered under an admission-tightened budget",
            )
            degraded.set_total(snapshot["policy_degraded_results"], **labels)
        if "tenants" in snapshot:
            per_tenant = registry.counter(
                "repro_service_tenant_queries_total",
                "Queries by tenant and admission outcome",
            )
            for tenant, lane in snapshot["tenants"].items():
                per_tenant.set_total(
                    lane["served"], tenant=tenant, outcome="served", **labels
                )
                per_tenant.set_total(
                    lane["rejected"], tenant=tenant, outcome="rejected", **labels
                )
        if "priorities" in snapshot:
            per_class = registry.counter(
                "repro_service_priority_queries_total",
                "Queries by priority class and admission outcome",
            )
            for priority, lane in snapshot["priorities"].items():
                per_class.set_total(
                    lane["served"], priority=priority, outcome="served", **labels
                )
                per_class.set_total(
                    lane["rejected"], priority=priority, outcome="rejected", **labels
                )
        if "plan_drift" in snapshot:
            drift_queries = registry.counter(
                "repro_plan_drift_queries_total",
                "Executed queries with a drift-comparable plan estimate, "
                "by algorithm",
            )
            drift_estimated = registry.counter(
                "repro_plan_drift_estimated_units_total",
                "Planner-estimated work units across drift-tracked queries",
            )
            drift_actual = registry.counter(
                "repro_plan_drift_actual_units_total",
                "Measured work units across drift-tracked queries",
            )
            for algorithm, lane in snapshot["plan_drift"].items():
                drift_queries.set_total(
                    lane["queries"], algorithm=algorithm, **labels
                )
                drift_estimated.set_total(
                    lane["estimated_units"], algorithm=algorithm, **labels
                )
                drift_actual.set_total(
                    lane["actual_units"], algorithm=algorithm, **labels
                )

    registry.register_collector(collect)

    def collect_both() -> None:
        collect()
        totals()

    return collect_both


def bind_tracer(
    tracer: "Tracer",
    registry: MetricsRegistry | None = None,
    **labels,
) -> Collector:
    """Mirror a tracer's lifetime drop counters into the registry.

    Non-zero values mean the per-trace buffer caps truncated spans or
    events — locally recorded or grafted from harvested workers — so an
    exported trace is thinner than the work it describes.  A dashboard
    line on these is the difference between "the query did little" and
    "the trace dropped the evidence".
    """
    if registry is None:
        registry = get_registry()
    dropped_spans = registry.counter(
        "repro_trace_dropped_spans_total",
        "Spans dropped by per-trace buffer caps (local and grafted)",
    )
    dropped_events = registry.counter(
        "repro_trace_dropped_events_total",
        "Events dropped by per-trace buffer caps (local and grafted)",
    )

    def collect() -> None:
        dropped_spans.set_total(tracer.dropped_spans_total, **labels)
        dropped_events.set_total(tracer.dropped_events_total, **labels)

    registry.register_collector(collect)
    return collect


def bind_slowlog(
    journal: "SlowQueryJournal",
    registry: MetricsRegistry | None = None,
    **labels,
) -> Collector:
    """Mirror a :class:`SlowQueryJournal`'s admission counters and bounds."""
    if registry is None:
        registry = get_registry()
    entries = registry.gauge(
        "repro_slowlog_entries", "Slow-query journal entries currently retained"
    )
    recorded = registry.counter(
        "repro_slowlog_recorded_total", "Queries admitted to the slow-query journal"
    )
    evicted = registry.counter(
        "repro_slowlog_evicted_total",
        "Journal entries evicted by a slower query under the worst-N bound",
    )
    threshold = registry.gauge(
        "repro_slowlog_threshold_seconds", "Journal admission latency threshold"
    )
    worst = registry.gauge(
        "repro_slowlog_worst_seconds", "Slowest latency currently journalled"
    )

    def collect() -> None:
        entries.set(len(journal), **labels)
        recorded.set_total(journal.recorded, **labels)
        evicted.set_total(journal.evicted, **labels)
        threshold.set(journal.threshold_seconds, **labels)
        worst.set(journal.worst_seconds(), **labels)

    registry.register_collector(collect)
    return collect


def bind_admission(
    controller: "AdmissionController",
    registry: MetricsRegistry | None = None,
    **labels,
) -> Collector:
    """Mirror an admission controller's in-flight count into the registry."""
    if registry is None:
        registry = get_registry()
    inflight = registry.gauge(
        "repro_service_inflight", "Queries currently holding an admission slot"
    )

    def collect() -> None:
        inflight.set(controller.inflight, **labels)

    registry.register_collector(collect)
    return collect


def bind_buffer_stats(
    stats: "BufferStats",
    registry: MetricsRegistry | None = None,
    **labels,
) -> Collector:
    """Mirror a buffer pool's :class:`BufferStats` (hits/misses/retries)."""
    if registry is None:
        registry = get_registry()
    hits = registry.counter(
        "repro_storage_page_hits_total", "Page requests served from the buffer pool"
    )
    misses = registry.counter(
        "repro_storage_page_misses_total", "Page requests that went to disk"
    )
    evictions = registry.counter(
        "repro_storage_page_evictions_total", "Pages evicted from the buffer pool"
    )
    retries = registry.counter(
        "repro_storage_read_retries_total", "Physical reads retried after transient faults"
    )
    hit_ratio = registry.gauge(
        "repro_storage_page_hit_ratio", "Fraction of page requests served from memory"
    )

    def collect() -> None:
        hits.set_total(stats.hits, **labels)
        misses.set_total(stats.misses, **labels)
        evictions.set_total(stats.evictions, **labels)
        retries.set_total(stats.retries, **labels)
        hit_ratio.set(stats.hit_ratio, **labels)

    registry.register_collector(collect)
    return collect


def bind_result_cache(
    cache: "ResultCache",
    registry: MetricsRegistry | None = None,
    **labels,
) -> Collector:
    """Mirror the service-level result cache into the registry.

    Counters follow the service namespace (the cache is a serving-layer
    structure, not a per-database one): only *eligible* lookups count —
    budgeted queries bypass the cache entirely and appear in neither hits
    nor misses.
    """
    if registry is None:
        registry = get_registry()
    hits = registry.counter(
        "repro_service_result_cache_hits_total",
        "Queries answered from the service-level result cache",
    )
    misses = registry.counter(
        "repro_service_result_cache_misses_total",
        "Cache-eligible queries that had to execute the search",
    )
    evictions = registry.counter(
        "repro_service_result_cache_evictions_total",
        "Result-cache entries evicted by the LRU bound",
    )
    entries = registry.gauge(
        "repro_service_result_cache_entries", "Results currently cached"
    )

    def collect() -> None:
        stats = cache.stats
        hits.set_total(stats.hits, **labels)
        misses.set_total(stats.misses, **labels)
        evictions.set_total(stats.evictions, **labels)
        entries.set(len(cache), **labels)

    registry.register_collector(collect)
    return collect


def bind_fault_injector(
    injector: "FaultInjector",
    registry: MetricsRegistry | None = None,
    **labels,
) -> Collector:
    """Mirror a chaos :class:`FaultInjector`'s counters into the registry."""
    if registry is None:
        registry = get_registry()
    injected = registry.counter(
        "repro_faults_injected_transients_total", "Transient read faults injected"
    )
    observed = registry.counter(
        "repro_faults_observed_reads_total", "Physical reads seen by the injector"
    )
    corrupted = registry.counter(
        "repro_faults_corrupted_pages_total", "Pages deliberately corrupted"
    )

    def collect() -> None:
        injected.set_total(injector.injected_transients, **labels)
        observed.set_total(injector.observed_reads, **labels)
        corrupted.set_total(len(injector.corrupted_pages), **labels)

    registry.register_collector(collect)
    return collect
