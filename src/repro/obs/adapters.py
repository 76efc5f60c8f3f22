"""Adapters publishing pull-style sources into the registry.

Some components keep their own counters because they are the only place
the fact is known: the admission controller's in-flight count, the
result cache's hits / misses / invalidation scope, the tracer's dropped
spans, the slow-query journal, a buffer pool's ``BufferStats`` and the
chaos-testing ``FaultInjector``.  Each ``bind_*`` function here takes
such a *live* object and a :class:`~repro.obs.metrics.MetricsRegistry`
and binds it under the registry's one collector for its kind
(:meth:`~repro.obs.metrics.MetricsRegistry.register_source`), which
publishes the current totals of every bound object of that kind into
named instruments at export time: summed, except the slow-query
journals' worst latency (their maximum) and threshold (their minimum).
Each fact has one owner: what a query did is written by ``QueryService``
straight into the registry, never mirrored from here.

Metric names follow the DESIGN.md §8 convention
(``repro_<subsystem>_<what>[_total]``); all ``bind_*`` functions default
to the process-wide registry when ``registry`` is omitted.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.obs.metrics import MetricsRegistry, get_registry

if TYPE_CHECKING:  # pragma: no cover - typing only, keeps import light
    from repro.obs.slowlog import SlowQueryJournal
    from repro.obs.trace import Tracer
    from repro.perf.result_cache import ResultCache
    from repro.resilience.faults import FaultInjector
    from repro.service.admission import AdmissionController
    from repro.storage.buffer import BufferStats

__all__ = [
    "bind_tracer",
    "bind_slowlog",
    "bind_admission",
    "bind_buffer_stats",
    "bind_result_cache",
    "bind_fault_injector",
]


def bind_tracer(tracer: "Tracer", registry: MetricsRegistry | None = None) -> None:
    """Mirror tracers' lifetime drop counters into the registry.

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

    def publish(tracers: list) -> None:
        dropped_spans.set_total(sum(t.dropped_spans_total for t in tracers))
        dropped_events.set_total(sum(t.dropped_events_total for t in tracers))

    registry.register_source("tracer", tracer, publish)


def bind_slowlog(
    journal: "SlowQueryJournal", registry: MetricsRegistry | None = None
) -> None:
    """Mirror slow-query journals' admission counters and bounds."""
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

    def publish(journals: list) -> None:
        entries.set(sum(len(j) for j in journals))
        recorded.set_total(sum(j.recorded for j in journals))
        evicted.set_total(sum(j.evicted for j in journals))
        threshold.set(min(j.threshold_seconds for j in journals))
        worst.set(max(j.worst_seconds() for j in journals))

    registry.register_source("slowlog", journal, publish)


def bind_admission(
    controller: "AdmissionController", registry: MetricsRegistry | None = None
) -> None:
    """Mirror admission controllers' in-flight counts into the registry."""
    if registry is None:
        registry = get_registry()
    inflight = registry.gauge(
        "repro_service_inflight", "Queries currently holding an admission slot"
    )

    def publish(controllers: list) -> None:
        inflight.set(sum(c.inflight for c in controllers))

    registry.register_source("admission", controller, publish)


def bind_buffer_stats(
    stats: "BufferStats", registry: MetricsRegistry | None = None
) -> None:
    """Mirror buffer pools' :class:`BufferStats` (hits/misses/retries)."""
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

    def publish(bound: list) -> None:
        total_hits = sum(s.hits for s in bound)
        accesses = sum(s.accesses for s in bound)
        hits.set_total(total_hits)
        misses.set_total(sum(s.misses for s in bound))
        evictions.set_total(sum(s.evictions for s in bound))
        retries.set_total(sum(s.retries for s in bound))
        hit_ratio.set(total_hits / accesses if accesses else 0.0)

    registry.register_source("buffer_stats", stats, publish)


def bind_result_cache(
    cache: "ResultCache", registry: MetricsRegistry | None = None
) -> None:
    """Mirror service-level result caches into the registry.

    Counters follow the service namespace (the cache is a serving-layer
    structure, not a per-database one): only *eligible* lookups count —
    budgeted queries bypass the cache entirely and appear in neither hits
    nor misses.  The ``repro_invalidation_*`` series (scope of the
    scoped invalidation, by mutation kind) appear once the first mutation
    event reached a cache.
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
    events = registry.counter(
        "repro_invalidation_events_total",
        "Result-cache invalidation events, by mutation kind",
    )
    dropped = registry.counter(
        "repro_invalidation_entries_dropped_total",
        "Result-cache entries dropped by scoped invalidation",
    )
    retained = registry.counter(
        "repro_invalidation_entries_retained_total",
        "Result-cache entries proven unaffected and retained, summed per event",
    )

    def publish(caches: list) -> None:
        stats = [cache.stats for cache in caches]
        hits.set_total(sum(st.hits for st in stats))
        misses.set_total(sum(st.misses for st in stats))
        evictions.set_total(sum(st.evictions for st in stats))
        entries.set(sum(len(cache) for cache in caches))
        kinds: dict[str, int] = {}
        for cache in caches:
            for kind, count in dict(cache.invalidation_kinds).items():
                kinds[kind] = kinds.get(kind, 0) + count
        for kind, count in sorted(kinds.items()):
            events.set_total(count, kind=kind)
        if kinds:
            dropped.set_total(sum(c.invalidation_entries_dropped for c in caches))
            retained.set_total(sum(c.invalidation_entries_retained for c in caches))

    registry.register_source("result_cache", cache, publish)


def bind_fault_injector(
    injector: "FaultInjector", registry: MetricsRegistry | None = None
) -> None:
    """Mirror chaos :class:`FaultInjector` counters into the registry."""
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

    def publish(injectors: list) -> None:
        injected.set_total(sum(i.injected_transients for i in injectors))
        observed.set_total(sum(i.observed_reads for i in injectors))
        corrupted.set_total(sum(len(i.corrupted_pages) for i in injectors))

    registry.register_source("fault_injector", injector, publish)
