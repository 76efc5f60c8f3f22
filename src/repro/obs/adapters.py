"""Adapters publishing pull-style sources into the registry.

Some components keep their own counters because they are the only place
the fact is known: the admission controller's in-flight count, the
result cache's hits / misses / invalidation scope, the tracer's dropped
spans, the slow-query journal, a buffer pool's ``BufferStats`` and the
chaos-testing ``FaultInjector``.  Each ``bind_*`` function here takes
such a *live* object and a :class:`~repro.obs.metrics.MetricsRegistry`,
registers a collector that publishes the object's current totals into
named instruments at export time, and returns that collector (tests call
it directly).  Each fact has one owner: what a query did is written by
``QueryService`` straight into the registry, never mirrored from here.

Metric names follow the DESIGN.md §8 convention
(``repro_<subsystem>_<what>[_total]``); all ``bind_*`` functions default
to the process-wide registry when ``registry`` is omitted.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

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

Collector = Callable[[], None]


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
    nor misses.  The ``repro_invalidation_*`` series (scope of the
    scoped invalidation, by mutation kind) appear once the first mutation
    event reached the cache.
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

    def collect() -> None:
        stats = cache.stats
        hits.set_total(stats.hits, **labels)
        misses.set_total(stats.misses, **labels)
        evictions.set_total(stats.evictions, **labels)
        entries.set(len(cache), **labels)
        kinds = dict(cache.invalidation_kinds)
        for kind, count in sorted(kinds.items()):
            events.set_total(count, kind=kind, **labels)
        if kinds:
            dropped.set_total(cache.invalidation_entries_dropped, **labels)
            retained.set_total(cache.invalidation_entries_retained, **labels)

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
