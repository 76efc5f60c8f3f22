"""Cross-process telemetry harvest: worker spans and counters come home.

The search worker pool (:mod:`repro.parallel.pool`) and the join's
phase 1 (``TwoPhaseJoin(workers=N)``) run tasks in forked worker processes whose memory — including any spans
or metric increments they record — is copy-on-write private and dies with
the worker.  Before this module, the parent's trace showed a forked
``query`` as an opaque box and the process registry never saw worker-side
work.

The harvest protocol closes that gap in three steps:

1. **Capture (worker side).**  The parent sends a harvest config
   (:func:`harvest_config`) with each pooled query, or hands it to the
   join's pool as an initializer argument.  Each
   worker task runs inside :func:`collecting`, which activates a fresh
   bounded :class:`~repro.obs.trace.Tracer` (same per-trace caps as the
   parent's) and, when metric harvesting is on, a fresh
   :class:`~repro.obs.metrics.MetricsRegistry`.  Because both start
   empty, whatever they hold afterwards *is* the task's delta.
2. **Serialize.**  :meth:`HarvestCollector.telemetry` flattens the span
   trees to their JSONL dict shape and the registry to counter-delta
   tuples — a plain picklable :class:`WorkerTelemetry` that rides back
   alongside each ``SearchResult``.
3. **Graft and merge (parent side).**  The parent grafts the worker's
   span trees under the owning ``query``/``parallel_join`` span via
   :meth:`~repro.obs.trace.Tracer.graft` (through the trace's buffer
   caps) and folds the counter deltas into the harvest *sink* registry
   via :meth:`~repro.obs.metrics.MetricsRegistry.merge_counter_deltas`.

State-ownership rules (DESIGN.md §13): a child's tracer/registry are
created by, owned by, and die with that child — the parent only ever sees
their serialized form, and the merge targets live in its own namespace.
Worker deltas are published under dedicated ``repro_worker_*`` counters
rather than the parent's ``repro_search_*`` series: those are mirrored
from parent-side stats objects with ``set_total`` (which forbids external
increments), and the parent already merges worker *result stats* into its
stats objects — double-publishing the same work under one name would
double-count it.

The *sink* is the registry worker counter deltas merge into.  By default
there is none (metric harvest off — span harvest alone follows the
ambient tracer); :func:`sink_to` installs one for a dynamic extent, which
is what :class:`~repro.service.service.QueryService` does around every
query when built with ``metrics=``.  Crashed workers ship nothing: the
executor emits a ``telemetry_lost`` trace event so a stitched trace is
explicit about whose telemetry vanished rather than silently thin.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer, activated, current_tracer

__all__ = [
    "WorkerTelemetry",
    "HarvestCollector",
    "collecting",
    "harvest_config",
    "current_sink",
    "sink_to",
    "graft_telemetry",
    "merge_telemetry",
]

#: Worker-side counter names (the parent-facing ``repro_worker_*``
#: namespace).  Kept here so capture and tests agree on the vocabulary.
WORKER_COUNTERS = {
    "tasks": ("repro_worker_tasks_total", "Tasks completed inside forked workers, by kind"),
    "elapsed": ("repro_worker_elapsed_seconds_total", "Wall time spent inside forked worker tasks"),
    "expanded": ("repro_worker_expanded_vertices_total", "Vertices settled inside forked workers"),
    "visited": ("repro_worker_visited_trajectories_total", "Trajectories visited inside forked workers"),
    "evaluations": ("repro_worker_similarity_evaluations_total", "Exact similarity evaluations inside forked workers"),
    "refinements": ("repro_worker_refinements_total", "Refinements computed inside forked workers"),
    "failed": ("repro_worker_failed_tasks_total", "Worker tasks that produced an error-marked result"),
}


@dataclass(frozen=True)
class WorkerTelemetry:
    """One worker task's serialized diagnostics (plain, picklable).

    ``spans`` holds the worker tracer's finished roots in
    :meth:`~repro.obs.trace.Span.to_dict` shape; ``counters`` the
    :meth:`~repro.obs.metrics.MetricsRegistry.counter_deltas` rows;
    ``dropped_spans``/``dropped_events`` the worker-side cap overflow
    (also embedded per root in ``spans``, which is what the parent-side
    graft actually counts).
    """

    spans: tuple = ()
    counters: tuple = ()
    dropped_spans: int = 0
    dropped_events: int = 0
    pid: int = 0

    @property
    def empty(self) -> bool:
        return not (self.spans or self.counters)


class HarvestCollector:
    """Worker-side capture context: one fresh tracer (+ registry) per task."""

    def __init__(
        self,
        spans: bool = True,
        metrics: bool = True,
        max_spans: int = 4096,
        max_events: int = 1024,
    ):
        # max_traces stays small: one task produces a handful of roots at
        # most (a search records exactly one plan+execute tree).
        self.tracer = Tracer(
            enabled=spans, max_spans=max_spans, max_events=max_events,
            max_traces=32,
        )
        self.registry = MetricsRegistry() if metrics else None

    def record_result(self, result, kind: str) -> None:
        """Fold one task's result stats into the worker counter namespace."""
        if result is None:
            return
        self.record_stats(result.stats, kind, failed=result.error is not None)

    def record_stats(self, stats, kind: str, failed: bool = False) -> None:
        """Fold one task's :class:`SearchStats` into the worker counters."""
        if self.registry is None:
            return
        registry = self.registry
        registry.counter(*WORKER_COUNTERS["tasks"]).inc(kind=kind)
        registry.counter(*WORKER_COUNTERS["elapsed"]).inc(
            max(0.0, stats.elapsed_seconds), kind=kind
        )
        for key, value in (
            ("expanded", stats.expanded_vertices),
            ("visited", stats.visited_trajectories),
            ("evaluations", stats.similarity_evaluations),
            ("refinements", stats.refinements),
        ):
            if value:
                registry.counter(*WORKER_COUNTERS[key]).inc(value, kind=kind)
        if failed:
            registry.counter(*WORKER_COUNTERS["failed"]).inc(kind=kind)

    def telemetry(self) -> WorkerTelemetry:
        """Serialize everything captured so far (picklable)."""
        spans = tuple(root.to_dict() for root in self.tracer.traces)
        counters = (
            self.registry.counter_deltas() if self.registry is not None else ()
        )
        return WorkerTelemetry(
            spans=spans,
            counters=counters,
            dropped_spans=self.tracer.dropped_spans_total,
            dropped_events=self.tracer.dropped_events_total,
            pid=os.getpid(),
        )


@contextmanager
def collecting(config: dict):
    """Run a worker task under its own harvest collector.

    ``config`` is the dict :func:`harvest_config` built in the parent.
    The collector's tracer is activated as the ambient tracer for the
    dynamic extent, so the existing instrumentation (``query`` /
    ``plan`` / ``execute`` spans, stage timers) records into it unchanged.
    """
    collector = HarvestCollector(
        spans=config.get("spans", True),
        metrics=config.get("metrics", True),
        max_spans=config.get("max_spans", 4096),
        max_events=config.get("max_events", 1024),
    )
    with activated(collector.tracer):
        yield collector


# --------------------------------------------------------------- parent side
#: The registry worker counter deltas merge into; ``None`` = metric
#: harvest off.  Swapped only via :func:`sink_to`.  Thread-local for the
#: same reason as the ambient tracer (see :mod:`repro.obs.trace`): gateway
#: worker threads install the sink around their own query blocks, and a
#: process-wide global would let one thread's exit switch every other
#: thread's harvest off mid-query.  The install and the merge always
#: happen on the same thread (``QueryService._traced`` wraps the whole
#: execution), so a thread-local is the correct scope.
_SINK = threading.local()


def current_sink() -> MetricsRegistry | None:
    """The registry harvested worker counters merge into (or ``None``)."""
    return getattr(_SINK, "registry", None)


@contextmanager
def sink_to(registry: MetricsRegistry):
    """Install ``registry`` as the calling thread's harvest sink for the
    dynamic extent."""
    previous = getattr(_SINK, "registry", None)
    _SINK.registry = registry
    try:
        yield registry
    finally:
        _SINK.registry = previous


def harvest_config() -> dict | None:
    """The harvest config to stage at fork time, or ``None`` for off.

    Span harvest follows the ambient tracer (workers inherit the parent's
    per-trace caps so a forked query obeys the same memory bounds as a
    sequential one); metric harvest follows the installed sink.  When
    neither is on, the fork paths skip the harvest entirely — the
    off-by-default cost is one global read per batch.
    """
    tracer = current_tracer()
    spans = tracer.enabled
    metrics = current_sink() is not None
    if not (spans or metrics):
        return None
    return {
        "spans": spans,
        "metrics": metrics,
        "max_spans": tracer.max_spans if spans else 4096,
        "max_events": tracer.max_events if spans else 1024,
    }


def graft_telemetry(tracer: Tracer, parent_span, telemetry: WorkerTelemetry) -> int:
    """Graft a worker's span trees under ``parent_span``; returns roots kept.

    Worker-side drop counts travel inside the serialized roots and are
    folded into the parent trace by :meth:`Tracer.graft` itself.
    """
    if telemetry is None or parent_span is None or not tracer.enabled:
        return 0
    kept = 0
    for record in telemetry.spans:
        if tracer.graft(parent_span, record) is not None:
            kept += 1
    return kept


def merge_telemetry(telemetry: WorkerTelemetry | None) -> None:
    """Merge a worker's counter deltas into the current sink (if any)."""
    if telemetry is None or not telemetry.counters:
        return
    sink = current_sink()
    if sink is not None:
        sink.merge_counter_deltas(telemetry.counters)
