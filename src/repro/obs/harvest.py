"""Cross-process span harvest: worker span trees come home.

The search worker pool (:mod:`repro.parallel.pool`) and the join's
phase 1 (``TwoPhaseJoin(workers=N)``) run tasks in forked worker processes
whose memory — including any spans they record — is copy-on-write private
and dies with the worker.  Without a harvest the parent's trace would show
a forked ``query`` as an opaque box.

The harvest protocol closes that gap in three steps:

1. **Capture (worker side).**  The parent sends a harvest config
   (:func:`harvest_config`) with each pooled query, or hands it to the
   join's pool as an initializer argument.  Each worker task runs inside
   :func:`collecting`, which activates a fresh bounded
   :class:`~repro.obs.trace.Tracer` (same per-trace caps as the parent's).
   Because it starts empty, whatever it holds afterwards *is* the task's
   trace.
2. **Serialize.**  :func:`span_records` flattens the finished span trees
   to their JSONL dict shape — a plain picklable tuple that rides back
   alongside each result.
3. **Graft (parent side).**  :func:`graft_telemetry` grafts the worker's
   span trees under the owning ``query``/``parallel_join`` span via
   :meth:`~repro.obs.trace.Tracer.graft`, through the trace's buffer caps.

Only spans travel.  A task's work counts already come home in its result
stats (``SearchStats``), which the parent merges and exports once as
``repro_search_*_total``; the harvest does not count them a second time.
A worker's tracer is created by, owned by, and dies with that worker — the
parent only ever sees its serialized form (DESIGN.md §13).  Crashed workers
ship nothing: the executor emits a ``telemetry_lost`` trace event so a
stitched trace is explicit about whose spans vanished rather than silently
thin.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.obs.trace import Tracer, activated, current_tracer

__all__ = ["collecting", "harvest_config", "span_records", "graft_telemetry"]


@contextmanager
def collecting(config: dict):
    """Run a worker task under its own bounded tracer; yields the tracer.

    ``config`` is the dict :func:`harvest_config` built in the parent.
    The tracer is activated as the ambient tracer for the dynamic extent,
    so the existing instrumentation (``query`` / ``plan`` / ``execute``
    spans, stage timers) records into it unchanged.
    """
    # max_traces stays small: one task produces a handful of roots at most
    # (a search records exactly one plan+execute tree).
    tracer = Tracer(
        max_spans=config["max_spans"], max_events=config["max_events"],
        max_traces=32,
    )
    with activated(tracer):
        yield tracer


def span_records(tracer: Tracer) -> tuple:
    """A task tracer's finished roots in :meth:`~repro.obs.trace.Span.to_dict`
    shape (picklable; worker-side drop counts ride inside each root)."""
    return tuple(root.to_dict() for root in tracer.traces)


def harvest_config() -> dict | None:
    """The harvest config to stage at fork time, or ``None`` for off.

    Harvest follows the ambient tracer: workers inherit the parent's
    per-trace caps so a forked query obeys the same memory bounds as a
    sequential one.  Without a tracer the fork paths skip the harvest
    entirely and the workers run the bare search.
    """
    tracer = current_tracer()
    if not tracer.enabled:
        return None
    return {"max_spans": tracer.max_spans, "max_events": tracer.max_events}


def graft_telemetry(tracer: Tracer, parent_span, records: tuple | None) -> int:
    """Graft a worker's span trees under ``parent_span``; returns roots kept.

    Worker-side drop counts travel inside the serialized roots and are
    folded into the parent trace by :meth:`Tracer.graft` itself.
    """
    if not records or parent_span is None or not tracer.enabled:
        return 0
    kept = 0
    for record in records:
        if tracer.graft(parent_span, record) is not None:
            kept += 1
    return kept
