"""Observability: structured tracing + a process-wide metrics registry.

Pure-stdlib measurement substrate for the plan/execute/serve stack:

- :mod:`repro.obs.trace` — nested span trees (query → plan → stage →
  round), ambient activation, JSONL export, CLI rendering;
- :mod:`repro.obs.metrics` — counters / gauges / fixed-bucket histograms
  with Prometheus text exposition and a JSON snapshot;
- :mod:`repro.obs.adapters` — collectors publishing pull-style sources
  (admission, result cache, tracer, slow-query journal, buffer pool,
  fault injector) into the registry;
- :mod:`repro.obs.harvest` — the cross-process span harvest that
  brings forked workers' span trees home (their work counts come home
  in each result's stats, not here);
- :mod:`repro.obs.slowlog` — the bounded worst-N slow-query journal.

See DESIGN.md §8 for the span model, naming convention, and overhead
budget, and §13 for the harvest protocol, slow-query journal, and
plan-drift accounting.
"""

from repro.obs.adapters import (
    bind_buffer_stats,
    bind_fault_injector,
    bind_slowlog,
    bind_tracer,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    set_registry,
)
from repro.obs.slowlog import SlowLogEntry, SlowQueryJournal
from repro.obs.trace import (
    Span,
    StageTimer,
    Tracer,
    activated,
    current_tracer,
    format_trace,
)

__all__ = [
    "Span",
    "StageTimer",
    "Tracer",
    "activated",
    "current_tracer",
    "format_trace",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "LATENCY_BUCKETS",
    "get_registry",
    "set_registry",
    "SlowLogEntry",
    "SlowQueryJournal",
    "bind_tracer",
    "bind_slowlog",
    "bind_buffer_stats",
    "bind_fault_injector",
]
