"""Process-wide metrics: counters, gauges, fixed-bucket histograms.

One :class:`MetricsRegistry` aggregates everything a serving process wants
on a dashboard.  Instruments are created get-or-create by name (so every
layer can cheaply resolve the counter it increments), support optional
labels, and export two ways:

- :meth:`MetricsRegistry.render_prometheus` — the Prometheus text
  exposition format (``# HELP`` / ``# TYPE`` / sample lines), directly
  scrapeable or checkable line by line;
- :meth:`MetricsRegistry.snapshot` — a plain nested dict for JSON logging.

Naming convention (see DESIGN.md §8): ``repro_<subsystem>_<what>[_total]``
with ``_total`` reserved for monotone counters, base units (seconds, not
ms) in histograms, and the subsystem one of ``service``, ``search``,
``storage``, ``cache``, ``executor``, ``faults``, ``dataset``.

The registry of record is the module-level default
(:func:`get_registry`) — process-wide, fork-inherited copy-on-write like
the caches (a forked worker's increments die with it; the parent
re-aggregates worker results through the service layer).  Components take
an optional explicit registry so tests can isolate themselves.

A family nothing has written to yet exports nothing — no ``# HELP`` /
``# TYPE`` header and no snapshot key — so components can resolve every
instrument up front and a series appears with its first fact.

Collectors bridge pull-style sources:
:meth:`MetricsRegistry.register_source` keeps one collector per source
kind, which runs before every export and publishes the sum over every
live stats object of that kind (the adapter layer in
:mod:`repro.obs.adapters` is built on this).
"""

from __future__ import annotations

import re
import threading
from typing import Callable, Iterable

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "LATENCY_BUCKETS",
    "DRIFT_BUCKETS",
    "get_registry",
    "set_registry",
]

_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*\Z")
_LABEL_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*\Z")

#: Default latency buckets, in seconds (sub-ms to tens of seconds).
DEFAULT_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Service latency buckets: the defaults extended down to 10 microseconds.
#: Result-cache hits serve in O(1) — tens of microseconds — and all landed
#: in DEFAULT_BUCKETS' lowest (0.5 ms) bucket, making the hit path's
#: latency distribution invisible.  Used by the per-query service latency
#: histogram; other histograms keep the coarser defaults.
LATENCY_BUCKETS = (0.00001, 0.000025, 0.00005, 0.0001, 0.00025) + DEFAULT_BUCKETS

#: Buckets for plan-vs-actual drift ratios (measured work / estimated
#: cost).  Estimates are worst-case bounds, so most mass sits well below
#: 1.0; the >1.0 buckets catch genuine planner under-estimates.
DRIFT_BUCKETS = (0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 10.0)

_INF = float("inf")


def _label_key(labels: dict) -> tuple:
    return tuple(sorted(labels.items()))


def _escape(value: object) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace("\n", "\\n")
        .replace('"', '\\"')
    )


def _format_value(value: float) -> str:
    if value == _INF:
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


class _Instrument:
    """Shared shape of one named metric family (all label sets).

    Every mutation and every read goes through a per-instrument lock:
    one instrument is shared by every thread submitting through a
    service, and ``+=`` on a dict slot is not atomic under free-threaded
    interleavings.  The lock is uncontended in the common case and far
    cheaper than a lost increment is confusing.
    """

    kind = "untyped"

    def __init__(self, name: str, help: str = ""):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help
        self._lock = threading.Lock()

    @staticmethod
    def _check_labels(labels: dict) -> dict:
        for key in labels:
            if not _LABEL_RE.match(key):
                raise ValueError(f"invalid label name {key!r}")
        return labels

    @staticmethod
    def _render_labels(key: tuple) -> str:
        if not key:
            return ""
        inner = ",".join(f'{name}="{_escape(value)}"' for name, value in key)
        return "{" + inner + "}"


class Counter(_Instrument):
    """A monotonically increasing count (per label set)."""

    kind = "counter"

    def __init__(self, name: str, help: str = ""):
        super().__init__(name, help)
        self._values: dict[tuple, float] = {}

    def inc(self, amount: float = 1.0, **labels) -> None:
        """Add ``amount`` (>= 0) to the labelled series."""
        if amount < 0:
            raise ValueError(f"counters only go up; got {amount}")
        key = _label_key(self._check_labels(labels))
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def set_total(self, total: float, **labels) -> None:
        """Publish an externally accumulated monotone total.

        The adapter seam: the stats dataclasses already accumulate, so
        collectors mirror their totals instead of double-counting.  The
        value must not regress.
        """
        key = _label_key(self._check_labels(labels))
        with self._lock:
            if total < self._values.get(key, 0.0):
                raise ValueError(
                    f"counter {self.name} would regress from "
                    f"{self._values[key]} to {total}"
                )
            self._values[key] = float(total)

    def value(self, **labels) -> float:
        """Current count of the labelled series (0 if never touched)."""
        with self._lock:
            return self._values.get(_label_key(labels), 0.0)

    def samples(self) -> Iterable[tuple[str, float]]:
        with self._lock:
            items = sorted(self._values.items())
        for key, value in items:
            yield f"{self.name}{self._render_labels(key)}", value

    def snapshot_value(self):
        with self._lock:
            values = dict(self._values)
        if set(values) == {()}:
            return values[()]
        return {
            self._render_labels(key) or "": value
            for key, value in sorted(values.items())
        }


class Gauge(Counter):
    """A value that can go up and down (current in-flight, hit rate, ...)."""

    kind = "gauge"

    def inc(self, amount: float = 1.0, **labels) -> None:
        key = _label_key(self._check_labels(labels))
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels) -> None:
        self.inc(-amount, **labels)

    def set(self, value: float, **labels) -> None:
        """Set the labelled series to ``value``."""
        key = _label_key(self._check_labels(labels))
        with self._lock:
            self._values[key] = float(value)

    set_total = set  # gauges have no monotonicity to protect


class Histogram(_Instrument):
    """Fixed-bucket distribution (cumulative buckets, Prometheus-style)."""

    kind = "histogram"

    def __init__(
        self, name: str, help: str = "", buckets: tuple[float, ...] = DEFAULT_BUCKETS
    ):
        super().__init__(name, help)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("a histogram needs at least one bucket bound")
        if any(b <= a for a, b in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket bounds must strictly increase: {bounds}")
        self.buckets = bounds
        # Per label set: [per-bucket counts..., +Inf count], sum, count.
        self._series: dict[tuple, list] = {}

    def _series_for(self, labels: dict) -> list:
        key = _label_key(self._check_labels(labels))
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = [[0] * (len(self.buckets) + 1), 0.0, 0]
        return series

    def observe(self, value: float, **labels) -> None:
        """Record one observation."""
        with self._lock:
            counts, total, n = series = self._series_for(labels)
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    counts[i] += 1
                    break
            else:
                counts[-1] += 1
            series[1] = total + value
            series[2] = n + 1

    def count(self, **labels) -> int:
        """Observations recorded for the labelled series."""
        with self._lock:
            series = self._series.get(_label_key(labels))
            return series[2] if series else 0

    def sum(self, **labels) -> float:
        """Sum of observed values for the labelled series."""
        with self._lock:
            series = self._series.get(_label_key(labels))
            return series[1] if series else 0.0

    def _snapshot_series(self) -> list[tuple[tuple, list, float, int]]:
        with self._lock:
            return [
                (key, list(counts), total, n)
                for key, (counts, total, n) in sorted(self._series.items())
            ]

    def samples(self) -> Iterable[tuple[str, float]]:
        for key, counts, total, n in self._snapshot_series():
            cumulative = 0
            for bound, bucket_count in zip(
                self.buckets + (_INF,), counts
            ):
                cumulative += bucket_count
                bucket_key = key + (("le", _format_value(bound)),)
                yield (
                    f"{self.name}_bucket{self._render_labels(bucket_key)}",
                    cumulative,
                )
            yield f"{self.name}_sum{self._render_labels(key)}", total
            yield f"{self.name}_count{self._render_labels(key)}", n

    def snapshot_value(self):
        out = {}
        for key, counts, total, n in self._snapshot_series():
            out[self._render_labels(key) or ""] = {
                "buckets": {
                    _format_value(bound): count
                    for bound, count in zip(self.buckets + (_INF,), counts)
                },
                "sum": total,
                "count": n,
            }
        return out


class MetricsRegistry:
    """Get-or-create home of every instrument in one process.

    Instrument creation and collector registration are lock-guarded (they
    happen at wiring time); increments take a per-instrument lock so
    threads submitting through one service never lose counts (see
    ``_Instrument``).
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._instruments: dict[str, _Instrument] = {}
        self._collectors: list[Callable[[], None]] = []
        self._sources: dict[str, list] = {}

    # ------------------------------------------------------------- creation
    def _get_or_create(self, cls, name: str, help: str, **kwargs):
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if type(existing) is not cls:
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, not {cls.kind}"
                    )
                return existing
            instrument = cls(name, help, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        """Get or create the named counter."""
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Get or create the named gauge."""
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self, name: str, help: str = "", buckets: tuple[float, ...] = DEFAULT_BUCKETS
    ) -> Histogram:
        """Get or create the named histogram (buckets fixed at creation)."""
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    def register_source(
        self, kind: str, source: object, publish: Callable[[list], None]
    ) -> None:
        """Bind a pull-style ``source`` under the one collector for ``kind``.

        The first source of a kind registers ``publish``; before every
        export it runs once with every distinct source bound under that
        kind and publishes their combined totals.  So two services' result
        caches on one registry export one sum, not two totals that
        overwrite each other (and make a monotone counter regress); a
        source bound twice (a cache two services share) counts once.
        """
        with self._lock:
            sources = self._sources.get(kind)
            if sources is None:
                sources = self._sources[kind] = []
                self._collectors.append(lambda: publish(list(sources)))
            if not any(bound is source for bound in sources):
                sources.append(source)

    # --------------------------------------------------------------- export
    def collect(self) -> None:
        """Run every registered collector (export does this for you)."""
        for collector in list(self._collectors):
            collector()

    def render_prometheus(self) -> str:
        """The Prometheus text exposition of every instrument."""
        self.collect()
        lines: list[str] = []
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            samples = list(instrument.samples())
            if not samples:
                continue
            if instrument.help:
                lines.append(f"# HELP {name} {_escape(instrument.help)}")
            lines.append(f"# TYPE {name} {instrument.kind}")
            for sample_name, value in samples:
                lines.append(f"{sample_name} {_format_value(value)}")
        return "\n".join(lines) + "\n"

    def snapshot(self) -> dict:
        """A JSON-ready ``{metric name: value}`` view of the registry."""
        self.collect()
        snapshot = {
            name: instrument.snapshot_value()
            for name, instrument in sorted(self._instruments.items())
        }
        return {name: value for name, value in snapshot.items() if value != {}}

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __len__(self) -> int:
        return len(self._instruments)

    def __repr__(self) -> str:
        return f"MetricsRegistry({len(self._instruments)} instruments)"


#: The process-wide default registry (see the module docstring).
_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _REGISTRY


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide default (returns the previous one).

    For tests and embedders that want a clean slate; production processes
    keep the module default for their whole lifetime.
    """
    global _REGISTRY
    previous = _REGISTRY
    _REGISTRY = registry
    return previous
