"""Service-level aggregated statistics.

One :class:`ServiceStats` instance rides along with a
:class:`~repro.service.service.QueryService` and accumulates across every
query the service answers: outcome counters (served / exact / degraded /
failed / rejected), the merged per-query work counters, cache hit rates
over the database's cross-query caches, and a bounded latency reservoir
from which p50/p95 are read.

Admission adds *lanes* — per-tenant and per-priority served/rejected
counts, shed counts by reason, and the policy-degraded count.  Lanes are
created lazily the first time a labelled, shed or degraded query
arrives, and :meth:`snapshot` / :meth:`describe` only emit them when
non-empty.

Thread-safety: every mutation and every readout goes through one
instance-level lock — the counters, the ``totals`` merge, the lane dicts,
and the latency ring buffer.  :class:`LatencyReservoir` additionally
carries its *own* lock: the gateway's thread-pool bridge hands reservoirs
to direct callers (load benches, per-endpoint reservoirs) that do not sit
behind a ``ServiceStats``, and an unlocked ring buffer under concurrent
``record()`` loses samples and races the cursor.  Together that is the
whole contract concurrent ``submit`` callers rely on: interleaved records
never lose increments, and a ``snapshot()`` taken mid-storm is a
consistent cut.
"""

from __future__ import annotations

import threading

from repro.core.results import SearchResult, SearchStats

__all__ = ["LatencyReservoir", "ServiceStats"]


class LatencyReservoir:
    """A bounded sample of per-query latencies (most recent ``capacity``).

    A plain ring buffer, not reservoir sampling: a serving dashboard wants
    *recent* percentiles, and recency is also the cheapest eviction rule.
    Internally locked: gateway worker threads record concurrently, and an
    unlocked ``record`` can lose samples (two threads appending past the
    capacity check) or race the cursor into an ``IndexError``.  Holding
    the owning ``ServiceStats`` lock on top is harmless — the inner lock
    is uncontended there and never taken in the other order.
    """

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._lock = threading.Lock()
        self._samples: list[float] = []
        self._cursor = 0
        self._total = 0

    def record(self, seconds: float) -> None:
        """Add one latency sample, evicting the oldest when full."""
        with self._lock:
            if len(self._samples) < self._capacity:
                self._samples.append(seconds)
            else:
                self._samples[self._cursor] = seconds
                self._cursor = (self._cursor + 1) % self._capacity
            self._total += 1

    @property
    def total_recorded(self) -> int:
        """Lifetime samples recorded (evicted ones included)."""
        with self._lock:
            return self._total

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile (``p`` in [0, 100]) over the sample.

        Returns 0.0 while empty (a dashboard-friendly neutral value).
        """
        if not (0.0 <= p <= 100.0):
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        with self._lock:
            if not self._samples:
                return 0.0
            ordered = sorted(self._samples)
        rank = max(1, -(-len(ordered) * p // 100))  # ceil without math import
        return ordered[int(rank) - 1]

    def __len__(self) -> int:
        with self._lock:
            return len(self._samples)


class ServiceStats:
    """Aggregated, thread-safe statistics of one query service."""

    def __init__(self, latency_capacity: int = 4096):
        self._lock = threading.Lock()
        self.queries_served = 0
        self.exact_results = 0
        self.degraded_results = 0
        self.failed_queries = 0
        self.rejected_queries = 0
        #: Queries answered from the service-level result cache (these are
        #: also counted in ``queries_served``/``exact_results`` — a hit is
        #: a served exact answer, just an O(1) one).
        self.result_cache_hits = 0
        #: Queries admitted with a policy-tightened budget that came back
        #: inexact (a subset of ``degraded_results``).
        self.policy_degraded_results = 0
        #: Policy sheds by reason slug (legacy un-reasoned rejections only
        #: count in ``rejected_queries``; this dict stays empty).
        self.shed_reasons: dict[str, int] = {}
        #: Per-tenant / per-priority ``{"served": n, "rejected": n}`` lanes,
        #: created lazily on the first labelled query.
        self.tenant_lanes: dict[str, dict[str, int]] = {}
        self.priority_lanes: dict[str, dict[str, int]] = {}
        #: Result-cache invalidation scope, folded in per mutation event
        #: (populated only on services with a result cache under live
        #: ingestion; like the policy lanes, keys stay out of snapshots
        #: until the first event).
        self.invalidation_events = 0
        self.invalidation_kinds: dict[str, int] = {}
        self.invalidation_entries_dropped = 0
        self.invalidation_entries_retained = 0
        #: Merged per-query work counters (:meth:`SearchStats.merge`).
        self.totals = SearchStats()
        self._latencies = LatencyReservoir(latency_capacity)
        #: Per-algorithm plan-vs-actual drift lanes, created lazily on the
        #: first executed query that carried a comparable plan estimate
        #: (like the policy lanes, keys stay out of snapshots until then).
        self.drift_lanes: dict[str, dict[str, float]] = {}

    # ------------------------------------------------------------ recording
    @staticmethod
    def _lane(lanes: dict[str, dict[str, int]], key: str) -> dict[str, int]:
        lane = lanes.get(key)
        if lane is None:
            lane = lanes[key] = {"served": 0, "rejected": 0}
        return lane

    def record(
        self,
        result: SearchResult,
        elapsed_seconds: float,
        tenant: str | None = None,
        priority: str | None = None,
        policy_degraded: bool = False,
    ) -> None:
        """Fold one answered query into the aggregates.

        ``tenant``/``priority`` label the query's lanes (omitted for
        unlabelled traffic); ``policy_degraded`` marks an answer produced
        under an admission-tightened budget.
        """
        with self._lock:
            self.queries_served += 1
            if result.error is not None:
                self.failed_queries += 1
            elif result.exact:
                self.exact_results += 1
            else:
                self.degraded_results += 1
                if policy_degraded:
                    self.policy_degraded_results += 1
            if result.stats.cache == "result":
                self.result_cache_hits += 1
            if tenant is not None:
                self._lane(self.tenant_lanes, tenant)["served"] += 1
            if priority is not None:
                self._lane(self.priority_lanes, priority)["served"] += 1
            self.totals.merge(result.stats)
            self._latencies.record(elapsed_seconds)

    def record_invalidation(self, kind: str, dropped: int, retained: int) -> None:
        """Fold one result-cache invalidation event into the aggregates.

        ``kind`` is the mutation kind (``add``/``remove``); ``dropped`` /
        ``retained`` are the entry counts the scoped invalidation removed
        and provably kept for this event.
        """
        with self._lock:
            self.invalidation_events += 1
            self.invalidation_kinds[kind] = self.invalidation_kinds.get(kind, 0) + 1
            self.invalidation_entries_dropped += dropped
            self.invalidation_entries_retained += retained

    def record_drift(self, algorithm: str, estimated: float, actual: float) -> None:
        """Fold one query's plan-vs-actual work comparison into its lane.

        ``estimated`` is the served plan's ``estimated_cost`` (worst-case
        work units), ``actual`` the measured ``expanded_vertices +
        similarity_evaluations``.  Callers skip queries with no comparable
        estimate (cache hits, failures, plan-less paths); the lane tracks
        the drift ratio ``actual / estimated`` — below 1.0 means pruning
        beat the worst case, above 1.0 means the planner under-estimated.
        """
        with self._lock:
            lane = self.drift_lanes.get(algorithm)
            ratio = actual / estimated
            if lane is None:
                lane = self.drift_lanes[algorithm] = {
                    "queries": 0,
                    "estimated_units": 0.0,
                    "actual_units": 0.0,
                    "sum_ratio": 0.0,
                    "min_ratio": ratio,
                    "max_ratio": ratio,
                }
            lane["queries"] += 1
            lane["estimated_units"] += estimated
            lane["actual_units"] += actual
            lane["sum_ratio"] += ratio
            lane["min_ratio"] = min(lane["min_ratio"], ratio)
            lane["max_ratio"] = max(lane["max_ratio"], ratio)

    def drift_summary(self, algorithm: str) -> dict | None:
        """One algorithm's drift lane in snapshot shape (``None`` if unseen)."""
        with self._lock:
            lane = self.drift_lanes.get(algorithm)
            return self._drift_view(lane) if lane else None

    @staticmethod
    def _drift_view(lane: dict[str, float]) -> dict:
        return {
            "queries": int(lane["queries"]),
            "estimated_units": lane["estimated_units"],
            "actual_units": lane["actual_units"],
            "mean_ratio": lane["sum_ratio"] / lane["queries"],
            "min_ratio": lane["min_ratio"],
            "max_ratio": lane["max_ratio"],
        }

    def record_rejection(
        self,
        reason: str,
        tenant: str | None = None,
        priority: str | None = None,
    ) -> None:
        """Count a query turned away by admission control (never executed),
        attributed to the ``reason`` slug of the rule that shed it."""
        with self._lock:
            self.rejected_queries += 1
            self.shed_reasons[reason] = self.shed_reasons.get(reason, 0) + 1
            if tenant is not None:
                self._lane(self.tenant_lanes, tenant)["rejected"] += 1
            if priority is not None:
                self._lane(self.priority_lanes, priority)["rejected"] += 1

    # ------------------------------------------------------------- readouts
    def latency_ms(self, p: float) -> float:
        """The ``p``-th percentile latency, in milliseconds."""
        with self._lock:
            return self._latencies.percentile(p) * 1000.0

    @property
    def p50_ms(self) -> float:
        """Median per-query latency (ms)."""
        return self.latency_ms(50.0)

    @property
    def p95_ms(self) -> float:
        """95th-percentile per-query latency (ms)."""
        return self.latency_ms(95.0)

    @staticmethod
    def _hit_rate(hits: int, misses: int) -> float:
        total = hits + misses
        return hits / total if total else 0.0

    @property
    def distance_cache_hit_rate(self) -> float:
        """Cross-query distance cache hit rate over all served queries."""
        return self._hit_rate(
            self.totals.distance_cache_hits, self.totals.distance_cache_misses
        )

    @property
    def text_cache_hit_rate(self) -> float:
        """Cross-query text-score cache hit rate over all served queries."""
        return self._hit_rate(self.totals.text_cache_hits, self.totals.text_cache_misses)

    def snapshot(self) -> dict:
        """A plain-dict view (stable keys; for logging/serialisation).

        Admission keys (``shed_reasons``, ``policy_degraded_results``,
        ``tenants``, ``priorities``) appear only once the corresponding
        feature has been exercised.
        """
        with self._lock:
            p50 = self._latencies.percentile(50.0) * 1000.0
            p95 = self._latencies.percentile(95.0) * 1000.0
            out = {
                "queries_served": self.queries_served,
                "exact_results": self.exact_results,
                "degraded_results": self.degraded_results,
                "failed_queries": self.failed_queries,
                "rejected_queries": self.rejected_queries,
                "result_cache_hits": self.result_cache_hits,
                "p50_ms": p50,
                "p95_ms": p95,
                "distance_cache_hit_rate": self._hit_rate(
                    self.totals.distance_cache_hits,
                    self.totals.distance_cache_misses,
                ),
                "text_cache_hit_rate": self._hit_rate(
                    self.totals.text_cache_hits, self.totals.text_cache_misses
                ),
                "expanded_vertices": self.totals.expanded_vertices,
                "refinements": self.totals.refinements,
            }
            if self.totals.shards_planned:
                out["shards_planned"] = self.totals.shards_planned
                out["shards_executed"] = self.totals.shards_executed
                out["shards_pruned"] = self.totals.shards_pruned
            if self.invalidation_events:
                out["invalidation_events"] = self.invalidation_events
                out["invalidation_kinds"] = dict(
                    sorted(self.invalidation_kinds.items())
                )
                out["invalidation_entries_dropped"] = (
                    self.invalidation_entries_dropped
                )
                out["invalidation_entries_retained"] = (
                    self.invalidation_entries_retained
                )
            if self.policy_degraded_results:
                out["policy_degraded_results"] = self.policy_degraded_results
            if self.shed_reasons:
                out["shed_reasons"] = dict(sorted(self.shed_reasons.items()))
            if self.tenant_lanes:
                out["tenants"] = {
                    tenant: dict(lane)
                    for tenant, lane in sorted(self.tenant_lanes.items())
                }
            if self.priority_lanes:
                out["priorities"] = {
                    priority: dict(lane)
                    for priority, lane in sorted(self.priority_lanes.items())
                }
            if self.drift_lanes:
                out["plan_drift"] = {
                    algorithm: self._drift_view(lane)
                    for algorithm, lane in sorted(self.drift_lanes.items())
                }
            return out

    @staticmethod
    def _render_lanes(lanes: dict[str, dict[str, int]]) -> str:
        return ", ".join(
            f"{name} {lane['served']}/{lane['rejected']}"
            for name, lane in lanes.items()
        )

    def describe(self) -> str:
        """A human-readable multi-line rendering (CLI / logs).

        Like :meth:`snapshot`, the overload-policy lines are appended only
        when their lanes are populated.
        """
        s = self.snapshot()
        lines = [
            f"queries served:  {s['queries_served']} "
            f"(exact {s['exact_results']}, degraded {s['degraded_results']}, "
            f"failed {s['failed_queries']}, rejected {s['rejected_queries']})",
            f"latency:         p50 {s['p50_ms']:.2f} ms, p95 {s['p95_ms']:.2f} ms",
            f"cache hit rate:  distance {s['distance_cache_hit_rate']:.1%}, "
            f"text {s['text_cache_hit_rate']:.1%}, "
            f"result hits {s['result_cache_hits']}",
            f"work:            {s['expanded_vertices']} expanded vertices, "
            f"{s['refinements']} refinements",
        ]
        if "shards_planned" in s:
            lines.append(
                f"shards:          {s['shards_planned']} planned, "
                f"{s['shards_executed']} executed, {s['shards_pruned']} pruned"
            )
        if "invalidation_events" in s:
            kinds = ", ".join(
                f"{kind} {n}" for kind, n in s["invalidation_kinds"].items()
            )
            lines.append(
                f"invalidation:    {s['invalidation_events']} events ({kinds}), "
                f"{s['invalidation_entries_dropped']} entries dropped, "
                f"{s['invalidation_entries_retained']} retained"
            )
        if "shed_reasons" in s:
            shed = ", ".join(f"{r} {n}" for r, n in s["shed_reasons"].items())
            lines.append(f"shed:            {shed}")
        if "policy_degraded_results" in s:
            lines.append(
                f"policy degraded: {s['policy_degraded_results']} "
                f"(tightened budget under load)"
            )
        if "tenants" in s:
            lines.append(
                "tenants:         "
                f"(served/rejected) {self._render_lanes(s['tenants'])}"
            )
        if "priorities" in s:
            lines.append(
                "priorities:      "
                f"(served/rejected) {self._render_lanes(s['priorities'])}"
            )
        if "plan_drift" in s:
            drift = ", ".join(
                f"{algorithm} x{lane['mean_ratio']:.2f} "
                f"({lane['min_ratio']:.2f}..{lane['max_ratio']:.2f}, "
                f"{lane['queries']} queries)"
                for algorithm, lane in s["plan_drift"].items()
            )
            lines.append(f"plan drift:      actual/estimated {drift}")
        return "\n".join(lines)
