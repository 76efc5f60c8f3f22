"""Cross-process span harvest.

Worker span trees graft under their owning parent spans *through* the
trace's buffer caps (a forked query obeys the same memory bounds as a
sequential one, drop counts stay accurate), the harvest is off unless the
parent traces, and a crashed worker leaves an explicit ``telemetry_lost``
event rather than a silently thin trace.
"""

import os

import pytest

from repro.core.query import UOTSQuery
from repro.core.registry import ALGORITHMS
from repro.core.search import CollaborativeSearcher
from repro.obs import harvest
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer, activated
from repro.parallel.executor import fork_available
from repro.service import QueryService

fork_only = pytest.mark.skipif(
    not fork_available(), reason="fork start method not available"
)


def _worker_telemetry(spans_per_root=3, roots=1, max_spans=4096):
    """The span records a worker task would ship: plan/execute-ish trees."""
    with harvest.collecting({"max_spans": max_spans, "max_events": 64}) as tracer:
        for _ in range(roots):
            root = tracer.begin("execute", algorithm="shard-scan")
            for i in range(spans_per_root - 1):
                child = tracer.begin("round", index=i)
                tracer.event("tick", at=i)
                tracer.end(child)
            tracer.end(root)
    return harvest.span_records(tracer)


class TestGraft:
    def test_worker_tree_lands_under_the_owning_span(self):
        telemetry = _worker_telemetry(spans_per_root=3)
        tracer = Tracer()
        with tracer.span("query") as root:
            with tracer.span("shard[0]") as owner:
                kept = harvest.graft_telemetry(tracer, owner, telemetry)
        assert kept == 1
        assert [c.name for c in owner.children] == ["execute"]
        grafted = owner.children[0]
        assert grafted.attributes["algorithm"] == "shard-scan"
        assert [c.name for c in grafted.children] == ["round", "round"]
        assert grafted.children[0].events[0]["name"] == "tick"
        # Grafted spans count against the root's per-trace budget.
        assert root._recorded_spans == 2 + 3

    def test_grafted_spans_rebase_onto_parent_time(self):
        telemetry = _worker_telemetry(spans_per_root=2)
        tracer = Tracer()
        with tracer.span("query") as root:
            with tracer.span("shard[0]") as owner:
                harvest.graft_telemetry(tracer, owner, telemetry)
        grafted = owner.children[0]
        # Worker offsets are relative to the worker's root; after the
        # rebase they sit at-or-after the owning span's start.
        assert grafted.started_s >= owner.started_s
        assert grafted.children[0].started_s >= grafted.started_s
        assert root is not None

    def test_parent_caps_bound_grafted_spans_and_count_drops(self):
        telemetry = _worker_telemetry(spans_per_root=10)
        tracer = Tracer(max_spans=6)
        with tracer.span("query") as root:
            with tracer.span("shard[0]") as owner:
                harvest.graft_telemetry(tracer, owner, telemetry)
        # query + shard[0] + at most 4 grafted spans.
        assert root._recorded_spans == 6
        assert sum(1 for _ in root.walk()) == 6
        assert root.dropped_spans == 6
        assert tracer.dropped_spans_total == 6

    def test_worker_side_drops_fold_into_the_parent_trace(self):
        # The worker's own caps truncated its tree: those drops ride home
        # embedded in the serialized roots and surface on the parent side.
        telemetry = _worker_telemetry(spans_per_root=10, max_spans=4)
        assert sum(record["dropped_spans"] for record in telemetry) == 6
        tracer = Tracer()
        with tracer.span("query") as root:
            with tracer.span("shard[0]") as owner:
                harvest.graft_telemetry(tracer, owner, telemetry)
        assert root.dropped_spans == 6
        assert tracer.dropped_spans_total == 6
        # And they are not double-counted: only 4 spans were shipped.
        assert root._recorded_spans == 2 + 4

    def test_event_caps_apply_to_grafted_events(self):
        telemetry = _worker_telemetry(spans_per_root=5)
        tracer = Tracer(max_events=2)
        with tracer.span("query") as root:
            with tracer.span("shard[0]") as owner:
                harvest.graft_telemetry(tracer, owner, telemetry)
        assert root._recorded_events == 2
        assert root.dropped_events == 2
        assert tracer.dropped_events_total == 2

    def test_graft_is_a_noop_when_disabled_or_unowned(self):
        telemetry = _worker_telemetry()
        disabled = Tracer(enabled=False)
        assert harvest.graft_telemetry(disabled, None, telemetry) == 0
        tracer = Tracer()
        with tracer.span("query") as root:
            assert harvest.graft_telemetry(tracer, root, None) == 0
        assert root.children == []


def test_harvest_config_follows_the_tracer():
    assert harvest.harvest_config() is None
    with activated(Tracer(max_spans=123, max_events=45)):
        assert harvest.harvest_config() == {"max_spans": 123, "max_events": 45}
    assert harvest.harvest_config() is None


@fork_only
class TestScatterHarvest:
    """A traced batch on a two-worker service: worker spans
    come home under their ``query`` spans, bounded."""

    QUERIES = [
        UOTSQuery.create([i * 7 % 400, (i * 31 + 5) % 400], ["park"], k=3)
        for i in range(6)
    ]

    def _run(self, database, tracer, algorithm="collaborative", queries=QUERIES):
        """Results, the batch's ``query`` roots (one per query: each batch
        thread's span tree is its own trace), and the metrics registry."""
        registry = MetricsRegistry()
        service = QueryService(
            database, algorithm, trace=tracer, metrics=registry, pool=2
        )
        try:
            results = service.execute_many(queries)
        finally:
            service.close()
        assert all(result.ok for result in results)
        assert tracer.last_trace().name == "execute_many"
        roots = [root for root in tracer.traces if root.name == "query"]
        assert len(roots) == len(queries)
        return results, roots, registry

    def test_worker_spans_graft_under_their_query_spans(self, database):
        results, roots, registry = self._run(database, Tracer())
        assert all(result.stats.executor == "fork" for result in results)
        for span in roots:
            assert span.attributes["forked"] is True
            assert [c.name for c in span.children] == ["plan", "execute"]
            assert span.children[1].attributes["algorithm"] == "collaborative"
            assert span.attributes["worker_pid"] != os.getpid()
        assert len({span.attributes["worker_pid"] for span in roots}) == 2
        # Only spans come home: the work is counted once, from result stats.
        assert "repro_worker_" not in registry.render_prometheus()

    def test_trace_stays_bounded_and_drops_are_counted(self, database):
        tracer = Tracer(max_spans=4)
        _, roots, _ = self._run(database, tracer)
        for trace in roots:
            assert trace._recorded_spans <= 4
            assert sum(1 for _ in trace.walk()) <= 4
        assert sum(trace.dropped_spans for trace in roots) > 0
        assert tracer.dropped_spans_total >= sum(t.dropped_spans for t in roots)

    def test_crashed_worker_leaves_a_telemetry_lost_event(
        self, database, monkeypatch
    ):
        parent_pid = os.getpid()

        class CrashOnce(CollaborativeSearcher):
            """Kills the worker that draws the marked query."""

            def search(self, query, budget=None):
                if os.getpid() != parent_pid and query.k == 4:
                    os._exit(17)
                return super().search(query, budget)

        monkeypatch.setitem(ALGORITHMS, "crash-once", CrashOnce)
        queries = self.QUERIES + [UOTSQuery.create([5, 210], ["park"], k=4)]
        results, roots, _ = self._run(
            database, Tracer(), algorithm="crash-once", queries=queries
        )
        # The crasher takes its worker with it and ends in the parent.
        assert results[-1].stats.executor == "sequential-fallback"
        assert results[-1].stats.retries == 1
        crashed = [root for root in roots if root.attributes["k"] == 4]
        assert len(crashed) == 1
        names = [event["name"] for event in crashed[0].events]
        assert names == ["worker_crash", "telemetry_lost", "sequential_fallback"]
        # The fallback's own plan/execute spans nest live, in this process.
        assert [c.name for c in crashed[0].children] == ["plan", "execute"]
