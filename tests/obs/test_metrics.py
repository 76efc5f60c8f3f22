"""MetricsRegistry: instruments, exposition format, snapshots."""

import json
import re

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    set_registry,
)

#: One Prometheus exposition sample line: name{labels} value.
SAMPLE_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\""
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")*\})? [^ ]+$"
)


class TestCounter:
    def test_inc_and_value(self):
        c = Counter("repro_test_total")
        c.inc()
        c.inc(2.5)
        assert c.value() == 3.5

    def test_labelled_series_are_independent(self):
        c = Counter("repro_test_total")
        c.inc(cache="distance")
        c.inc(3, cache="text")
        assert c.value(cache="distance") == 1
        assert c.value(cache="text") == 3
        assert c.value() == 0

    def test_negative_inc_rejected(self):
        c = Counter("repro_test_total")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_set_total_guards_regression(self):
        c = Counter("repro_test_total")
        c.set_total(10)
        c.set_total(10)  # equal is fine
        c.set_total(12)
        with pytest.raises(ValueError, match="regress"):
            c.set_total(5)

    def test_invalid_names_rejected(self):
        with pytest.raises(ValueError):
            Counter("bad name")
        c = Counter("repro_test_total")
        with pytest.raises(ValueError):
            c.inc(**{"bad-label": "x"})


class TestGauge:
    def test_up_down_set(self):
        g = Gauge("repro_inflight")
        g.inc()
        g.inc()
        g.dec()
        assert g.value() == 1
        g.set(42.5)
        assert g.value() == 42.5

    def test_set_total_is_plain_set(self):
        g = Gauge("repro_rate")
        g.set_total(0.9)
        g.set_total(0.1)  # no monotonicity for gauges
        assert g.value() == 0.1


class TestHistogram:
    def test_observe_buckets_sum_count(self):
        h = Histogram("repro_latency_seconds", buckets=(0.01, 0.1, 1.0))
        for v in (0.005, 0.05, 0.5, 5.0):
            h.observe(v)
        assert h.count() == 4
        assert h.sum() == pytest.approx(5.555)
        samples = dict(h.samples())
        assert samples['repro_latency_seconds_bucket{le="0.01"}'] == 1
        assert samples['repro_latency_seconds_bucket{le="0.1"}'] == 2
        assert samples['repro_latency_seconds_bucket{le="1"}'] == 3
        assert samples['repro_latency_seconds_bucket{le="+Inf"}'] == 4
        assert samples["repro_latency_seconds_count"] == 4

    def test_bucket_bounds_must_increase(self):
        with pytest.raises(ValueError):
            Histogram("repro_h", buckets=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("repro_h", buckets=())

    def test_default_buckets_are_sane(self):
        assert DEFAULT_BUCKETS == tuple(sorted(DEFAULT_BUCKETS))
        assert DEFAULT_BUCKETS[0] < 0.001
        assert DEFAULT_BUCKETS[-1] >= 10.0


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("repro_x_total", "help")
        b = registry.counter("repro_x_total")
        assert a is b
        assert len(registry) == 1
        assert "repro_x_total" in registry

    def test_type_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("repro_x_total")

    def test_collectors_run_on_export(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("repro_pull")
        state = {"v": 1.0}
        registry.register_source(
            "pull", state, lambda sources: gauge.set(sources[0]["v"])
        )
        registry.collect()
        assert gauge.value() == 1.0
        state["v"] = 7.0
        assert "repro_pull 7" in registry.render_prometheus()

    def test_empty_registry_is_falsy_but_usable(self):
        # The trap `registry or default` silently discards a fresh
        # registry; the service layer must use `is None` checks instead.
        registry = MetricsRegistry()
        assert len(registry) == 0
        assert not registry
        assert registry.render_prometheus() == "\n"


class TestPrometheusExposition:
    def test_every_line_is_well_formed(self):
        registry = MetricsRegistry()
        c = registry.counter("repro_q_total", "queries")
        c.inc(outcome="exact")
        c.inc(outcome="failed")
        registry.gauge("repro_rate", "a rate").set(0.25)
        registry.histogram("repro_lat_seconds", "latency").observe(0.003)
        text = registry.render_prometheus()
        assert text.endswith("\n")
        for line in text.splitlines():
            if line.startswith("#"):
                assert re.match(r"^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* ", line)
            else:
                assert SAMPLE_LINE.match(line), f"malformed sample line: {line!r}"

    def test_help_and_type_precede_samples(self):
        registry = MetricsRegistry()
        registry.counter("repro_q_total", "queries served").inc()
        lines = registry.render_prometheus().splitlines()
        assert lines[0] == "# HELP repro_q_total queries served"
        assert lines[1] == "# TYPE repro_q_total counter"
        assert lines[2] == "repro_q_total 1"

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter("repro_q_total").inc(reason='say "hi"\nbye')
        text = registry.render_prometheus()
        assert '\\"hi\\"' in text
        assert "\\n" in text


class TestSnapshot:
    def test_snapshot_is_json_ready(self):
        registry = MetricsRegistry()
        registry.counter("repro_a_total").inc(2)
        registry.counter("repro_b_total").inc(cache="text")
        registry.histogram("repro_lat_seconds", buckets=(0.1, 1.0)).observe(0.05)
        snap = json.loads(json.dumps(registry.snapshot(), sort_keys=True))
        assert snap["repro_a_total"] == 2
        assert snap["repro_b_total"] == {'{cache="text"}': 1}
        assert snap["repro_lat_seconds"][""]["count"] == 1


class TestDefaultRegistry:
    def test_swap_and_restore(self):
        mine = MetricsRegistry()
        previous = set_registry(mine)
        try:
            assert get_registry() is mine
        finally:
            set_registry(previous)
        assert get_registry() is previous
