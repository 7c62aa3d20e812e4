"""Unit tests: counters, gauges, histograms, snapshots."""

import threading

import pytest

from repro.telemetry.metrics import NULL_METRICS, MetricsRegistry
from repro.util.errors import ConfigError


class TestInstruments:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.counter("hits").inc()
        reg.counter("hits").inc(4)
        assert reg.snapshot().counters["hits"] == 5

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(ConfigError):
            reg.counter("hits").inc(-1)

    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        reg.gauge("entries").set(10)
        reg.gauge("entries").set(3)
        assert reg.snapshot().gauges["entries"] == 3

    def test_histogram_stats(self):
        reg = MetricsRegistry()
        h = reg.histogram("backoff")
        for v in (0.5, 1.0, 2.0):
            h.observe(v)
        stat = reg.snapshot().histograms["backoff"]
        assert stat.count == 3
        assert stat.total == 3.5
        assert stat.minimum == 0.5
        assert stat.maximum == 2.0
        assert stat.mean == pytest.approx(3.5 / 3)

    def test_instruments_are_interned(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ConfigError):
            reg.gauge("x")

    def test_counter_thread_safety(self):
        reg = MetricsRegistry()
        counter = reg.counter("n")

        def work():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.snapshot().counters["n"] == 4000


class TestSnapshotAndMerge:
    def test_snapshot_is_immutable_view(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        snap = reg.snapshot()
        reg.counter("a").inc()
        assert snap.counters["a"] == 1
        assert reg.snapshot().counters["a"] == 2

    def test_render_format(self):
        reg = MetricsRegistry()
        reg.counter("b.count").inc(2)
        reg.gauge("a.size").set(1)
        reg.histogram("c.wait").observe(0.5)
        text = reg.snapshot().render()
        lines = text.splitlines()
        assert lines[0].startswith("# repro.telemetry metrics")
        assert "counter b.count 2" in lines
        assert "gauge a.size 1" in lines
        assert any(line.startswith("histogram c.wait count=1")
                   for line in lines)

    def test_null_metrics_inert(self):
        assert NULL_METRICS.active is False
        NULL_METRICS.counter("x").inc(5)
        NULL_METRICS.gauge("y").set(1)
        NULL_METRICS.histogram("z").observe(2.0)
        snap = NULL_METRICS.snapshot()
        assert not snap.counters and not snap.gauges
        assert not snap.histograms
