"""Unit tests: Chrome trace-event, JSONL and metrics-dump exporters."""

import json

from repro.telemetry.export import (
    chrome_trace,
    span_to_event,
    span_to_json,
    spans_to_jsonl,
    write_metrics,
    write_trace,
)
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import SpanRecord, TraceRecorder
from tests.telemetry.schema import (
    validate_chrome_trace,
    validate_jsonl,
    validate_metrics_dump,
)


def _sample_records():
    rec = TraceRecorder()
    with rec.span("sweep", cpu="sg2042"):
        with rec.span("suite.run", threads=8):
            pass
    return rec.records()


class TestChromeTrace:
    def test_event_shape(self):
        record = SpanRecord(
            name="predict.batch", start_ns=2_000_000, duration_ns=500,
            span_id=7, parent_id=3, pid=11, tid=22,
            attrs=(("kernels", 64),),
        )
        event = span_to_event(record)
        assert event["ph"] == "X"
        assert event["ts"] == 2_000.0       # microseconds
        assert event["dur"] == 0.5
        assert event["pid"] == 11 and event["tid"] == 22
        assert event["args"] == {
            "kernels": 64, "span_id": 7, "parent_id": 3,
        }

    def test_root_span_omits_parent(self):
        record = SpanRecord("sweep", 0, 1, 1, None, 1, 1)
        assert "parent_id" not in span_to_event(record)["args"]

    def test_document_validates_and_carries_metrics(self):
        reg = MetricsRegistry()
        reg.counter("sweep.runs").inc()
        reg.gauge("cache.compile.entries").set(12)
        doc = chrome_trace(_sample_records(), reg.snapshot())
        events = validate_chrome_trace(doc)
        assert {e["name"] for e in events} == {"sweep", "suite.run"}
        assert doc["otherData"]["counters"] == {"sweep.runs": 1}
        assert doc["otherData"]["gauges"] == {
            "cache.compile.entries": 12
        }

    def test_document_is_json_serializable(self):
        json.dumps(chrome_trace(_sample_records()))


class TestJsonl:
    def test_one_object_per_line(self):
        records = _sample_records()
        text = spans_to_jsonl(records)
        spans = validate_jsonl(text)
        assert len(spans) == len(records)
        assert spans[0]["name"] == "sweep"
        assert spans[0]["attrs"] == {"cpu": "sg2042"}

    def test_round_trip_fields(self):
        (record,) = [r for r in _sample_records()
                     if r.name == "suite.run"]
        span = span_to_json(record)
        assert span["start_ns"] == record.start_ns
        assert span["duration_ns"] == record.duration_ns
        assert span["parent_id"] == record.parent_id


class TestWriteTrace:
    def test_suffix_dispatch(self, tmp_path):
        records = _sample_records()
        chrome = tmp_path / "trace.json"
        jsonl = tmp_path / "trace.jsonl"
        write_trace(chrome, records)
        write_trace(jsonl, records)
        validate_chrome_trace(json.loads(chrome.read_text()))
        validate_jsonl(jsonl.read_text())

    def test_metrics_dump(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("suite.runs").inc(2)
        reg.histogram("retry.backoff_seconds").observe(0.25)
        out = tmp_path / "metrics.txt"
        write_metrics(out, reg.snapshot())
        tables = validate_metrics_dump(out.read_text())
        assert tables["counter"]["suite.runs"] == "2"
        assert "retry.backoff_seconds" in tables["histogram"]
