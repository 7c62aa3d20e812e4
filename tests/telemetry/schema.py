"""Schema validation for the telemetry exporter formats.

Used two ways: imported by the test suite, and run standalone by CI's
``telemetry-smoke`` step via :mod:`tests.telemetry.check_trace` against
artifacts a real ``repro trace`` invocation wrote. Validation is
structural — required keys, types, value ranges — so it catches format
drift without pinning machine-dependent content.
"""

from __future__ import annotations

import json
from pathlib import Path

#: Span phases the full pipeline must cover in a traced sweep (the
#: acceptance criterion: compile, predict and suite phases all present;
#: ``retry`` additionally under a chaos plan).
PIPELINE_PHASES = frozenset({
    "sweep", "suite.run", "compile.analyze", "predict.grid",
})

_EVENT_KEYS = {"name", "cat", "ph", "ts", "dur", "pid", "tid", "args"}
_JSONL_KEYS = {
    "name", "span_id", "parent_id", "pid", "tid", "start_ns",
    "duration_ns", "attrs",
}


def validate_chrome_trace(document: dict) -> list[dict]:
    """Validate a Chrome trace-event document; return its events."""
    assert isinstance(document, dict), "trace document must be an object"
    assert "traceEvents" in document, "missing traceEvents"
    assert document.get("displayTimeUnit") == "ms"
    other = document.get("otherData", {})
    assert other.get("generator") == "repro.telemetry"
    events = document["traceEvents"]
    assert isinstance(events, list) and events, "trace has no events"
    assert other.get("spans") == len(events)
    ids_seen = set()
    for event in events:
        missing = _EVENT_KEYS - set(event)
        assert not missing, f"event missing keys {sorted(missing)}"
        assert event["ph"] == "X", "spans must be complete (X) events"
        assert event["cat"] == "repro"
        assert isinstance(event["name"], str) and event["name"]
        assert event["dur"] >= 0, "negative duration"
        assert isinstance(event["pid"], int)
        assert isinstance(event["tid"], int)
        args = event["args"]
        assert isinstance(args, dict) and "span_id" in args
        ids_seen.add((event["pid"], args["span_id"]))
    # Parent links must resolve within the trace (same process).
    for event in events:
        parent = event["args"].get("parent_id")
        if parent is not None:
            assert (event["pid"], parent) in ids_seen, (
                f"dangling parent_id {parent} in {event['name']}"
            )
    return events


def validate_jsonl(text: str) -> list[dict]:
    """Validate a JSONL span log; return the parsed span objects."""
    lines = [line for line in text.splitlines() if line.strip()]
    assert lines, "JSONL trace is empty"
    spans = []
    for line in lines:
        span = json.loads(line)
        missing = _JSONL_KEYS - set(span)
        assert not missing, f"span missing keys {sorted(missing)}"
        assert isinstance(span["name"], str) and span["name"]
        assert span["duration_ns"] >= 0
        assert isinstance(span["attrs"], dict)
        spans.append(span)
    starts = [span["start_ns"] for span in spans]
    assert starts == sorted(starts), "JSONL spans not ordered by start"
    return spans


def validate_metrics_dump(text: str) -> dict[str, dict[str, str]]:
    """Validate the flat metrics text dump; return ``{kind: {name:
    value-ish string}}``."""
    lines = text.splitlines()
    assert lines and lines[0].startswith("# repro.telemetry metrics")
    out: dict[str, dict[str, str]] = {
        "counter": {}, "gauge": {}, "histogram": {},
    }
    for line in lines[1:]:
        if not line.strip():
            continue
        kind, name, rest = line.split(" ", 2)
        assert kind in out, f"unknown metric kind {kind!r}"
        assert name not in out[kind], f"duplicate metric {name}"
        if kind in ("counter", "gauge"):
            float(rest)  # must parse as a number
        out[kind][name] = rest
    return out


def validate_trace_file(path: str | Path) -> int:
    """Validate a trace file written by ``write_trace`` (dispatching on
    suffix, like the writer); return the span count."""
    text = Path(path).read_text(encoding="utf-8")
    if str(path).endswith(".jsonl"):
        return len(validate_jsonl(text))
    return len(validate_chrome_trace(json.loads(text)))
