"""``repro.telemetry`` — tracing, metrics and profiling for the whole
prediction pipeline.

The paper's value is in explaining where SG2042 time goes; this package
does the same for the reproduction's own pipeline. It is zero-dependency
(stdlib only) and off by default: until a session is installed, every
instrumented call site talks to a shared no-op recorder/registry whose
cost is a boolean check or a null context manager (the <2% overhead
budget is asserted by ``benchmarks/bench_sweep.py``).

Usage::

    from repro import telemetry
    from repro.telemetry.export import write_trace

    with telemetry.telemetry_session() as (recorder, registry):
        result = sweep(cpu, kernels, threads=(1, 8))
        write_trace("trace.json", recorder.records())
        print(result.telemetry.render())

Or from the CLI::

    sg2042-repro sweep --telemetry --trace-out trace.json
    sg2042-repro trace sweep --kernels TRIAD --trace-out trace.jsonl

See ``docs/OBSERVABILITY.md`` for the span model, the metric name table
and the exporter formats.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.telemetry.metrics import (
    NULL_METRICS,
    HistogramStat,
    LatencyWindow,
    MetricsRegistry,
    MetricsSnapshot,
    NullMetrics,
)
from repro.telemetry.spans import (
    DEFAULT_MAX_SPANS,
    NULL_RECORDER,
    NullRecorder,
    Span,
    SpanRecord,
    TraceRecorder,
)

__all__ = [
    "DEFAULT_MAX_SPANS",
    "HistogramStat",
    "LatencyWindow",
    "MetricsRegistry",
    "MetricsSnapshot",
    "NullMetrics",
    "NullRecorder",
    "Span",
    "SpanRecord",
    "TelemetrySummary",
    "TraceRecorder",
    "active",
    "install",
    "metrics",
    "recorder",
    "telemetry_session",
]

# The process-wide session state. Plain module globals: reads are cheap
# (the hot path does `telemetry.recorder().active` at most once per
# suite) and writes happen only in install()/telemetry_session(), which
# serialize on _INSTALL_LOCK.
_RECORDER: TraceRecorder | NullRecorder = NULL_RECORDER
_METRICS: MetricsRegistry | NullMetrics = NULL_METRICS
_INSTALL_LOCK = threading.Lock()


def recorder() -> TraceRecorder | NullRecorder:
    """The active span recorder (the no-op one when telemetry is off)."""
    return _RECORDER


def metrics() -> MetricsRegistry | NullMetrics:
    """The active metrics registry (no-op when telemetry is off)."""
    return _METRICS


def active() -> bool:
    """Whether a telemetry session is currently installed."""
    return _RECORDER.active


def install(
    new_recorder: TraceRecorder | NullRecorder,
    new_metrics: MetricsRegistry | NullMetrics,
) -> tuple:
    """Install a recorder/registry pair; returns the previous pair.

    Prefer :func:`telemetry_session`, which restores the previous pair
    automatically.
    """
    global _RECORDER, _METRICS
    with _INSTALL_LOCK:
        previous = (_RECORDER, _METRICS)
        _RECORDER = new_recorder
        _METRICS = new_metrics
    return previous


@contextmanager
def telemetry_session(max_spans: int = DEFAULT_MAX_SPANS):
    """Install a fresh :class:`TraceRecorder` + :class:`MetricsRegistry`
    for the duration of the block; yields ``(recorder, registry)``.

    Sessions nest: the previous pair (usually the no-op defaults) is
    restored on exit. Every thread of the process records into the
    installed session.
    """
    session_recorder = TraceRecorder(max_spans=max_spans)
    session_metrics = MetricsRegistry()
    previous = install(session_recorder, session_metrics)
    try:
        yield session_recorder, session_metrics
    finally:
        install(*previous)


@dataclass(frozen=True)
class TelemetrySummary:
    """Digest of a telemetry session's spans and metrics.

    Carried on ``SuiteResult.telemetry`` / ``SweepResult.telemetry``
    (``None`` when telemetry was off) and rendered by the CLI's
    ``run``/``sweep``/``trace`` output. A result's summary covers only
    the spans its own call recorded on its thread (a marked
    :meth:`capture`), plus the session's metrics when the call
    returned. ``repro trace <experiment>``, ``explain --telemetry`` and
    serve's drain summary capture the whole session.

    Attributes:
        span_count: Finished spans covered (all the session holds, or
            the calling thread's since the mark).
        dropped_spans: Spans evicted by the ring buffer (since the mark,
            when there is one).
        phase_counts: Spans per phase (span name).
        phase_seconds: *Inclusive* seconds per phase — a parent span's
            time contains its children's, so phases do not sum to wall
            time.
        counters / gauges / histograms: The metric snapshot.
    """

    span_count: int = 0
    dropped_spans: int = 0
    phase_counts: dict[str, int] = field(default_factory=dict)
    phase_seconds: dict[str, float] = field(default_factory=dict)
    counters: dict[str, int | float] = field(default_factory=dict)
    gauges: dict[str, int | float] = field(default_factory=dict)
    histograms: dict[str, HistogramStat] = field(default_factory=dict)

    @classmethod
    def capture(
        cls,
        session_recorder: TraceRecorder | NullRecorder,
        session_metrics: MetricsRegistry | NullMetrics,
        since: int | None = None,
    ) -> "TelemetrySummary":
        """Summarize the session's spans, or with ``since`` (a
        :meth:`TraceRecorder.mark`) only those the calling thread
        recorded after it, read from the ring's tail; the metrics are
        the session's either way."""
        if since is None:
            records = session_recorder.records()
            dropped = session_recorder.dropped
        else:
            records, dropped = session_recorder.since(since)
        phase_counts: dict[str, int] = {}
        phase_seconds: dict[str, float] = {}
        for record in records:
            phase_counts[record.name] = phase_counts.get(record.name, 0) + 1
            phase_seconds[record.name] = (
                phase_seconds.get(record.name, 0.0) + record.seconds
            )
        snapshot = session_metrics.snapshot()
        return cls(
            span_count=len(records),
            dropped_spans=dropped,
            phase_counts=phase_counts,
            phase_seconds=phase_seconds,
            counters=dict(snapshot.counters),
            gauges=dict(snapshot.gauges),
            histograms=dict(snapshot.histograms),
        )

    def metrics_snapshot(self) -> MetricsSnapshot:
        """The summary's metrics as a :class:`MetricsSnapshot` (for the
        exporters)."""
        return MetricsSnapshot(
            counters=dict(self.counters),
            gauges=dict(self.gauges),
            histograms=dict(self.histograms),
        )

    def render(self) -> str:
        """Human-readable digest for the CLI reports."""
        lines = [
            f"telemetry: {self.span_count} span(s)"
            + (f", {self.dropped_spans} dropped" if self.dropped_spans
               else "")
        ]
        if self.phase_counts:
            lines.append("  phase                      count   inclusive")
            for name in sorted(
                self.phase_seconds,
                key=self.phase_seconds.get, reverse=True,
            ):
                seconds = self.phase_seconds[name]
                lines.append(
                    f"  {name:<25} {self.phase_counts[name]:>6}"
                    f" {seconds * 1e3:>9.2f} ms"
                )
        for kind, table in (("counter", self.counters),
                            ("gauge", self.gauges)):
            for name in sorted(table):
                lines.append(f"  {kind} {name} = {table[name]}")
        for name in sorted(self.histograms):
            h = self.histograms[name]
            lines.append(
                f"  histogram {name}: count={h.count} total={h.total:.6g}"
            )
        return "\n".join(lines)
