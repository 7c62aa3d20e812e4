"""Counter / gauge / histogram registry for the prediction pipeline.

One :class:`MetricsRegistry` lives per telemetry session and absorbs
the signals that used to be scattered ad-hoc fields: suite/kernel run
counts, retry/backoff activity, and batch-engine fallbacks. The full metric
name table lives in ``docs/OBSERVABILITY.md``.

Instrument kinds:

* **Counter** — monotonically increasing total (``inc``).
* **Gauge** — last-written point-in-time value (``set``).
* **Histogram** — count/total/min/max of observed values (``observe``).

Snapshots (:class:`MetricsSnapshot`) are plain, immutable
point-in-time data: what ``--metrics-out`` dumps and what
:class:`~repro.telemetry.TelemetrySummary` carries.

When telemetry is off the pipeline talks to :data:`NULL_METRICS`, whose
instruments do nothing; hot call sites additionally guard on
``registry.active``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.util.errors import ConfigError


class Counter:
    """Monotonic counter."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, n: int | float = 1) -> None:
        if n < 0:
            raise ConfigError(
                f"counter {self.name!r} cannot decrease (inc {n})"
            )
        with self._lock:
            self._value += n

    @property
    def value(self) -> int | float:
        with self._lock:
            return self._value


class Gauge:
    """Last-write-wins point-in-time value."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value: int | float = 0

    def set(self, value: int | float) -> None:
        with self._lock:
            self._value = value

    @property
    def value(self) -> int | float:
        with self._lock:
            return self._value


@dataclass(frozen=True)
class HistogramStat:
    """Immutable summary of a histogram's observations."""

    count: int = 0
    total: float = 0.0
    minimum: float | None = None
    maximum: float | None = None

    @property
    def mean(self) -> float | None:
        return self.total / self.count if self.count else None


class Histogram:
    """Streaming count/total/min/max of observed values."""

    __slots__ = ("name", "_lock", "_count", "_total", "_min", "_max")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._count = 0
        self._total = 0.0
        self._min: float | None = None
        self._max: float | None = None

    def observe(self, value: int | float) -> None:
        value = float(value)
        with self._lock:
            self._count += 1
            self._total += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    def stat(self) -> HistogramStat:
        with self._lock:
            return HistogramStat(
                count=self._count, total=self._total,
                minimum=self._min, maximum=self._max,
            )


class LatencyWindow:
    """Bounded ring of recent observations with percentile queries.

    The streaming :class:`Histogram` keeps count/total/min/max — enough
    for rates and means, not for tail latency. A ``LatencyWindow`` keeps
    the last ``maxlen`` raw observations (a ring buffer, so memory is
    bounded under sustained load) and answers percentile queries over
    that window by nearest-rank on a sorted snapshot. The serving layer
    publishes ``serve.latency_p50_ms`` / ``serve.latency_p99_ms`` gauges
    from one of these.
    """

    __slots__ = ("_lock", "_ring", "_maxlen", "_next", "_count")

    def __init__(self, maxlen: int = 2048) -> None:
        if maxlen < 1:
            raise ConfigError(f"maxlen must be >= 1, got {maxlen}")
        self._lock = threading.Lock()
        self._ring: list[float] = []
        self._maxlen = maxlen
        self._next = 0
        self._count = 0

    def observe(self, value: int | float) -> None:
        value = float(value)
        with self._lock:
            if len(self._ring) < self._maxlen:
                self._ring.append(value)
            else:
                self._ring[self._next] = value
                self._next = (self._next + 1) % self._maxlen
            self._count += 1

    @property
    def count(self) -> int:
        """Total observations ever made (not just those retained)."""
        with self._lock:
            return self._count

    def percentile(self, q: float) -> float | None:
        """Nearest-rank percentile (``q`` in [0, 100]) over the window;
        ``None`` before the first observation."""
        if not 0 <= q <= 100:
            raise ConfigError(f"percentile must be in [0, 100], got {q}")
        with self._lock:
            if not self._ring:
                return None
            ordered = sorted(self._ring)
        rank = max(1, -(-len(ordered) * q // 100))  # ceil without math
        return ordered[int(rank) - 1]


@dataclass(frozen=True)
class MetricsSnapshot:
    """Point-in-time, picklable view of a registry's instruments."""

    counters: dict[str, int | float] = field(default_factory=dict)
    gauges: dict[str, int | float] = field(default_factory=dict)
    histograms: dict[str, HistogramStat] = field(default_factory=dict)

    def render(self) -> str:
        """Flat text dump: one ``<kind> <name> <value>`` line per
        instrument, sorted by name within each kind (the ``repro
        --metrics-out`` format, documented in docs/OBSERVABILITY.md)."""
        lines = ["# repro.telemetry metrics"]
        for name in sorted(self.counters):
            lines.append(f"counter {name} {self.counters[name]}")
        for name in sorted(self.gauges):
            lines.append(f"gauge {name} {self.gauges[name]}")
        for name in sorted(self.histograms):
            h = self.histograms[name]
            lines.append(
                f"histogram {name} count={h.count} total={h.total:.9g}"
                f" min={0 if h.minimum is None else h.minimum:.9g}"
                f" max={0 if h.maximum is None else h.maximum:.9g}"
            )
        return "\n".join(lines)


class _NullInstrument:
    """Shared no-op counter/gauge/histogram for the disabled path."""

    __slots__ = ()
    name = "null"

    def inc(self, n: int | float = 1) -> None:
        pass

    def set(self, value: int | float) -> None:
        pass

    def observe(self, value: int | float) -> None:
        pass

    @property
    def value(self) -> int:
        return 0


_NULL_INSTRUMENT = _NullInstrument()


class NullMetrics:
    """The default (telemetry off) registry: all instruments no-op."""

    __slots__ = ()
    active = False

    def counter(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def snapshot(self) -> MetricsSnapshot:
        return MetricsSnapshot()


NULL_METRICS = NullMetrics()


class MetricsRegistry:
    """Thread-safe named-instrument registry for one telemetry session.

    Instruments are interned by name; asking for an existing name with a
    different kind is a :class:`ConfigError` (one name, one meaning).
    """

    active = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, name: str, kind):
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = kind(name)
                self._instruments[name] = instrument
            elif not isinstance(instrument, kind):
                raise ConfigError(
                    f"metric {name!r} already registered as "
                    f"{type(instrument).__name__.lower()}, not "
                    f"{kind.__name__.lower()}"
                )
            return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def snapshot(self) -> MetricsSnapshot:
        with self._lock:
            instruments = list(self._instruments.values())
        counters: dict[str, int | float] = {}
        gauges: dict[str, int | float] = {}
        histograms: dict[str, HistogramStat] = {}
        for instrument in instruments:
            if isinstance(instrument, Counter):
                counters[instrument.name] = instrument.value
            elif isinstance(instrument, Gauge):
                gauges[instrument.name] = instrument.value
            else:
                histograms[instrument.name] = instrument.stat()
        return MetricsSnapshot(
            counters=counters, gauges=gauges, histograms=histograms
        )
