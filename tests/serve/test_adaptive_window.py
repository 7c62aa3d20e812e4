"""Adaptive coalescing window: latency-optimal idle, throughput under load."""

import pytest

from repro import telemetry
from repro.serve.coalescer import AdaptiveWindow, Coalescer, CoalescerConfig


def _fed(window, gap, arrivals=50, start=0.0):
    """Feed a steady stream with the given inter-arrival gap."""
    now = start
    for _ in range(arrivals):
        window.observe_arrival(now)
        now += gap
    return now - gap  # timestamp of the last arrival


class TestColdStart:
    def test_first_request_gets_the_floor(self):
        window = AdaptiveWindow(cap_s=0.01)
        assert window.window_s(0.0) == 0.0
        window.observe_arrival(0.0)
        # One arrival establishes no gap estimate yet.
        assert window.window_s(0.0) == 0.0

    def test_nonzero_floor_is_respected(self):
        window = AdaptiveWindow(cap_s=0.01, min_s=0.002)
        assert window.window_s(0.0) == pytest.approx(0.002)

    def test_floor_is_clamped_to_the_cap(self):
        window = AdaptiveWindow(cap_s=0.001, min_s=0.05)
        assert window.min_s == pytest.approx(0.001)


class TestPressure:
    def test_heavy_arrival_rate_saturates_at_the_cap(self):
        window = AdaptiveWindow(cap_s=0.01, target_batch=8)
        # 10k req/s: 100 expected arrivals per 10ms window >> target.
        last = _fed(window, gap=1e-4)
        assert window.window_s(last) == pytest.approx(0.01)

    def test_light_arrival_rate_stays_at_the_floor(self):
        window = AdaptiveWindow(cap_s=0.01, target_batch=8)
        # One request per second: expected arrivals per window ~ 0.01.
        last = _fed(window, gap=1.0)
        assert window.window_s(last) == 0.0

    def test_intermediate_rate_is_between_floor_and_cap(self):
        window = AdaptiveWindow(cap_s=0.01, target_batch=8)
        # Gap 2.5ms: expected = 4 per window, pressure = 3/7.
        last = _fed(window, gap=0.0025)
        got = window.window_s(last)
        assert 0.0 < got < 0.01
        assert got == pytest.approx(0.01 * (3 / 7), rel=0.05)

    def test_idle_time_decays_the_estimate(self):
        window = AdaptiveWindow(cap_s=0.01, target_batch=8)
        last = _fed(window, gap=1e-4)
        assert window.window_s(last) == pytest.approx(0.01)
        # A burst followed by silence must not remember its peak rate:
        # the effective gap is max(ewma, now - last_arrival).
        assert window.window_s(last + 5.0) == 0.0

    def test_window_never_exceeds_the_cap_or_drops_below_floor(self):
        window = AdaptiveWindow(cap_s=0.01, min_s=0.001, target_batch=4)
        for gap in (1e-6, 1e-4, 1e-2, 1.0):
            last = _fed(window, gap=gap)
            got = window.window_s(last)
            assert 0.001 <= got <= 0.01


class TestGuardrail:
    def test_high_p99_scales_the_window_down(self):
        latency = telemetry.LatencyWindow(maxlen=64)
        window = AdaptiveWindow(
            cap_s=0.01, target_batch=8,
            guardrail_p99_s=0.05, latency=latency,
        )
        last = _fed(window, gap=1e-4)
        assert window.window_s(last) == pytest.approx(0.01)
        for _ in range(64):
            latency.observe(0.200)  # p99 = 200ms >> 50ms guardrail
        got = window.window_s(last)
        assert got == pytest.approx(0.01 * (0.05 / 0.200), rel=0.05)

    def test_healthy_p99_leaves_the_window_alone(self):
        latency = telemetry.LatencyWindow(maxlen=64)
        window = AdaptiveWindow(
            cap_s=0.01, target_batch=8,
            guardrail_p99_s=0.05, latency=latency,
        )
        for _ in range(64):
            latency.observe(0.001)
        last = _fed(window, gap=1e-4)
        assert window.window_s(last) == pytest.approx(0.01)


class _CountingLatency(telemetry.LatencyWindow):
    __slots__ = ("percentile_calls",)

    def __init__(self, maxlen=64):
        super().__init__(maxlen)
        self.percentile_calls = 0

    def percentile(self, q):
        self.percentile_calls += 1
        return super().percentile(q)


def _formula(window, now, p99):
    """The documented window, guardrail always consulted: the
    reference the floor shortcut must match bit for bit."""
    cap, floor = window.cap_s, window.min_s
    if window._gap_ewma is None or window._last_arrival is None:
        return floor
    gap = max(window._gap_ewma, now - window._last_arrival, 1e-9)
    expected = cap / gap
    if window.target_batch > 1:
        pressure = (expected - 1.0) / (window.target_batch - 1.0)
    else:
        pressure = 1.0 if expected > 1.0 else 0.0
    pressure = min(max(pressure, 0.0), 1.0)
    value = floor + pressure * (cap - floor)
    if p99 is not None and p99 > window.guardrail_p99_s:
        value *= window.guardrail_p99_s / p99
    return min(max(value, floor), cap)


class TestGuardrailAtTheFloor:
    GAPS = (1e-6, 1e-4, 0.0025, 0.01, 1.0)
    IDLES = (0.0, 0.001, 0.05, 5.0)
    P99S = (None, 0.001, 0.05, 0.2)

    def _windows(self):
        for cap, floor, target in ((0.01, 0.0, 8), (0.01, 0.001, 4),
                                   (0.002, 0.0005, 1)):
            for gap in self.GAPS:
                for p99 in self.P99S:
                    latency = _CountingLatency()
                    if p99 is not None:
                        for _ in range(64):
                            latency.observe(p99)
                    window = AdaptiveWindow(
                        cap_s=cap, min_s=floor, target_batch=target,
                        guardrail_p99_s=0.01, latency=latency,
                    )
                    yield window, latency, _fed(window, gap=gap), p99

    def test_windows_match_the_formula(self):
        fired = 0
        for window, _, last, p99 in self._windows():
            for idle in self.IDLES:
                got = window.window_s(last + idle)
                assert got == _formula(window, last + idle, p99)
                if p99 is not None and p99 > 0.01 and got > window.min_s:
                    fired += 1
        assert fired > 0  # the table exercises the guardrail

    def test_no_percentile_read_at_the_floor(self):
        at_floor = 0
        for window, latency, last, _ in self._windows():
            for idle in self.IDLES:
                now = last + idle
                before = latency.percentile_calls
                window.window_s(now)
                if _formula(window, now, None) == window.min_s:
                    at_floor += 1
                    assert latency.percentile_calls == before
        assert at_floor > 0

    def test_cold_start_reads_no_percentile(self):
        latency = _CountingLatency()
        latency.observe(1.0)
        window = AdaptiveWindow(cap_s=0.01, guardrail_p99_s=0.01,
                                latency=latency)
        window.observe_arrival(0.0)
        assert window.window_s(0.0) == 0.0
        window.observe_arrival(1.0)  # one request a second: idle
        assert window.window_s(1.0) == 0.0
        assert latency.percentile_calls == 0


class TestCoalescerWiring:
    def test_adaptive_is_off_by_default(self):
        assert CoalescerConfig().adaptive is False

    def test_fixed_window_publishes_the_gauge(self):
        with telemetry.telemetry_session() as (_, registry):
            coalescer = Coalescer.__new__(Coalescer)
            coalescer.config = CoalescerConfig(window_s=0.002)
            coalescer._adaptive = None
            assert coalescer.window_s(0.0) == pytest.approx(0.002)
            gauge = registry.gauge("serve.coalesce.window_ms")
            assert gauge.value == pytest.approx(2.0)

    def test_adaptive_window_publishes_the_gauge(self):
        with telemetry.telemetry_session() as (_, registry):
            coalescer = Coalescer.__new__(Coalescer)
            coalescer.config = CoalescerConfig(
                window_s=0.01, adaptive=True
            )
            coalescer._adaptive = AdaptiveWindow(
                cap_s=0.01, target_batch=8
            )
            last = _fed(coalescer._adaptive, gap=1e-4)
            assert coalescer.window_s(last) == pytest.approx(0.01)
            gauge = registry.gauge("serve.coalesce.window_ms")
            assert gauge.value == pytest.approx(10.0)
