"""Admission control: a bounded in-flight budget with load shedding.

The service accepts at most ``max_inflight`` requests at once (waiting
for an engine worker or executing in the engine). Beyond that watermark it
*sheds*: the client gets an immediate 429-style envelope with a
``Retry-After`` hint instead of queueing into a latency collapse.

Shedding early is the graceful-degradation half of the deadline story —
a request that would only time out in the queue is cheaper to reject at
the door.
"""

from __future__ import annotations

import threading

from repro.util.errors import ConfigError


class AdmissionController:
    """Thread-safe bounded in-flight counter.

    ``try_acquire``/``release`` bracket one request's residency in the
    service; a failed acquire is the signal to shed. ``retry_after_ms``
    grows with the consecutive-shed streak, so clients back off harder
    the longer the overload persists (and the hint resets as soon as a
    request is admitted again).
    """

    def __init__(
        self, max_inflight: int = 64, base_retry_after_ms: int = 100
    ) -> None:
        if max_inflight < 1:
            raise ConfigError(
                f"max_inflight must be >= 1, got {max_inflight}"
            )
        if base_retry_after_ms < 1:
            raise ConfigError(
                f"base_retry_after_ms must be >= 1, "
                f"got {base_retry_after_ms}"
            )
        self.max_inflight = max_inflight
        self.base_retry_after_ms = base_retry_after_ms
        self._lock = threading.Lock()
        self._depth = 0
        self._shed = 0
        self._shed_streak = 0
        self._admitted = 0

    def try_acquire(self) -> bool:
        """Admit one request, or refuse at the watermark."""
        with self._lock:
            if self._depth >= self.max_inflight:
                self._shed += 1
                self._shed_streak += 1
                return False
            self._depth += 1
            self._admitted += 1
            self._shed_streak = 0
            return True

    def release(self) -> None:
        with self._lock:
            if self._depth == 0:
                raise ConfigError("release() without matching acquire")
            self._depth -= 1

    @property
    def depth(self) -> int:
        with self._lock:
            return self._depth

    @property
    def shed_count(self) -> int:
        with self._lock:
            return self._shed

    @property
    def admitted_count(self) -> int:
        with self._lock:
            return self._admitted

    def retry_after_ms(self) -> int:
        """Suggested client pause, scaled by the shed streak."""
        with self._lock:
            overload = 1.0 + self._shed_streak / self.max_inflight
        return int(self.base_retry_after_ms * overload)

    def idle(self) -> bool:
        return self.depth == 0
