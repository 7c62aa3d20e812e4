"""Retry policies for flaky runs: backoff, deadlines, failure records.

Models how a real benchmarking campaign on early silicon treats a failed
run: retry with exponential backoff up to an attempt and time budget,
skip the kernel and continue, or abort the sweep. The clock and sleeper
are injectable so tests exercise deadlines without real waiting — and so
the default simulator path (backoff base 0) never sleeps at all.
"""

from __future__ import annotations

import enum
import random
import time
from dataclasses import dataclass
from typing import Callable, TypeVar

from repro import telemetry
from repro.util.errors import ConfigError, ReproError

T = TypeVar("T")


class FailurePolicy(enum.Enum):
    """What the suite runner does when a kernel fails.

    ABORT reproduces the historical all-or-nothing behaviour (the first
    error kills the run); SKIP records the failure and continues; RETRY
    retries with backoff and records a failure only when attempts are
    exhausted (then continues like SKIP — graceful degradation, not a
    late abort).
    """

    ABORT = "abort"
    SKIP = "skip"
    RETRY = "retry"

    @classmethod
    def from_label(cls, label: str) -> "FailurePolicy":
        for member in cls:
            if member.value == label.lower():
                return member
        raise ConfigError(
            f"unknown failure policy {label!r}; "
            f"known: {[m.value for m in cls]}"
        )


@dataclass(frozen=True)
class RetrySpec:
    """Attempt and time budget for one kernel.

    Attributes:
        max_retries: Retries after the first attempt (total attempts =
            ``max_retries + 1``).
        backoff_base_s: Sleep before the first retry. Defaults to 0 —
            the simulator has no transient hardware to wait out, so the
            default path never sleeps; campaigns on real hardware set it.
        backoff_factor: Multiplier per subsequent retry (exponential).
        deadline_s: Wall-clock budget across all attempts; ``None`` is
            unbounded. Checked before each retry, never mid-attempt.
        jitter: Fraction of each backoff randomized in ``[0, 1]``.
            ``0`` (default) keeps the historical deterministic schedule;
            ``1`` is classic *full jitter* — uniform in
            ``(0, exponential backoff]`` — which decorrelates retries
            from requests that failed together, so a burst of
            concurrent failures does not thundering-herd the engine in
            lockstep.
            The RNG is injectable (:func:`backoff_seconds` /
            :func:`call_with_retry` take ``rng=``), so tests pin a seed
            and stay deterministic.
    """

    max_retries: int = 3
    backoff_base_s: float = 0.0
    backoff_factor: float = 2.0
    deadline_s: float | None = None
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigError("max_retries must be >= 0")
        if self.backoff_base_s < 0:
            raise ConfigError("backoff_base_s must be >= 0")
        if self.backoff_factor < 1:
            raise ConfigError("backoff_factor must be >= 1")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ConfigError("deadline_s must be positive")
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigError("jitter must be in [0, 1]")

    def backoff_seconds(
        self, retry_index: int, rng: random.Random | None = None
    ) -> float:
        """Sleep before the ``retry_index``-th retry (1-based).

        With ``jitter > 0`` the exponential envelope is randomized:
        ``envelope * ((1 - jitter) + jitter * U(0, 1))``, i.e. uniform
        over the last ``jitter`` fraction of the envelope (full jitter
        at ``jitter=1``). Pass a seeded ``rng`` for reproducible
        schedules; ``None`` uses the module RNG.
        """
        if retry_index < 1:
            raise ConfigError("retry_index must be >= 1")
        envelope = (
            self.backoff_base_s * self.backoff_factor ** (retry_index - 1)
        )
        if self.jitter == 0 or envelope == 0:
            return envelope
        if rng is None:
            rng = _MODULE_RNG
        return envelope * ((1.0 - self.jitter) + self.jitter * rng.random())


#: Fallback RNG when no injectable one is supplied. Module-level so the
#: draw sequence (and therefore the jitter) differs across retries even
#: without a caller-managed RNG.
_MODULE_RNG = random.Random()


@dataclass(frozen=True)
class FailureRecord:
    """One kernel's terminal failure inside a suite run.

    Attributes:
        kernel: Kernel name (``"*"`` for configuration-level failures
            such as a corrupted machine description).
        error_type: Exception class name (``"TransientError"``).
        message: The exception message.
        attempts: Attempts made before giving up.
        site: Chaos injection site if the error was injected, else None.
    """

    kernel: str
    error_type: str
    message: str
    attempts: int
    site: str | None = None

    @classmethod
    def from_exception(
        cls, kernel: str, exc: BaseException, attempts: int
    ) -> "FailureRecord":
        return cls(
            kernel=kernel,
            error_type=type(exc).__name__,
            message=str(exc),
            attempts=attempts,
            site=getattr(exc, "fault_site", None),
        )


class RetryExhaustedError(ReproError):
    """All attempts failed. Carries the attempt count and last error."""

    def __init__(self, attempts: int, last: ReproError):
        super().__init__(
            f"failed after {attempts} attempt(s): {last}"
        )
        self.attempts = attempts
        self.last = last
        self.fault_site = getattr(last, "fault_site", None)


def call_with_retry(
    fn: Callable[[], T],
    spec: RetrySpec,
    *,
    clock: Callable[[], float] = time.monotonic,
    sleep: Callable[[float], None] = time.sleep,
    rng: random.Random | None = None,
) -> tuple[T, int]:
    """Call ``fn`` with retries per ``spec``; return (result, attempts).

    Retries only on :class:`ReproError` — programming errors propagate
    immediately. Raises :class:`RetryExhaustedError` once the attempt or
    deadline budget is spent. ``rng`` seeds the backoff jitter when
    ``spec.jitter > 0`` (tests pass ``random.Random(seed)`` for exact
    schedules).
    """
    rec = telemetry.recorder()
    traced = rec.active
    start = clock()
    attempts = 0
    while True:
        attempts += 1
        if traced:
            telemetry.metrics().counter("retry.attempts").inc()
        try:
            if traced:
                with rec.span("retry.attempt", attempt=attempts):
                    result = fn()
            else:
                result = fn()
            return result, attempts
        except ReproError as exc:
            retries_used = attempts - 1
            exhausted = retries_used >= spec.max_retries or (
                spec.deadline_s is not None
                and clock() - start >= spec.deadline_s
            )
            if exhausted:
                if traced:
                    telemetry.metrics().counter("retry.exhausted").inc()
                raise RetryExhaustedError(attempts, exc) from exc
            pause = spec.backoff_seconds(retries_used + 1, rng=rng)
            if pause > 0:
                if traced:
                    telemetry.metrics().histogram(
                        "retry.backoff_seconds"
                    ).observe(pause)
                sleep(pause)
