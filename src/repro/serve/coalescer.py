"""Request coalescing: many concurrent predictions, one engine batch.

The batch engine (:mod:`repro.perfmodel.batch`) was built for exactly
this shape: N kernels under one configuration evaluated in a single
vectorized pass. The coalescer gathers concurrent ``/predict`` requests
over a short window, groups them by (machine, configuration), deduplicates
kernels, and runs each group through one :func:`run_suite` call on a
worker thread — sharing one process-wide :class:`SuiteCaches` per
machine digest, so each kernel is compiled once per process.

Robustness is owned here too: jobs whose deadline expired while queued
are dropped without touching the engine, per-kernel engine faults come
back as structured :class:`EngineFault` results (retried inside
``run_suite`` under the server's retry policy first), and every outcome
feeds the circuit breaker.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import Executor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro import telemetry
from repro.kernels.base import Kernel
from repro.machine.cpu import CPUModel
from repro.resilience.retry import FailurePolicy, RetrySpec
from repro.serve.breaker import CircuitBreaker
from repro.serve.errors import DeadlineExceeded, EngineFault, Unavailable
from repro.suite.config import RunConfig
from repro.suite.memo import SuiteCaches, machine_digest
from repro.suite.runner import KernelRun, run_suite

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store import ArtifactStore


class EngineState:
    """Process-wide cache layers, one :class:`SuiteCaches` per machine.

    Keyed by :func:`machine_digest`, so two requests naming equal
    machines (even via different objects) share compile cache entries,
    while any re-tuned parameter isolates them.

    With ``store`` set, every machine's compile cache is persistent
    (:meth:`SuiteCaches.persistent` over the one shared store), so
    restarts pick up compile reports from disk.
    """

    def __init__(self, store: "ArtifactStore | None" = None) -> None:
        self._lock = threading.Lock()
        self._caches: dict[int, SuiteCaches] = {}
        self._store = store

    @property
    def store(self) -> "ArtifactStore | None":
        return self._store

    def caches_for(self, cpu: CPUModel) -> SuiteCaches:
        digest = machine_digest(cpu)
        with self._lock:
            caches = self._caches.get(digest)
            if caches is None:
                caches = (
                    SuiteCaches.persistent(self._store)
                    if self._store is not None
                    else SuiteCaches()
                )
                self._caches[digest] = caches
            return caches


@dataclass
class PredictJob:
    """One in-flight ``/predict`` request inside the coalescer."""

    kernel: Kernel
    cpu: CPUModel
    config: RunConfig
    future: asyncio.Future
    #: Absolute ``loop.time()`` deadline, or ``None`` for unbounded.
    deadline: float | None = None

    def fail(self, exc: Exception) -> None:
        if not self.future.done():
            self.future.set_exception(exc)

    def resolve(self, run: KernelRun) -> None:
        if not self.future.done():
            self.future.set_result(run)


@dataclass
class CoalescerConfig:
    """Batching and engine-policy knobs (see ``docs/SERVE.md``)."""

    max_batch: int = 64
    window_s: float = 0.002
    policy: FailurePolicy = FailurePolicy.RETRY
    retry: RetrySpec = field(default_factory=lambda: RetrySpec(max_retries=2))
    engine: str = "batch"
    #: Adapt the window to load (``window_s`` becomes the cap); off by
    #: default so the raw coalescer keeps fixed-window semantics.
    adaptive: bool = False
    #: Floor the adaptive window never goes below.
    min_window_s: float = 0.0
    #: Expected arrivals per full window at which the window saturates
    #: at its cap.
    target_batch: int = 8
    #: EWMA smoothing factor for inter-arrival gaps.
    ewma_alpha: float = 0.2
    #: Observed p99 latency (seconds) beyond which the window is scaled
    #: back down even under pressure; ``None`` disables the guardrail.
    guardrail_p99_s: float | None = None


class AdaptiveWindow:
    """Load-adaptive batch window: latency-optimal when idle,
    throughput-optimal under pressure.

    The controller tracks an EWMA of inter-arrival gaps (updated on
    every ``submit``). The window is::

        expected = cap / gap          # arrivals expected per full window
        pressure = clamp((expected - 1) / (target_batch - 1), 0, 1)
        window   = floor + pressure * (cap - floor)

    so a lone request (expected <= 1) waits ``min_window_s`` — zero by
    default, the latency-optimal choice — while a sustained stream that
    would fill ``target_batch`` slots per window gets the full cap, the
    throughput-optimal choice. The gap estimate is decayed by the time
    since the last arrival (``max(ewma, now - last)``), so a burst
    followed by silence drops back to the floor instead of remembering
    its peak rate forever.

    A p99-latency guardrail bounds the failure mode where batching
    itself is the latency problem: when the observed request p99
    exceeds ``guardrail_p99_s``, the window is scaled by
    ``guardrail / p99`` regardless of arrival pressure. At the floor
    it can only shrink a window that is clamped back to the floor, so
    p99 is read only when the window is above it.
    """

    def __init__(
        self,
        cap_s: float,
        min_s: float = 0.0,
        target_batch: int = 8,
        ewma_alpha: float = 0.2,
        guardrail_p99_s: float | None = None,
        latency: "telemetry.LatencyWindow | None" = None,
    ) -> None:
        self.cap_s = max(cap_s, 0.0)
        self.min_s = min(max(min_s, 0.0), self.cap_s)
        self.target_batch = max(target_batch, 1)
        self.ewma_alpha = min(max(ewma_alpha, 0.0), 1.0)
        self.guardrail_p99_s = guardrail_p99_s
        self.latency = latency
        self._gap_ewma: float | None = None
        self._last_arrival: float | None = None

    def observe_arrival(self, now: float) -> None:
        last = self._last_arrival
        self._last_arrival = now
        if last is None:
            return
        gap = max(now - last, 1e-9)
        if self._gap_ewma is None:
            self._gap_ewma = gap
        else:
            self._gap_ewma += self.ewma_alpha * (gap - self._gap_ewma)

    def window_s(self, now: float) -> float:
        cap = self.cap_s
        floor = self.min_s
        if self._gap_ewma is None or self._last_arrival is None:
            return floor
        gap = max(self._gap_ewma, now - self._last_arrival, 1e-9)
        expected = cap / gap
        if self.target_batch > 1:
            pressure = (expected - 1.0) / (self.target_batch - 1.0)
        else:
            pressure = 1.0 if expected > 1.0 else 0.0
        pressure = min(max(pressure, 0.0), 1.0)
        window = floor + pressure * (cap - floor)
        if (
            window > floor
            and self.guardrail_p99_s is not None
            and self.latency is not None
        ):
            p99 = self.latency.percentile(99)
            if p99 is not None and p99 > self.guardrail_p99_s:
                window *= self.guardrail_p99_s / p99
        return min(max(window, floor), cap)


class Coalescer:
    """The batching loop between the HTTP handlers and the engine."""

    def __init__(
        self,
        state: EngineState,
        executor: Executor,
        config: CoalescerConfig | None = None,
        breaker: CircuitBreaker | None = None,
        latency: "telemetry.LatencyWindow | None" = None,
    ) -> None:
        self.state = state
        self.executor = executor
        self.config = config or CoalescerConfig()
        self.breaker = breaker
        self._adaptive: AdaptiveWindow | None = None
        if self.config.adaptive:
            self._adaptive = AdaptiveWindow(
                cap_s=self.config.window_s,
                min_s=self.config.min_window_s,
                target_batch=self.config.target_batch,
                ewma_alpha=self.config.ewma_alpha,
                guardrail_p99_s=self.config.guardrail_p99_s,
                latency=latency,
            )
        self._queue: asyncio.Queue[PredictJob] = asyncio.Queue()
        self._task: asyncio.Task | None = None
        self._groups: set[asyncio.Task] = set()
        self._stopping = False

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        if self._task is not None:
            raise RuntimeError("coalescer already started")
        self._stopping = False
        self._task = asyncio.get_running_loop().create_task(self._run())

    async def stop(self, drain: bool = True) -> None:
        """Stop the batching loop.

        With ``drain=True`` (graceful shutdown) queued jobs are flushed
        into one final dispatch and in-flight group tasks are awaited;
        otherwise everything pending fails with ``unavailable``.
        """
        self._stopping = True
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
        pending: list[PredictJob] = []
        while not self._queue.empty():
            pending.append(self._queue.get_nowait())
        if drain and pending:
            self._dispatch(pending)
        else:
            for job in pending:
                job.fail(Unavailable("service is shutting down"))
        if self._groups:
            await asyncio.gather(*tuple(self._groups),
                                 return_exceptions=True)

    async def submit(self, job: PredictJob) -> None:
        if self._stopping:
            job.fail(Unavailable("service is shutting down"))
            return
        if self._adaptive is not None:
            self._adaptive.observe_arrival(
                asyncio.get_running_loop().time()
            )
        await self._queue.put(job)

    def queued(self) -> int:
        return self._queue.qsize()

    # -- batching loop ----------------------------------------------------

    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            batch = [await self._queue.get()]
            # Backlog that built up while the previous batch dispatched
            # joins immediately — bursts coalesce even at window zero.
            while (
                len(batch) < self.config.max_batch
                and not self._queue.empty()
            ):
                batch.append(self._queue.get_nowait())
            window = self.window_s(loop.time())
            if window > 0:
                window_ends = loop.time() + window
                while len(batch) < self.config.max_batch:
                    remaining = window_ends - loop.time()
                    if remaining <= 0:
                        break
                    try:
                        batch.append(
                            await asyncio.wait_for(
                                self._queue.get(), timeout=remaining
                            )
                        )
                    except asyncio.TimeoutError:
                        break
            self._dispatch(batch)

    def window_s(self, now: float) -> float:
        """This batch's window (fixed, or adaptive under load), also
        published as the ``serve.coalesce.window_ms`` gauge."""
        if self._adaptive is None:
            window = self.config.window_s
        else:
            window = self._adaptive.window_s(now)
        telemetry.metrics().gauge("serve.coalesce.window_ms").set(
            round(window * 1e3, 3)
        )
        return window

    def _dispatch(self, batch: list[PredictJob]) -> None:
        """Group one window's jobs and launch an engine task per group."""
        loop = asyncio.get_event_loop()
        now = loop.time()
        groups: dict[tuple, list[PredictJob]] = {}
        for job in batch:
            if job.future.done():
                continue  # client already gone (cancelled / timed out)
            if job.deadline is not None and now >= job.deadline:
                job.fail(DeadlineExceeded(
                    f"{job.kernel.name}: deadline elapsed while queued"
                ))
                telemetry.metrics().counter(
                    "serve.deadline_exceeded"
                ).inc()
                continue
            groups.setdefault(
                (job.cpu.name, job.config), []
            ).append(job)
        reg = telemetry.metrics()
        for jobs in groups.values():
            reg.counter("serve.batches").inc()
            reg.histogram("serve.batch_width").observe(len(jobs))
            if len(jobs) > 1:
                reg.counter("serve.coalesced").inc(len(jobs) - 1)
            task = loop.create_task(self._run_group(jobs))
            self._groups.add(task)
            task.add_done_callback(self._groups.discard)

    async def _run_group(self, jobs: list[PredictJob]) -> None:
        """Evaluate one (machine, configuration) group in the engine."""
        cpu, config = jobs[0].cpu, jobs[0].config
        kernels: list[Kernel] = []
        seen: set[str] = set()
        for job in jobs:
            if job.kernel.name not in seen:
                seen.add(job.kernel.name)
                kernels.append(job.kernel)
        loop = asyncio.get_running_loop()
        try:
            caches = self.state.caches_for(cpu)
            result = await loop.run_in_executor(
                self.executor,
                lambda: run_suite(
                    cpu,
                    config,
                    kernels=kernels,
                    policy=self.config.policy,
                    retry=self.config.retry,
                    caches=caches,
                    engine=self.config.engine,
                ),
            )
        except Exception as exc:
            # Whole-group failure (corrupted machine description, an
            # ABORT policy, an engine bug): every job gets the same
            # structured fault and the breaker hears about each one.
            fault = EngineFault.from_exception(exc)
            for job in jobs:
                self._record(False)
                job.fail(fault)
            telemetry.metrics().counter("serve.engine_faults").inc(
                len(jobs)
            )
            return
        failed = result.failed_kernels()
        faults = 0
        for job in jobs:
            run = result.runs.get(job.kernel.name)
            if run is not None:
                self._record(True)
                job.resolve(run)
                continue
            self._record(False)
            faults += 1
            record = failed.get(job.kernel.name.upper())
            if record is not None:
                job.fail(EngineFault.from_failure(record))
            else:
                job.fail(EngineFault(
                    f"{job.kernel.name}: engine produced no result"
                ))
        if faults:
            telemetry.metrics().counter("serve.engine_faults").inc(faults)

    def _record(self, success: bool) -> None:
        if self.breaker is None:
            return
        if success:
            self.breaker.record_success()
        else:
            self.breaker.record_failure()
