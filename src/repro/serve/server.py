"""The fault-tolerant prediction service: ``repro.serve``.

An asyncio HTTP/JSON server (stdlib streams only) in front of the
prediction engine. Endpoints:

* ``POST /predict`` — one kernel under one configuration, one engine
  call.
* ``POST /sweep`` — a bounded configuration grid, returned long-format.
* ``POST /explain`` — the full model story for one kernel.
* ``GET /machines`` — every registered machine with its digest.
* ``POST /machines`` — register a user-submitted machine document
  (validated, digest-invalidated in the response cache).
* ``GET /healthz`` — liveness (200 while the process runs).
* ``GET /readyz`` — readiness (503 while draining or while the engine
  circuit breaker is open).
* ``GET /metrics`` — the telemetry registry as a flat text dump.

The robustness contract (see ``docs/SERVE.md``): every request has a
deadline; overload sheds with 429 + ``Retry-After`` instead of queueing;
engine faults surface as structured error envelopes (never tracebacks)
and feed a circuit breaker; SIGTERM/SIGINT drain in-flight work before
exit; and a chaos :class:`FaultPlan` can be mounted inside the server so
all of it is provable end-to-end.
"""

from __future__ import annotations

import asyncio
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable

from repro import telemetry
from repro.kernels.registry import get_kernel
from repro.resilience import chaos
from repro.resilience.faults import FaultPlan
from repro.resilience.retry import FailurePolicy, RetrySpec
from repro.serve import http
from repro.serve.admission import AdmissionController
from repro.serve.breaker import BreakerState, CircuitBreaker
from repro.serve.errors import (
    BadRequest,
    DeadlineExceeded,
    EngineFault,
    NotFound,
    ServeError,
    Shed,
    Unavailable,
    internal_error,
)
from repro.serve.respcache import (
    CachedResponse,
    ResponseCache,
    etag_matches,
    explain_key,
    predict_key,
    response_etag,
    sweep_key,
)
from repro.suite.config import Placement, Precision, RunConfig
from repro.suite.memo import machine_digest
from repro.suite.runner import SuiteResult, run_suite
from repro.util.errors import ConfigError, ReproError

#: Upper bound on one ``/sweep`` request's grid (points x kernels).
MAX_SWEEP_CELLS = 512


@dataclass
class ServeConfig:
    """Everything the service can be tuned with (CLI ``repro serve``)."""

    host: str = "127.0.0.1"
    port: int = 8642
    #: Admission watermark: in-flight requests beyond this are shed.
    max_inflight: int = 64
    base_retry_after_ms: int = 100
    #: Applied when a request carries no ``deadline_ms`` of its own.
    default_deadline_ms: float = 2000.0
    max_deadline_ms: float = 60_000.0
    #: Circuit breaker tuning.
    breaker_threshold: int = 5
    breaker_cooldown_s: float = 1.0
    half_open_probes: int = 1
    #: Engine-side failure policy of ``/predict`` and ``/sweep`` calls.
    on_failure: str = "retry"
    retries: int = 2
    backoff_base_s: float = 0.0
    jitter: float = 1.0
    #: Worker threads running the (NumPy-heavy, GIL-releasing) engine.
    engine_workers: int = 2
    drain_timeout_s: float = 10.0
    idle_timeout_s: float = 30.0
    #: Chaos plan mounted for the server's lifetime (CI smoke tests).
    fault_plan: FaultPlan | None = None
    #: Response cache: entry cap (0 disables it entirely) and total
    #: body-byte budget.
    respcache_entries: int = 2048
    respcache_bytes: int = 64 << 20
    #: Extra registry roots layered over the shipped data; the server's
    #: machine map is built from the resulting registry at startup.
    registry_paths: tuple[str, ...] = ()

    def retry_spec(self) -> RetrySpec:
        return RetrySpec(
            max_retries=self.retries,
            backoff_base_s=self.backoff_base_s,
            jitter=self.jitter,
        )


@dataclass
class _RequestOutcome:
    """One handler's response triple.

    When ``cached`` is set the connection loop writes the
    pre-serialized bytes (head included) directly instead of
    re-rendering a response — ``status``/``body`` stay populated so the
    accounting and test surfaces are identical either way.
    """

    status: int
    body: bytes
    headers: dict[str, str] = field(default_factory=dict)
    content_type: str = "application/json"
    cached: CachedResponse | None = None


def _error_outcome(exc: ServeError) -> _RequestOutcome:
    headers = {}
    if exc.retry_after_ms is not None:
        # Retry-After is whole seconds in HTTP; round up so "50 ms"
        # never becomes "0".
        headers["Retry-After"] = str(max(1, -(-exc.retry_after_ms // 1000)))
    return _RequestOutcome(
        status=exc.status,
        body=http.json_body(exc.envelope()),
        headers=headers,
    )


def _run_fault(result: SuiteResult, name: str) -> EngineFault | None:
    """The fault a ``/predict`` engine call stands for, or ``None`` when
    it produced the kernel's run: a missing run carries its kernel's
    terminal failure record (retries already spent inside
    :func:`run_suite`)."""
    if name in result.runs:
        return None
    record = result.failed_kernels().get(name.upper())
    if record is None:
        return EngineFault(f"{name}: engine produced no result")
    return EngineFault.from_failure(record)


class PredictionServer:
    """One serving process: sockets, queues, breaker, caches, drain."""

    def __init__(self, config: ServeConfig | None = None) -> None:
        self.config = config or ServeConfig()
        self.admission = AdmissionController(
            max_inflight=self.config.max_inflight,
            base_retry_after_ms=self.config.base_retry_after_ms,
        )
        self.breaker = CircuitBreaker(
            failure_threshold=self.config.breaker_threshold,
            cooldown_s=self.config.breaker_cooldown_s,
            half_open_probes=self.config.half_open_probes,
            on_transition=self._on_breaker_transition,
        )
        self.latency = telemetry.LatencyWindow()
        self.respcache = ResponseCache(
            max_entries=self.config.respcache_entries,
            max_bytes=self.config.respcache_bytes,
        )
        self._policy = FailurePolicy.from_label(self.config.on_failure)
        self._retry = self.config.retry_spec()
        # The machine map starts as the registry's view (shipped data
        # plus any --registry-path roots) and grows at runtime through
        # POST /machines registrations.
        from repro.registry import registry_with_paths

        self._cpus = registry_with_paths(
            self.config.registry_paths
        ).machines()
        self._server: asyncio.base_events.Server | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._draining = False
        self._started = False
        self._chaos_cm = None
        self._previous_telemetry: tuple | None = None
        self._connections: set[asyncio.Task] = set()
        self.port: int | None = None
        self.final_summary: telemetry.TelemetrySummary | None = None

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> None:
        """Start the engine workers and bind the socket."""
        if self._started:
            raise ConfigError("server already started")
        self._started = True
        self._draining = False
        # The server owns a telemetry session for its whole lifetime:
        # the metrics registry *is* the ops surface (/metrics).
        self._previous_telemetry = telemetry.install(
            telemetry.TraceRecorder(), telemetry.MetricsRegistry()
        )
        if self.config.fault_plan is not None:
            self._chaos_cm = chaos.inject_faults(self.config.fault_plan)
            self._chaos_cm.__enter__()
        # The chaos module's attempt counters are shared global state;
        # a single engine worker keeps fault injection deterministic,
        # mirroring the sweep's forced-serial rule.
        workers = (
            1 if self.config.fault_plan is not None
            else max(1, self.config.engine_workers)
        )
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-serve"
        )
        self._server = await asyncio.start_server(
            self._handle_client, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        reg = telemetry.metrics()
        reg.gauge("serve.breaker_state").set(self.breaker.state.code)
        reg.gauge("serve.draining").set(0)

    async def drain(self) -> None:
        """Graceful shutdown: stop accepting, let in-flight requests
        finish, emit final telemetry. Idempotent."""
        if not self._started:
            return
        self._draining = True
        telemetry.metrics().gauge("serve.draining").set(1)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Let in-flight requests finish inside the drain budget.
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.config.drain_timeout_s
        while not self.admission.idle() and loop.time() < deadline:
            await asyncio.sleep(0.01)
        for task in tuple(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*tuple(self._connections),
                                 return_exceptions=True)
        if self._executor is not None:
            self._executor.shutdown(wait=True)
        self._refresh_gauges()
        self.final_summary = telemetry.TelemetrySummary.capture(
            telemetry.recorder(), telemetry.metrics()
        )
        if self._chaos_cm is not None:
            self._chaos_cm.__exit__(None, None, None)
            self._chaos_cm = None
        if self._previous_telemetry is not None:
            telemetry.install(*self._previous_telemetry)
            self._previous_telemetry = None
        self._started = False

    @property
    def draining(self) -> bool:
        return self._draining

    def _on_breaker_transition(
        self, frm: BreakerState, to: BreakerState
    ) -> None:
        reg = telemetry.metrics()
        reg.gauge("serve.breaker_state").set(to.code)
        reg.counter("serve.breaker_transitions").inc()

    def _refresh_gauges(self) -> None:
        """Publish the point-in-time gauges (queue depth, breaker state,
        latency percentiles, response-cache state) — called on /metrics
        and at drain so exports are current."""
        reg = telemetry.metrics()
        reg.gauge("serve.queue_depth").set(self.admission.depth)
        reg.gauge("serve.breaker_state").set(self.breaker.state.code)
        reg.gauge("serve.draining").set(1 if self._draining else 0)
        p50 = self.latency.percentile(50)
        p99 = self.latency.percentile(99)
        if p50 is not None:
            reg.gauge("serve.latency_p50_ms").set(round(p50 * 1e3, 3))
        if p99 is not None:
            reg.gauge("serve.latency_p99_ms").set(round(p99 * 1e3, 3))
        rc = self.respcache.stats()
        reg.gauge("serve.respcache.entries").set(rc.entries)
        reg.gauge("serve.respcache.bytes").set(rc.bytes)
        if rc.hit_rate is not None:
            reg.gauge("serve.respcache.hit_rate").set(
                round(rc.hit_rate, 6)
            )

    # -- connection handling ----------------------------------------------

    async def _handle_client(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)
        try:
            await self._serve_connection(reader, writer)
        except (asyncio.CancelledError, ConnectionError):
            pass
        except Exception:
            # Connection-level surprises must never escape the task
            # (an unhandled exception here is exactly what the CI smoke
            # asserts cannot happen).
            telemetry.metrics().counter("serve.unhandled_errors").inc()
        finally:
            # Swallow CancelledError too: a drain cancels connection
            # tasks, and a task that *ends* cancelled makes asyncio's
            # streams callback re-raise into the event loop's exception
            # handler — exactly the unhandled-error noise the smoke
            # test asserts cannot happen.
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _serve_connection(self, reader, writer) -> None:
        while True:
            try:
                request = await asyncio.wait_for(
                    http.read_request(reader),
                    timeout=self.config.idle_timeout_s,
                )
            except asyncio.TimeoutError:
                return
            except BadRequest as exc:
                outcome = _error_outcome(exc)
                http.write_response(
                    writer, outcome.status, outcome.body, keep_alive=False
                )
                await writer.drain()
                return
            if request is None:
                return
            outcome = await self._dispatch(request)
            keep_alive = request.keep_alive and not self._draining
            if outcome.cached is not None:
                # Hot path: head (Content-Length precomputed) and body
                # in one write, nothing re-rendered.
                cached = outcome.cached
                writer.write(cached.head(keep_alive) + cached.body)
            else:
                http.write_response(
                    writer,
                    outcome.status,
                    outcome.body,
                    content_type=outcome.content_type,
                    keep_alive=keep_alive,
                    extra_headers=outcome.headers,
                )
            await writer.drain()
            if not keep_alive:
                return

    async def _dispatch(self, request: http.HttpRequest) -> _RequestOutcome:
        reg = telemetry.metrics()
        reg.counter("serve.requests").inc()
        loop = asyncio.get_running_loop()
        started = loop.time()
        try:
            outcome = await self._route(request)
            if outcome.cached is not None:
                etag = outcome.cached.etag
            elif outcome.status == 200:
                etag = outcome.headers.get("ETag", "")
            else:
                etag = ""
            if etag_matches(
                request.headers.get("if-none-match"), etag
            ):
                # Conditional hit: the client already holds these
                # bytes — revalidate with a body-less 304.
                reg.counter("serve.respcache.not_modified").inc()
                outcome = _RequestOutcome(
                    status=304, body=b"", headers={"ETag": etag}
                )
        except ServeError as exc:
            reg.counter(f"serve.errors.{exc.code}").inc()
            outcome = _error_outcome(exc)
        except ReproError as exc:
            # Engine/config errors that slipped past a handler still
            # become structured envelopes, never tracebacks.
            reg.counter("serve.errors.engine_fault").inc()
            outcome = _error_outcome(BadRequest(str(exc)))
        except Exception:
            reg.counter("serve.unhandled_errors").inc()
            outcome = _error_outcome(internal_error())
        self.latency.observe(loop.time() - started)
        reg.counter(f"serve.responses.{outcome.status // 100}xx").inc()
        return outcome

    async def _route(self, request: http.HttpRequest) -> _RequestOutcome:
        route = (request.method, request.path)
        if route == ("GET", "/healthz"):
            return _RequestOutcome(200, http.json_body({"status": "ok"}))
        if route == ("GET", "/readyz"):
            return self._readyz()
        if route == ("GET", "/metrics"):
            self._refresh_gauges()
            dump = telemetry.metrics().snapshot().render()
            return _RequestOutcome(
                200, dump.encode("utf-8") + b"\n",
                content_type="text/plain; charset=utf-8",
            )
        if route == ("POST", "/predict"):
            return await self._predict(request.json())
        if route == ("POST", "/sweep"):
            return await self._sweep(request.json())
        if route == ("POST", "/explain"):
            return await self._explain(request.json())
        if route == ("GET", "/machines"):
            return self._machines()
        if route == ("POST", "/machines"):
            return self._register_machine(request.json())
        if request.path in (
            "/predict", "/sweep", "/explain", "/machines", "/healthz",
            "/readyz", "/metrics",
        ):
            raise BadRequest(
                f"method {request.method} not supported on {request.path}"
            )
        raise NotFound(f"no route {request.path!r}")

    def _readyz(self) -> _RequestOutcome:
        if self._draining:
            raise Unavailable(
                "draining for shutdown",
                retry_after_ms=int(self.config.drain_timeout_s * 1000),
            )
        state = self.breaker.state
        if state is BreakerState.OPEN:
            raise Unavailable(
                "engine circuit breaker is open",
                retry_after_ms=self.breaker.retry_after_ms(),
                details={"breaker_state": state.value},
            )
        return _RequestOutcome(
            200,
            http.json_body(
                {"status": "ready", "breaker": state.value}
            ),
        )

    def _machines(self) -> _RequestOutcome:
        """``GET /machines``: every registered machine + its digest."""
        payload = {
            "machines": [
                {
                    "name": name,
                    "cpu": cpu.name,
                    "digest": str(machine_digest(cpu)),
                }
                for name, cpu in sorted(self._cpus.items())
            ]
        }
        body = http.json_body(payload)
        return _RequestOutcome(
            200, body, headers={"ETag": response_etag(body)}
        )

    def _register_machine(
        self, body: dict[str, Any]
    ) -> _RequestOutcome:
        """``POST /machines``: validate + register a machine document.

        The body is a full registry envelope (``schema``/``name``/
        ``doc``). Registration is idempotent on the machine digest; a
        changed document under a known name replaces it. Every
        registration invalidates the response cache for the digests
        involved.
        """
        from repro.registry import parse_document, validate_document

        try:
            rdoc = parse_document(
                body, source="POST /machines body", kind="machines"
            )
            cpu = validate_document(rdoc)
        except ReproError as exc:
            raise BadRequest(str(exc))
        digest = str(machine_digest(cpu))
        existing = self._cpus.get(rdoc.name)
        if (
            existing is not None
            and str(machine_digest(existing)) == digest
        ):
            payload = {
                "name": rdoc.name,
                "cpu": cpu.name,
                "digest": digest,
                "status": "unchanged",
            }
            return _RequestOutcome(200, http.json_body(payload))
        self._cpus[rdoc.name] = cpu
        invalidated = self.respcache.invalidate(digest)
        if existing is not None:
            # The name changed identity: stale responses for the old
            # document must not outlive it either.
            invalidated += self.respcache.invalidate(
                str(machine_digest(existing))
            )
        telemetry.metrics().counter("serve.machines_registered").inc()
        payload = {
            "name": rdoc.name,
            "cpu": cpu.name,
            "digest": digest,
            "status": "registered",
            "invalidated_responses": invalidated,
        }
        return _RequestOutcome(201, http.json_body(payload))

    # -- request parsing ---------------------------------------------------

    def _resolve_cpu(self, body: dict[str, Any]):
        name = body.get("cpu", "sg2042")
        if not isinstance(name, str):
            raise BadRequest("'cpu' must be a machine name string")
        cpu = self._cpus.get(name)
        if cpu is None:
            raise NotFound(
                f"unknown machine {name!r}; known: {sorted(self._cpus)}"
            )
        return cpu

    @staticmethod
    def _resolve_threads(cpu, value: Any) -> int:
        """One client thread count, checked against the machine.

        Only a JSON integer (not a boolean) from 1 to the machine's core
        count is valid. Anything else is the client's error: it is
        rejected here, before the response cache, admission and the
        breaker, so it can never count as an engine fault.
        """
        cores = cpu.topology.num_cores
        if (
            isinstance(value, bool)
            or not isinstance(value, int)
            or not 1 <= value <= cores
        ):
            raise BadRequest(
                f"'threads' must be an integer from 1 to {cores} "
                f"(the cores of {cpu.name}), got {value!r}"
            )
        return value

    def _resolve_kernel(self, name: Any):
        if not isinstance(name, str) or not name:
            raise BadRequest("'kernel' must be a kernel name string")
        try:
            return get_kernel(name)
        except ReproError as exc:
            raise NotFound(str(exc))

    def _resolve_config(self, cpu, body: dict[str, Any]) -> RunConfig:
        threads = self._resolve_threads(cpu, body.get("threads", 1))
        try:
            return RunConfig(
                threads=threads,
                placement=str(body.get("placement", "block")),
                precision=str(body.get("precision", "fp64")),
                # Raw JSON values: RunConfig rejects anything but a
                # bool, so "false" is a 400, not a truthy True.
                vectorize=body.get("vectorize", True),
                compiler=body.get("compiler"),
                flavor=str(body.get("flavor", "vls")),
                rollback=body.get("rollback", False),
                # Serving is deterministic: one run, exact model output.
                runs=1,
                noise_sigma=0.0,
            )
        except (ConfigError, ValueError, TypeError) as exc:
            raise BadRequest(f"invalid configuration: {exc}")

    def _deadline_s(self, body: dict[str, Any]) -> float:
        """The request's deadline in seconds, capped at the server's.

        Only a JSON number (not a boolean) that is finite and above 0
        is valid; ``json`` parses ``NaN`` and ``Infinity`` as floats,
        so finiteness is checked, not assumed. Anything else is the
        client's error, rejected before the response cache and
        admission.
        """
        raw = body.get("deadline_ms", self.config.default_deadline_ms)
        if (
            isinstance(raw, bool)
            or not isinstance(raw, (int, float))
            or not math.isfinite(raw)
            or raw <= 0
        ):
            raise BadRequest(
                f"'deadline_ms' must be a finite number above 0, "
                f"got {raw!r}"
            )
        return min(raw, self.config.max_deadline_ms) / 1000.0

    def _admit(self) -> None:
        """Common gate: drain state, breaker, admission watermark."""
        if self._draining:
            raise Unavailable("draining for shutdown")
        if not self.breaker.allow():
            raise Unavailable(
                "engine circuit breaker is open",
                retry_after_ms=self.breaker.retry_after_ms(),
                details={"breaker_state": self.breaker.state.value},
            )
        if not self.admission.try_acquire():
            telemetry.metrics().counter("serve.shed").inc()
            raise Shed(
                f"service is over its in-flight watermark "
                f"({self.admission.max_inflight})",
                retry_after_ms=self.admission.retry_after_ms(),
            )
        telemetry.metrics().gauge("serve.queue_depth").set(
            self.admission.depth
        )

    async def _engine_call(
        self,
        work: Callable[[], Any],
        deadline_s: float,
        label: str,
        fault_of: Callable[[Any], EngineFault | None] | None = None,
    ) -> Any:
        """Run one admitted request's ``work`` on the engine executor.

        The one path from ``/predict``, ``/sweep`` and ``/explain`` to
        the engine. The request holds an admission slot until ``work``
        returns or its deadline passes; a deadline that passes while
        ``work`` still waits for an engine worker cancels it, so it
        never runs. Every call that returns reports to the breaker: an
        exception, or a result that ``fault_of`` maps to an
        :class:`EngineFault`, is a failure and a 500; any other result
        is a success. A timeout reports nothing: the deadline is the
        client's budget, not an engine outcome.
        """
        self._admit()
        try:
            try:
                result = await asyncio.wait_for(
                    asyncio.get_running_loop().run_in_executor(
                        self._executor, work
                    ),
                    timeout=deadline_s,
                )
            except asyncio.TimeoutError:
                telemetry.metrics().counter("serve.deadline_exceeded").inc()
                raise DeadlineExceeded(
                    f"{label}: no result within {deadline_s * 1000:.0f} ms"
                )
            except Exception as exc:
                fault = EngineFault.from_exception(exc)
            else:
                fault = None if fault_of is None else fault_of(result)
            if fault is not None:
                self.breaker.record_failure()
                telemetry.metrics().counter("serve.engine_faults").inc()
                raise fault
            self.breaker.record_success()
            return result
        finally:
            self.admission.release()

    # -- endpoints ---------------------------------------------------------

    async def _predict(self, body: dict[str, Any]) -> _RequestOutcome:
        kernel = self._resolve_kernel(body.get("kernel"))
        cpu = self._resolve_cpu(body)
        config = self._resolve_config(cpu, body)
        deadline_s = self._deadline_s(body)
        key = predict_key(cpu, config, kernel.name)
        cached = self.respcache.get(key)
        if cached is not None:
            # Hot path: pre-serialized bytes. No admission slot, no
            # engine work, no JSON rendering.
            return _RequestOutcome(200, cached.body, cached=cached)

        def work() -> SuiteResult:
            telemetry.metrics().counter("serve.batches").inc()
            return run_suite(
                cpu,
                config,
                kernels=[kernel],
                policy=self._policy,
                retry=self._retry,
            )

        result = await self._engine_call(
            work, deadline_s, kernel.name,
            lambda suite: _run_fault(suite, kernel.name),
        )
        run = result.runs[kernel.name]
        payload = {
            "kernel": run.kernel_name,
            "cpu": cpu.name,
            "threads": config.threads,
            "placement": config.placement.value,
            "precision": config.precision.label,
            "seconds": run.seconds,
            "serving_level": run.prediction.serving_level,
            "bound": run.prediction.bound,
            "vector_executed": run.prediction.vector_executed,
            "attempts": run.attempts,
        }
        response = http.json_body(payload)
        if run.attempts == 1:
            # First-try successes only: a retried run embeds attempt
            # state an uncached request would not reproduce byte-for-
            # byte, and faults never reach this line at all.
            self.respcache.put(key, response)
        return _RequestOutcome(
            200, response, headers={"ETag": response_etag(response)}
        )

    async def _sweep(self, body: dict[str, Any]) -> _RequestOutcome:
        from repro.suite.sweep import sweep

        cpu = self._resolve_cpu(body)
        kernels = [
            self._resolve_kernel(name)
            for name in self._str_list(body, "kernels", ["TRIAD"])
        ]
        threads = body.get("threads", [1])
        if not isinstance(threads, list) or not threads:
            raise BadRequest("'threads' must be a non-empty list")
        try:
            placements = [
                Placement.from_label(p)
                for p in self._str_list(body, "placements", ["block"])
            ]
            precisions = [
                Precision.from_label(p)
                for p in self._str_list(body, "precisions", ["fp64"])
            ]
        except (ConfigError, ValueError, TypeError) as exc:
            raise BadRequest(f"invalid sweep axes: {exc}")
        cells = (
            len(threads) * len(placements) * len(precisions) * len(kernels)
        )
        if cells > MAX_SWEEP_CELLS:
            raise BadRequest(
                f"sweep grid has {cells} cells; the service caps at "
                f"{MAX_SWEEP_CELLS}"
            )
        for t in threads:
            self._resolve_threads(cpu, t)
        deadline_s = self._deadline_s(body)
        key = sweep_key(
            cpu, [k.name for k in kernels], threads, placements,
            precisions,
        )
        cached = self.respcache.get(key)
        if cached is not None:
            return _RequestOutcome(200, cached.body, cached=cached)
        result = await self._engine_call(
            lambda: sweep(
                cpu, kernels, threads, placements, precisions,
                runs=1, noise_sigma=0.0,
                policy=self._policy,
                retry=self._retry,
            ),
            deadline_s, "sweep",
        )
        payload = {
            "cpu": cpu.name,
            "points": [
                {
                    "kernel": kernel,
                    "threads": row.threads,
                    "placement": row.placement.value,
                    "precision": row.precision.label,
                    "seconds": seconds,
                }
                for row in result.rows
                for kernel, seconds in zip(row.kernels, row.seconds)
            ],
            "failures": [
                {
                    "kernel": f.kernel,
                    "threads": f.threads,
                    "placement": f.placement.value,
                    "precision": f.precision.label,
                    "error_type": f.error_type,
                    "message": f.message,
                    "attempts": f.attempts,
                }
                for f in result.failures
            ],
        }
        response = http.json_body(payload)
        if not result.failures:
            # Grids with failures are never cached: a retry might
            # succeed, and failure envelopes must stay live.
            self.respcache.put(key, response)
        return _RequestOutcome(
            200, response, headers={"ETag": response_etag(response)}
        )

    async def _explain(self, body: dict[str, Any]) -> _RequestOutcome:
        from repro.suite.explain import explain_kernel

        kernel = self._resolve_kernel(body.get("kernel"))
        cpu = self._resolve_cpu(body)
        deadline_s = self._deadline_s(body)
        key = explain_key(cpu, kernel.name)
        cached = self.respcache.get(key)
        if cached is not None:
            return _RequestOutcome(200, cached.body, cached=cached)
        text = await self._engine_call(
            lambda: explain_kernel(kernel.name, cpu),
            deadline_s, f"explain {kernel.name}",
        )
        response = http.json_body(
            {"kernel": kernel.name, "explanation": text}
        )
        self.respcache.put(key, response)
        return _RequestOutcome(
            200, response, headers={"ETag": response_etag(response)}
        )

    @staticmethod
    def _str_list(
        body: dict[str, Any], key: str, default: list[str]
    ) -> list[str]:
        value = body.get(key, default)
        if not isinstance(value, list) or not all(
            isinstance(v, str) for v in value
        ):
            raise BadRequest(f"{key!r} must be a list of strings")
        if not value:
            raise BadRequest(f"{key!r} must be non-empty")
        return value


async def serve_forever(config: ServeConfig | None = None) -> int:
    """Run a :class:`PredictionServer` until SIGINT/SIGTERM, then drain.

    The CLI entry point. Prints the bound address on stderr (so scripts
    and the smoke tests can discover an ephemeral port) and the final
    telemetry summary after a clean drain.
    """
    import signal

    server = PredictionServer(config)
    await server.start()
    print(
        f"serving on http://{server.config.host}:{server.port}",
        file=sys.stderr,
        flush=True,
    )
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, stop.set)
        except NotImplementedError:  # pragma: no cover - non-POSIX
            pass
    try:
        await stop.wait()
    finally:
        print("draining...", file=sys.stderr, flush=True)
        await server.drain()
        if server.final_summary is not None:
            print(server.final_summary.render(), file=sys.stderr,
                  flush=True)
        print("drain complete", file=sys.stderr, flush=True)
    return 0
