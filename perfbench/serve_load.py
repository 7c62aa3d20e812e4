"""The ``serve`` workload: open-loop ``POST /predict`` traffic.

One client (this process, one asyncio loop, no extra threads) drives
``repro serve`` over at most ``nproc`` (capped at 2) keep-alive
connections. Keys follow a zipf law over every (machine, kernel,
thread count, placement, precision) combination, in a fixed stream;
arrivals follow a seeded Poisson schedule. Every rate step starts a
fresh server and warms it with the same untimed prefix of the key
stream, so steps do not inherit each other's uptime. The light and
heavy steps give the timed figures; the capacity search runs only in
traced runs.
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import json
import math
import os
import random
import signal
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from common import (
    SETUP_LAUNCHES,
    TRACE_SHARE,
    BenchError,
    Child,
    host_probe,
    median,
    percentile,
    to_reference,
)

#: Offered rates (requests/s), fixed when the benchmark was defined
#: against a measured capacity of ~220 req/s (2-vCPU virtual machine):
#: light at about one third of it, heavy at about three fifths (at
#: four fifths p99 sat at the latency limit).
LIGHT_RPS = 75.0
HEAVY_RPS = 125.0
#: p99 latency limit of the capacity search (ms): above one uncached
#: engine call, far below the server's 2 s default deadline.
LATENCY_LIMIT_MS = 50.0
#: A step whose generator sent its requests later than this (p99 of
#: send time minus the time it could have sent) is invalid; it is run
#: again, at most :data:`STEP_TRIES` times in all.
LATENESS_BOUND_MS = 20.0
STEP_TRIES = 2
#: Zipf exponent of the key popularity law.
ZIPF_S = 1.0
#: The popularity order of the keys and the request stream drawn from
#: it are part of the workload, fixed by this constant, so every run
#: asks the same keys in the same order; ``--seed`` draws the Poisson
#: arrival times.
MIX_SEED = 2042
#: Untimed warm-up prefix sent to every fresh server (closed loop).
WARMUP_REQUESTS = 500
#: Requests per timed step at ``--seconds 10``, scaled with
#: ``--seconds``. The light and heavy steps send at least
#: :data:`MIN_STEP_REQUESTS` (about 21 s of traffic together),
#: so p99 has ten samples beyond it. Search steps all send the same
#: number (so they differ only in rate), cut to
#: :data:`SEARCH_STEP_MAX_S` of traffic at low rates. A traced run (and
#: its untraced baseline) sends ``TRACE_SHARE`` of each.
LIGHT_REQUESTS, HEAVY_REQUESTS, SEARCH_REQUESTS = 1000, 1000, 800
MIN_STEP_REQUESTS = 1000
SEARCH_STEP_MAX_S = 5.0
#: A step stops sending once a request is this late (overloaded).
ABORT_LAG_S = 1.0
#: Capacity-search steps after the light and heavy steps.
SEARCH_STEPS = 3
SEARCH_FACTOR = 2.0
#: The serve latency metrics (reported without a bound).
LATENCY_METRICS = ("light.p50_ms", "light.p99_ms", "heavy.p50_ms",
                   "heavy.p99_ms", "capacity_rps")
#: No capacity-search step starts after this long into a measurement
#: (half of it for each half of a traced run), so a run on a slow host
#: still ends within its time limit.
SEARCH_DEADLINE_S = 100.0


def probe_cpus() -> float:
    """Mean :func:`host_probe` over the CPUs this process may use (they
    change speed independently, and the server may run on any), run
    while the server is idle."""
    cpus = os.sched_getaffinity(0)
    probes = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            probes.append(host_probe())
    finally:
        os.sched_setaffinity(0, cpus)
    return sum(probes) / len(probes)


def connections() -> int:
    return max(1, min(2, len(os.sched_getaffinity(0))))


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time of process ``pid`` and its threads."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def key_space() -> list[tuple]:
    """Every (machine, kernel, threads, placement, precision) key, with
    thread counts {1, cores/4, cores/2, cores} of each machine."""
    from repro.kernels.registry import all_kernels
    from repro.registry import registry_with_paths

    machines = registry_with_paths(()).machines()
    kernels = [k.name for k in all_kernels()]
    keys = []
    for name in sorted(machines):
        cores = machines[name].topology.num_cores
        threads = sorted({t for t in (1, cores // 4, cores // 2, cores)
                          if t >= 1})
        keys.extend(itertools.product(
            [name], kernels, threads, ("block", "cyclic"),
            ("fp32", "fp64")))
    return keys


def request_bytes(key: tuple, rid: int) -> bytes:
    machine, kernel, threads, placement, precision = key
    body = json.dumps({
        "kernel": kernel, "cpu": machine, "threads": threads,
        "placement": placement, "precision": precision,
    }, separators=(",", ":")).encode()
    return (
        f"POST /predict HTTP/1.1\r\nHost: bench\r\n"
        f"Content-Type: application/json\r\nX-Request-Id: {rid}\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode() + body


@dataclass
class Traffic:
    """The seeded key stream and unit-rate arrival gaps."""

    keys: list[tuple]
    stream: list[int]  # key index per request
    gaps: list[float]  # exponential gaps at rate 1

    @classmethod
    def generate(cls, seed: int, keys: list[tuple], length: int):
        mix = random.Random(MIX_SEED)
        ranks = list(range(len(keys)))
        mix.shuffle(ranks)  # rank -> key index
        weights = itertools.accumulate(
            1.0 / (r + 1) ** ZIPF_S for r in range(len(keys)))
        stream = [ranks[r] for r in mix.choices(
            range(len(keys)), cum_weights=list(weights), k=length)]
        rng = random.Random(seed)
        gaps = [rng.expovariate(1.0) for _ in range(length)]
        return cls(keys, stream, gaps)

    def lru_hit_share(self, capacity: int = 2048) -> float:
        """Hit share of an LRU of ``capacity`` responses over the timed
        part of the stream, after the warm-up prefix."""
        from collections import OrderedDict

        lru: OrderedDict = OrderedDict()
        hits = total = 0
        for i, key in enumerate(self.stream):
            if key in lru:
                lru.move_to_end(key)
                hit = True
            else:
                hit = False
                lru[key] = None
                if len(lru) > capacity:
                    lru.popitem(last=False)
            if i >= WARMUP_REQUESTS:
                total += 1
                hits += hit
        return hits / total if total else 0.0


@dataclass
class StepResult:
    rate: float
    requests: int
    latencies_ms: list[float]  # inf for failed requests
    lateness_p99_ms: float
    backlog_growing: bool
    aborted: bool  # overloaded: stopped sending part-way
    cpu_s: float  # server CPU time during the timed traffic
    probes: list[float]  # host probes at launch, before and after traffic
    setup_s: float
    peak_rss_mb: float
    counters: dict[str, float]
    responses: list[tuple[int, int, bytes]] = field(repr=False)

    @property
    def valid(self) -> bool:
        return self.lateness_p99_ms <= LATENESS_BOUND_MS

    @property
    def p50_ms(self) -> float:
        return percentile(sorted(self.latencies_ms), 50)

    @property
    def p99_ms(self) -> float:
        return percentile(sorted(self.latencies_ms), 99)

    @property
    def passes(self) -> bool:
        return self.p99_ms <= LATENCY_LIMIT_MS and not self.backlog_growing


async def _exchange(reader, writer, payload: bytes) -> tuple[int, bytes]:
    writer.write(payload)
    head = await reader.readuntil(b"\r\n\r\n")
    status = int(head[9:12])
    at = head.find(b"Content-Length: ")
    length = int(head[at + 16:head.find(b"\r\n", at)]) if at >= 0 else 0
    body = await reader.readexactly(length) if length else b""
    return status, body


class ServeClient:
    """Runs rate steps, each against a fresh server."""

    def __init__(self, src: Path, root: Path, run_dir: Path,
                 traffic: Traffic, spans_dir: Path | None) -> None:
        self.src = src
        self.root = root
        self.run_dir = run_dir
        self.traffic = traffic
        self.spans_dir = spans_dir
        self.servers = 0
        self.conns = connections()
        self.problems: list[str] = []  # wrong outputs
        self.requests = [
            request_bytes(traffic.keys[k], i)
            for i, k in enumerate(traffic.stream)
        ]

    # -- server lifecycle -------------------------------------------------

    def _launch(self, serves: bool = True) -> Child:
        """A fresh server; the spans of one that ``serves`` no traffic
        are not kept."""
        self.servers += 1
        stderr = self.run_dir / f"server-{self.servers}.err"
        if self.spans_dir is None:
            argv = [sys.executable, "-m", "repro", "serve", "--port", "0"]
        else:
            launcher = Path(__file__).with_name("serve_launch.py")
            spans = self.spans_dir if serves else self.run_dir
            argv = [sys.executable, str(launcher),
                    str(spans / f"spans-{self.servers}.json")]
        return Child(argv, self.src, self.root, stderr, ready_line=False,
                     pinned=False)

    def _drain(self, child: Child) -> None:
        child.proc.send_signal(signal.SIGTERM)
        code = child.finish(60.0)
        if code != 0:
            self.problems.append(f"server drain exited {code}: "
                                 f"{child.stderr_tail()}")

    async def setup_only(self) -> float:
        """Set-up time of a fresh server that serves nothing, at the
        reference host speed."""
        probe = probe_cpus()
        child = self._launch(serves=False)
        try:
            _, setup_s = await self._wait_ready(child)
        except BaseException:
            child.kill()
            raise
        self._drain(child)
        return to_reference(setup_s, probe)

    async def _wait_ready(self, child: Child) -> tuple[int, float]:
        deadline = time.monotonic() + 60.0
        port = None
        while port is None:
            if child.proc.poll() is not None or time.monotonic() > deadline:
                raise BenchError(f"server did not start: "
                                 f"{child.stderr_tail()}")
            text = child.stderr_path.read_text(errors="replace")
            marker = text.find("serving on http://")
            if marker >= 0 and "\n" in text[marker:]:
                line = text[marker:].split("\n", 1)[0]
                port = int(line.rsplit(":", 1)[1])
            else:
                await asyncio.sleep(0.002)
        while True:
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port)
            except OSError:
                await asyncio.sleep(0.002)
                continue
            try:
                status, _ = await _exchange(
                    reader, writer,
                    b"GET /readyz HTTP/1.1\r\nHost: bench\r\n"
                    b"Connection: close\r\n\r\n")
            finally:
                writer.close()
            if status == 200:
                return port, time.perf_counter() - child.started
            if time.monotonic() > deadline:
                raise BenchError("server never became ready")
            await asyncio.sleep(0.002)

    # -- traffic ----------------------------------------------------------

    async def _warmup(self, conns) -> list[tuple[int, int, bytes]]:
        responses = []
        counter = itertools.count()

        async def worker(reader, writer):
            while (i := next(counter)) < WARMUP_REQUESTS:
                status, body = await _exchange(reader, writer,
                                               self.requests[i])
                responses.append((i, status, body))

        await asyncio.gather(*(worker(r, w) for r, w in conns))
        return responses

    async def _timed(self, conns, rate: float, count: int):
        """Send ``count`` requests on the Poisson schedule at ``rate``.
        A step whose send lag passes :data:`ABORT_LAG_S` is overloaded:
        it stops sending (its backlog is growing)."""
        loop = asyncio.get_running_loop()
        first = WARMUP_REQUESTS
        due = list(itertools.accumulate(
            g / rate for g in self.traffic.gaps[first:first + count]))
        start = loop.time() + 0.02
        latencies: list[float | None] = [None] * count
        lateness: list[float] = []
        lag: list[float] = []
        responses = []
        counter = itertools.count()
        overloaded = False

        async def worker(reader, writer):
            nonlocal overloaded
            while not overloaded and (j := next(counter)) < count:
                picked = loop.time()
                when = start + due[j]
                if when > picked:
                    await asyncio.sleep(when - picked)
                sent = loop.time()
                if sent - when > ABORT_LAG_S:
                    overloaded = True
                    return
                status, body = await _exchange(reader, writer,
                                               self.requests[first + j])
                done = loop.time()
                lateness.append(sent - max(when, picked))
                lag.append(sent - when)
                latencies[j] = (done - when) * 1e3 if status == 200 \
                    else math.inf
                responses.append((first + j, status, body))

        await asyncio.gather(*(worker(r, w) for r, w in conns))
        tail = sorted(lag[-max(1, len(lag) // 20):])
        growing = overloaded or median(tail) * 1e3 > LATENCY_LIMIT_MS
        return ([x for x in latencies if x is not None],
                percentile(sorted(lateness), 99) * 1e3, growing, overloaded,
                responses)

    async def _metrics(self, conns) -> dict[str, float]:
        reader, writer = conns[0]
        status, body = await _exchange(
            reader, writer, b"GET /metrics HTTP/1.1\r\nHost: bench\r\n\r\n")
        if status != 200:
            raise BenchError(f"GET /metrics returned {status}")
        counters = {}
        for line in body.decode().splitlines():
            parts = line.split()
            if len(parts) == 3 and parts[0] == "counter":
                counters[parts[1]] = float(parts[2])
        return counters

    async def step(self, rate: float, count: int) -> StepResult:
        probes = [probe_cpus()]
        child = self._launch()
        try:
            port, setup_s = await self._wait_ready(child)
            conns = [await asyncio.open_connection("127.0.0.1", port)
                     for _ in range(self.conns)]
            responses = await self._warmup(conns)
            probes.append(probe_cpus())
            cpu_before = cpu_seconds(child.proc.pid)
            # The client's own collector must not pause the schedule.
            gc.collect()
            gc.disable()
            try:
                latencies, late_ms, growing, aborted, timed = \
                    await self._timed(conns, rate, count)
            finally:
                gc.enable()
            cpu_s = cpu_seconds(child.proc.pid) - cpu_before
            probes.append(probe_cpus())
            responses.extend(timed)
            counters = await self._metrics(conns)
            for _, writer in conns:
                writer.close()
        except BaseException:
            child.kill()
            raise
        self._drain(child)
        if counters.get("serve.unhandled_errors", 0):
            self.problems.append("server counted unhandled errors")
        return StepResult(rate, len(latencies), latencies, late_ms, growing,
                          aborted, cpu_s, probes,
                          to_reference(setup_s, probes[0]),
                          child.peak_rss_mb, counters, responses)


def _brackets(steps: list[StepResult]):
    """The highest passing step, and the lowest failing step above it
    (either may be ``None``)."""
    passing = [s for s in steps if s.passes]
    best = max(passing, key=lambda s: s.rate) if passing else None
    above = [s for s in steps if not s.passes
             and (best is None or s.rate > best.rate)]
    worst = min(above, key=lambda s: s.rate) if above else None
    return best, worst


def search_capacity(run_step, light: StepResult, heavy: StepResult,
                    deadline: float) -> tuple[float, list]:
    """Highest rate whose p99 stays within the limit without a growing
    backlog, and the search steps run.

    Until a failing step sits above the highest passing one, the search
    climbs a geometric ladder (factor :data:`SEARCH_FACTOR`), or steps
    down below the lowest rate while nothing passes; from then on it
    bisects that bracket geometrically. At most :data:`SEARCH_STEPS`
    steps. The result is the rate where p99 crosses the limit,
    interpolated log-log between the highest passing step and the
    lowest failing step above it that ran to the end; it is the highest
    passing rate when every failing step above it was cut short (its
    p99 is not that of the offered rate). No step starts after
    ``deadline`` (monotonic)."""
    steps = [light, heavy]
    for _ in range(SEARCH_STEPS):
        if time.monotonic() > deadline:
            break
        best, worst = _brackets(steps)
        if best is None:
            rate = min(s.rate for s in steps) / SEARCH_FACTOR
        elif worst is None:
            rate = best.rate * SEARCH_FACTOR
        else:
            rate = math.sqrt(best.rate * worst.rate)
        steps.append(run_step(rate))
    best, worst = _brackets([s for s in steps if not s.aborted])
    if best is None:
        raise BenchError("no capacity-search step met the latency limit")
    if worst is None or not LATENCY_LIMIT_MS < worst.p99_ms < math.inf:
        return best.rate, steps[2:]
    lo, hi = math.log(best.p99_ms), math.log(worst.p99_ms)
    frac = (math.log(LATENCY_LIMIT_MS) - lo) / (hi - lo)
    return best.rate * (worst.rate / best.rate) ** frac, steps[2:]


def check_outputs(responses: list[tuple[int, int, bytes]],
                  traffic: Traffic) -> tuple[int, int, list[str]]:
    """``(refused, wrong, messages)`` over every response of the run.

    A 200 must carry the uncached ``run_suite`` seconds for its key, and
    every response for one key the same bytes; any other status is a
    refused or failed operation and must be a structured error
    envelope."""
    from repro.kernels.registry import get_kernel
    from repro.registry import registry_with_paths
    from repro.suite.config import RunConfig
    from repro.suite.runner import run_suite

    refused = wrong = 0
    messages: list[str] = []

    def flag(message: str) -> None:
        nonlocal wrong
        wrong += 1
        if len(messages) < 10:
            messages.append(message)

    bodies: dict[int, bytes] = {}
    for i, status, body in responses:
        key = traffic.stream[i]
        if status != 200:
            refused += 1
            try:
                error = json.loads(body)["error"]
                well_formed = all(f in error for f in
                                  ("code", "message", "retryable"))
            except (ValueError, KeyError, TypeError):
                well_formed = False
            if not well_formed:
                flag(f"status {status} without an error envelope")
            continue
        if bodies.setdefault(key, body) != body:
            flag(f"key {traffic.keys[key]} returned different bytes")
    machines = registry_with_paths(()).machines()
    groups: dict[tuple, list[int]] = {}
    for key in bodies:
        machine, kernel, threads, placement, precision = traffic.keys[key]
        groups.setdefault((machine, threads, placement, precision),
                          []).append(key)
    for (machine, threads, placement, precision), keys in groups.items():
        config = RunConfig(threads=threads, placement=placement,
                           precision=precision, runs=1, noise_sigma=0.0)
        suite = run_suite(machines[machine], config, kernels=[
            get_kernel(traffic.keys[k][1]) for k in keys])
        for key in keys:
            got = json.loads(bodies[key])["seconds"]
            if suite.runs[traffic.keys[key][1]].seconds != got:
                flag(f"key {traffic.keys[key]}: seconds {got!r} differs "
                     f"from run_suite")
    return refused, wrong, messages


def run(src: Path, root: Path, run_dir: Path, seed: int, seconds: float,
        spans_dir: Path | None, short: bool, search: bool) -> dict:
    """The light and heavy steps of one measurement, and the capacity
    search if ``search``; returns metrics and checks."""
    started = time.monotonic()
    keys = key_space()
    share = TRACE_SHARE if short else 1.0
    scale = seconds / 10.0 * share
    least = int(MIN_STEP_REQUESTS * share)
    light_n = max(least, int(LIGHT_REQUESTS * scale))
    heavy_n = max(least, int(HEAVY_REQUESTS * scale))
    search_n = int(SEARCH_REQUESTS * scale)
    traffic = Traffic.generate(
        seed, keys, WARMUP_REQUESTS + max(light_n, heavy_n, search_n))
    client = ServeClient(src, root, run_dir, traffic, spans_dir)

    def run_step(rate: float, count: int) -> StepResult:
        for _ in range(STEP_TRIES):
            result = asyncio.run(client.step(rate, count))
            if result.valid:
                return result
        raise BenchError(f"generator ran later than {LATENESS_BOUND_MS} ms "
                         f"(p99) in {STEP_TRIES} tries at {rate:.0f} req/s")

    light = run_step(LIGHT_RPS, light_n)
    heavy = run_step(HEAVY_RPS, heavy_n)
    searched = []
    if search:
        capacity, searched = search_capacity(
            lambda rate: run_step(
                rate, min(search_n, int(rate * SEARCH_STEP_MAX_S * share))),
            light, heavy, started + SEARCH_DEADLINE_S * share)
    steps = [("light", light), ("heavy", heavy)] + [
        (f"search@{s.rate:.0f}", s) for s in searched]
    setups = [s.setup_s for _, s in steps]
    while len(setups) < SETUP_LAUNCHES:
        setups.append(asyncio.run(client.setup_only()))
    responses = [r for _, s in steps for r in s.responses]
    refused, wrong, messages = check_outputs(responses, traffic)
    messages = client.problems + messages
    counters = [s.counters for _, s in steps]
    hits = sum(c.get("serve.respcache.hits", 0) for c in counters)
    misses = sum(c.get("serve.respcache.misses", 0) for c in counters)
    engine = sum(c.get("serve.batches", 0) for c in counters)
    timed = light.requests + heavy.requests
    # Server CPU time as measured, not scaled to the reference host
    # speed: the server's work (sockets, asyncio, two threads on either
    # CPU) does not follow the host probe. Over sets of ten seeds its
    # spread was 0.06-0.10 raw and 0.16-0.23 scaled by the probe.
    probes = light.probes + heavy.probes
    cpu_ms = (light.cpu_s + heavy.cpu_s) / timed * 1e3
    metrics = {
        "op_ms": (cpu_ms, timed),
        "light.p50_ms": (light.p50_ms, light.requests),
        "light.p99_ms": (light.p99_ms, light.requests),
        "heavy.p50_ms": (heavy.p50_ms, heavy.requests),
        "heavy.p99_ms": (heavy.p99_ms, heavy.requests),
    }
    if search:
        metrics["capacity_rps"] = (capacity, len(searched) + 2)
    return {
        "metrics": metrics,
        "setup_s": setups,
        "peak_rss_mb": max(s.peak_rss_mb for _, s in steps),
        "attempted": len(responses),
        "failed": refused + wrong,
        "wrong": wrong + len(client.problems),
        "errors": messages,
        "steps": [
            {"step": name, "rate": s.rate, "requests": s.requests,
             "p50_ms": s.p50_ms, "p99_ms": s.p99_ms,
             "lateness_p99_ms": s.lateness_p99_ms, "valid": s.valid,
             "backlog_growing": s.backlog_growing, "aborted": s.aborted,
             "passes": s.passes, "cpu_ms": s.cpu_s / s.requests * 1e3}
            for name, s in steps
        ],
        "props": {
            "keys": len(keys),
            "zipf_s": ZIPF_S,
            "connections": client.conns,
            "respcache_hit_share": hits / (hits + misses)
            if hits + misses else 0.0,
            "engine_share": misses / (hits + misses)
            if hits + misses else 0.0,
            "engine_batches": engine,
            "lru_model_hit_share": traffic.lru_hit_share(),
            "host_speed": to_reference(1.0, sum(probes) / len(probes)),
        },
    }
