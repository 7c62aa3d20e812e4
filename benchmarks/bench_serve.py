"""Load benchmark + chaos smoke for the prediction service.

Two phases against an in-process :class:`PredictionServer` on an
ephemeral port:

* **perf** — a seeded zipf-weighted workload (hot kernels dominate, the
  shape of real serving traffic) from concurrent keep-alive client
  connections for a fixed duration. Reports throughput, client-side
  p50/p99 latency and the response-cache hit rate into
  ``BENCH_serve.json``.
* **hot** — a hot-key zipf workload (a handful of repeating requests,
  the steady state of a dashboard or CI fleet hammering the same
  queries) after a warm-up pass, so nearly every request is a response
  cache hit. Reports ``hot_p50_ms``, ``hot_rps`` and
  ``respcache_hit_rate`` and asserts the hot-path floors: cached p50
  at or under :data:`HOT_P50_FLOOR_MS` and throughput at least
  :data:`HOT_RPS_FLOOR` (5x the uncached-engine baseline).
* **chaos** — the same mixed workload with a seeded :class:`FaultPlan`
  mounted inside the server (every TRIAD run attempt fails) and a low
  breaker threshold. Asserts the robustness contract end-to-end: zero
  unhandled server errors, every non-200 response is a structured
  envelope with a known code, the circuit breaker actually cycled
  (with the response cache enabled — faults are never served from it),
  and the drain completes cleanly.

Run directly (``python benchmarks/bench_serve.py [--smoke] [--output
PATH]``) or via pytest. ``--smoke`` shrinks the durations for CI. A
direct run writes ``BENCH_serve.json`` at the repo root unless
``--output`` names another path; the pytest entry writes under its
temporary directory, so it never replaces the committed record.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import random
import sys
import time
from pathlib import Path

from repro.resilience.faults import FaultPlan, FaultRule
from repro.serve import PredictionServer, ServeConfig

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_serve.json"

#: The serving working set: a hot head and a long tail.
KERNELS = (
    "TRIAD", "DAXPY", "GEMM", "DOT", "COPY", "ADD", "MUL", "SCAN",
    "JACOBI_2D", "FDTD_2D", "ATAX", "MVT", "ENERGY", "PRESSURE",
    "FIR", "SORT",
)

#: Zipf exponent for kernel popularity (1/rank^s).
ZIPF_S = 1.1

#: Request configurations cycled by the workload (each a distinct
#: response-cache key per kernel, so both the engine and the cache get
#: exercised).
THREAD_CHOICES = (1, 8, 32, 64)

#: The hot phase's working set: few enough distinct keys that the
#: response cache absorbs essentially all of the steady-state traffic.
HOT_KERNELS = KERNELS[:4]

#: Cached-hit latency floor: pre-serialized bytes must come back in
#: at most this client-observed p50.
HOT_P50_FLOOR_MS = 1.0

#: Hot throughput floor: at least 5x the measured uncached-engine
#: baseline of ~817 req/s (see docs/PERF.md).
HOT_RPS_FLOOR = 4085.0

ERROR_CODES = {
    "bad_request", "not_found", "shed", "engine_fault",
    "unavailable", "deadline_exceeded",
}


def zipf_weights(n: int, s: float = ZIPF_S) -> list[float]:
    return [1.0 / (rank ** s) for rank in range(1, n + 1)]


class Workload:
    """Seeded zipf request stream: (kernel, threads) pairs."""

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)
        self._weights = zipf_weights(len(KERNELS))

    def next_request(self) -> dict:
        (kernel,) = self._rng.choices(KERNELS, weights=self._weights)
        return {
            "kernel": kernel,
            "threads": self._rng.choice(THREAD_CHOICES),
            "deadline_ms": 10_000,
        }


class HotWorkload:
    """Hot-key stream: zipf over a small fixed set of repeat requests."""

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)
        self._weights = zipf_weights(len(HOT_KERNELS))

    @staticmethod
    def working_set() -> list[dict]:
        return [
            {"kernel": kernel, "threads": 8, "deadline_ms": 10_000}
            for kernel in HOT_KERNELS
        ]

    def next_request(self) -> dict:
        (kernel,) = self._rng.choices(
            HOT_KERNELS, weights=self._weights
        )
        return {"kernel": kernel, "threads": 8, "deadline_ms": 10_000}


async def _client(port, workload, stop_at, latencies, statuses, bodies):
    """One keep-alive connection issuing requests until the deadline."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        while time.monotonic() < stop_at:
            body = json.dumps(workload.next_request()).encode()
            head = (
                f"POST /predict HTTP/1.1\r\nHost: bench\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: keep-alive\r\n\r\n"
            ).encode()
            started = time.monotonic()
            writer.write(head + body)
            await writer.drain()
            status_line = await reader.readline()
            if not status_line:
                return
            status = int(status_line.split()[1])
            headers = {}
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode().partition(":")
                headers[name.strip().lower()] = value.strip()
            length = int(headers.get("content-length", 0))
            payload = await reader.readexactly(length) if length else b""
            latencies.append(time.monotonic() - started)
            statuses.append(status)
            if status != 200:
                bodies.append(json.loads(payload))
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def _warm_up(port, requests):
    """Issue each request once so the timed window measures the steady
    state, not the cold misses."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        for request in requests:
            body = json.dumps(request).encode()
            writer.write((
                f"POST /predict HTTP/1.1\r\nHost: bench\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: keep-alive\r\n\r\n"
            ).encode() + body)
            await writer.drain()
            status_line = await reader.readline()
            if not status_line:
                return
            headers = {}
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode().partition(":")
                headers[name.strip().lower()] = value.strip()
            length = int(headers.get("content-length", 0))
            if length:
                await reader.readexactly(length)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def run_phase(config, *, clients, duration_s, seed,
                    workload_cls=Workload, warmup=None):
    """Drive one server under load; return (stats, server summary)."""
    server = PredictionServer(config)
    await server.start()
    if warmup:
        await _warm_up(server.port, warmup)
    latencies: list[float] = []
    statuses: list[int] = []
    error_bodies: list[dict] = []
    stop_at = time.monotonic() + duration_s
    started = time.monotonic()
    await asyncio.gather(*[
        _client(server.port, workload_cls(seed + index), stop_at,
                latencies, statuses, error_bodies)
        for index in range(clients)
    ])
    elapsed = time.monotonic() - started
    await server.drain()
    summary = server.final_summary
    ok = sum(1 for s in statuses if s == 200)
    ordered = sorted(latencies) or [0.0]

    def pct(q):
        rank = max(1, -(-len(ordered) * q // 100))
        return ordered[int(rank) - 1]

    respcache_rate = summary.gauges.get("serve.respcache.hit_rate")
    stats = {
        "requests": len(statuses),
        "ok": ok,
        "errors": len(statuses) - ok,
        "rps": round(len(statuses) / elapsed, 2) if elapsed else 0.0,
        "p50_ms": round(pct(50) * 1e3, 3),
        "p99_ms": round(pct(99) * 1e3, 3),
        "respcache_hit_rate": respcache_rate,
        "unhandled_errors": summary.counters.get(
            "serve.unhandled_errors", 0
        ),
        "engine_faults": summary.counters.get("serve.engine_faults", 0),
        "shed": summary.counters.get("serve.shed", 0),
        "batches": summary.counters.get("serve.batches", 0),
        "breaker_transitions": summary.counters.get(
            "serve.breaker_transitions", 0
        ),
    }
    return stats, error_bodies


def chaos_plan() -> FaultPlan:
    """Every run attempt of the two hottest kernels fails — enough
    sustained pressure to cycle the breaker under load."""
    return FaultPlan(seed=1302, rules=(
        FaultRule(site="run", probability=1.0,
                  kernels=("TRIAD", "DAXPY")),
    ))


def perf_phase(*, clients, duration_s):
    config = ServeConfig(
        port=0, max_inflight=max(clients * 2, 8),
        drain_timeout_s=5.0,
    )
    stats, _ = asyncio.run(
        run_phase(config, clients=clients, duration_s=duration_s,
                  seed=2042)
    )
    return stats


def hot_phase(*, clients, duration_s):
    """Hot-key steady state: warmed response cache, default config.

    Client count is capped at 4: the benchmark clients share the
    server's event loop, so beyond a few keep-alive connections extra
    clients only add client-side queueing to the observed p50 without
    raising throughput.
    """
    clients = min(clients, 4)
    config = ServeConfig(
        port=0, max_inflight=max(clients * 2, 8),
        drain_timeout_s=5.0,
    )
    stats, _ = asyncio.run(
        run_phase(config, clients=clients, duration_s=duration_s,
                  seed=4242, workload_cls=HotWorkload,
                  warmup=HotWorkload.working_set())
    )
    return {
        "hot_p50_ms": stats["p50_ms"],
        "hot_p99_ms": stats["p99_ms"],
        "hot_rps": stats["rps"],
        "respcache_hit_rate": stats["respcache_hit_rate"],
        "requests": stats["requests"],
        "ok": stats["ok"],
        "errors": stats["errors"],
        "unhandled_errors": stats["unhandled_errors"],
    }


def check_hot_floors(stats):
    """The hot-path acceptance assertions (also run by CI smoke)."""
    failures = []
    if stats["errors"] or stats["unhandled_errors"]:
        failures.append(
            f"hot phase saw {stats['errors']} errors / "
            f"{stats['unhandled_errors']} unhandled"
        )
    if stats["hot_p50_ms"] > HOT_P50_FLOOR_MS:
        failures.append(
            f"hot p50 {stats['hot_p50_ms']}ms over the "
            f"{HOT_P50_FLOOR_MS}ms floor"
        )
    if stats["hot_rps"] < HOT_RPS_FLOOR:
        failures.append(
            f"hot rps {stats['hot_rps']} under the "
            f"{HOT_RPS_FLOOR} floor"
        )
    rate = stats["respcache_hit_rate"]
    if rate is None or rate < 0.9:
        failures.append(
            f"respcache hit rate {rate!r} under 0.9 on a hot-key "
            "workload"
        )
    return failures


def chaos_phase(*, clients, duration_s):
    config = ServeConfig(
        port=0, max_inflight=max(clients * 2, 8),
        retries=0, breaker_threshold=3, breaker_cooldown_s=0.05,
        drain_timeout_s=5.0, fault_plan=chaos_plan(),
    )
    stats, error_bodies = asyncio.run(
        run_phase(config, clients=clients, duration_s=duration_s,
                  seed=777)
    )
    return stats, error_bodies


def check_chaos_contract(stats, error_bodies):
    """The robustness acceptance assertions (also run by CI smoke)."""
    failures = []
    if stats["unhandled_errors"] != 0:
        failures.append(
            f"unhandled server errors: {stats['unhandled_errors']}"
        )
    for body in error_bodies:
        error = body.get("error") if isinstance(body, dict) else None
        if not isinstance(error, dict):
            failures.append(f"non-envelope error body: {body!r:.120}")
            break
        if error.get("code") not in ERROR_CODES:
            failures.append(f"unknown error code: {error.get('code')!r}")
            break
        if "Traceback" in str(error):
            failures.append("traceback leaked into an envelope")
            break
    if stats["engine_faults"] == 0:
        failures.append("chaos plan injected no engine faults")
    if stats["breaker_transitions"] == 0:
        failures.append("breaker never transitioned under chaos")
    if stats["ok"] == 0:
        failures.append("no request succeeded under chaos")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="short CI run: reduced duration, same assertions",
    )
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--duration", type=float, default=None,
                        metavar="S", help="seconds per phase")
    parser.add_argument(
        "--output", default=str(OUTPUT), metavar="PATH",
        help="where to write the JSON record (default: repo root)",
    )
    args = parser.parse_args(argv)
    duration = args.duration or (2.0 if args.smoke else 8.0)

    print(f"perf phase: {args.clients} clients, {duration:.0f}s ...",
          flush=True)
    perf = perf_phase(clients=args.clients, duration_s=duration)
    print(json.dumps(perf, indent=2))

    print(f"hot phase: {args.clients} clients, {duration:.0f}s ...",
          flush=True)
    hot = hot_phase(clients=args.clients, duration_s=duration)
    print(json.dumps(hot, indent=2))

    print(f"chaos phase: {args.clients} clients, {duration:.0f}s ...",
          flush=True)
    chaos_stats, error_bodies = chaos_phase(
        clients=args.clients, duration_s=duration
    )
    print(json.dumps(chaos_stats, indent=2))

    failures = check_chaos_contract(chaos_stats, error_bodies)
    failures.extend(check_hot_floors(hot))
    if perf["unhandled_errors"]:
        failures.append(
            f"unhandled errors in the perf phase: "
            f"{perf['unhandled_errors']}"
        )

    result = {
        "benchmark": "serve",
        "mode": "smoke" if args.smoke else "full",
        "clients": args.clients,
        "duration_s": duration,
        "perf": perf,
        "hot": hot,
        "chaos": chaos_stats,
        "contract_failures": failures,
    }
    Path(args.output).write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {args.output}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("serve robustness contract + hot-path floors: OK")
    return 0


# -- pytest entry points ---------------------------------------------------


def test_serve_bench_smoke(tmp_path):
    # The committed record comes from a direct run; this one stays in
    # pytest's temporary directory.
    output = tmp_path / "BENCH_serve.json"
    assert main(["--smoke", "--clients", "4", "--output", str(output)]) == 0
    assert json.loads(output.read_text())["clients"] == 4


if __name__ == "__main__":
    sys.exit(main())
