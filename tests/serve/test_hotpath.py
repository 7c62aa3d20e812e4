"""Hot-path contract: cached responses are byte-identical, faults are
never cached, and a deadline that expires while queued costs nothing."""

import asyncio
import json

import pytest

from repro.resilience.faults import FaultPlan, FaultRule
from repro.serve import PredictionServer, ServeConfig

from tests.serve.helpers import hold_engine


def with_server(config, scenario):
    async def main():
        server = PredictionServer(config)
        await server.start()
        try:
            return await scenario(server)
        finally:
            await server.drain()

    return asyncio.run(main())


def default_config(**overrides):
    base = dict(port=0, drain_timeout_s=2.0)
    base.update(overrides)
    return ServeConfig(**base)


async def raw_request(port, method, path, body=None):
    """The full response — status line, headers, body — as raw bytes.

    The test helpers parse JSON bodies; byte-identity needs the exact
    wire image, so this reads the close-delimited response whole.
    """
    payload = json.dumps(body).encode() if body is not None else b""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(
            (
                f"{method} {path} HTTP/1.1\r\n"
                f"Host: test\r\n"
                f"Content-Length: {len(payload)}\r\n"
                f"Connection: close\r\n\r\n"
            ).encode()
            + payload
        )
        await writer.drain()
        return await reader.read(-1)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class TestByteIdentity:
    """A cached hit must be indistinguishable on the wire from the
    uncached render it replaced — headers included."""

    def _assert_identical(self, scenario_body, path, checks=()):
        async def scenario(server):
            first = await raw_request(
                server.port, "POST", path, scenario_body
            )
            second = await raw_request(
                server.port, "POST", path, scenario_body
            )
            return first, second, server.respcache.stats()

        first, second, stats = with_server(default_config(), scenario)
        assert first.startswith(b"HTTP/1.1 200 OK\r\n")
        assert first == second
        assert stats.hits == 1 and stats.stores == 1
        for needle in checks:
            assert needle in first
        return first

    def test_predict_cached_bytes_match_uncached(self):
        body = self._assert_identical(
            {"kernel": "TRIAD", "threads": 8, "precision": "fp32"},
            "/predict",
            checks=(b'"kernel":"TRIAD"', b'"attempts":1'),
        )
        assert b"Content-Length: " in body

    def test_sweep_cached_bytes_match_uncached(self):
        self._assert_identical(
            {
                "kernels": ["TRIAD", "DAXPY"],
                "threads": [1, 8],
                "placements": ["block", "cluster"],
                "precisions": ["fp64"],
            },
            "/sweep",
            checks=(b'"points"', b'"failures":[]'),
        )

    def test_explain_cached_bytes_match_uncached(self):
        self._assert_identical(
            {"kernel": "GEMM"},
            "/explain",
            checks=(b'"explanation"',),
        )


class TestExplainBodiesIgnoreServerHistory:
    def test_uncached_explain_bytes_survive_predict_traffic(self):
        async def scenario(server):
            body = {"kernel": "TRIAD"}
            first = await raw_request(server.port, "POST", "/explain", body)
            for threads in (1, 2, 4):
                await raw_request(
                    server.port, "POST", "/predict",
                    {"kernel": "DAXPY", "threads": threads},
                )
            second = await raw_request(server.port, "POST", "/explain",
                                       body)
            return first, second, server.respcache.stats()

        first, second, stats = with_server(
            default_config(respcache_entries=0), scenario
        )
        assert first.startswith(b"HTTP/1.1 200 OK\r\n")
        assert stats.hits == 0 and stats.stores == 0
        assert first == second
        assert b"telemetry:" not in first


class TestPersistentTier:
    def test_restart_serves_identical_bytes_from_disk(self, tmp_path):
        """A fresh process (new server, same store) answers the first
        request from the persistent response tier, byte-identically."""
        config = dict(
            store_path=str(tmp_path / "store"), prewarm=False
        )
        request = {"kernel": "DOT", "threads": 16}

        async def warm(server):
            return await raw_request(
                server.port, "POST", "/predict", request
            )

        async def cold_start(server):
            raw = await raw_request(
                server.port, "POST", "/predict", request
            )
            return raw, server.respcache.stats()

        first = with_server(default_config(**config), warm)
        second, stats = with_server(
            default_config(**config), cold_start
        )
        assert first.startswith(b"HTTP/1.1 200 OK\r\n")
        assert second == first
        assert stats.disk_hits == 1 and stats.hits == 0


class TestFaultsAreNeverCached:
    def test_engine_faults_bypass_the_cache(self):
        plan = FaultPlan(seed=11, rules=(
            FaultRule(site="run", probability=1.0, kernels=("TRIAD",)),
        ))

        async def scenario(server):
            first = await raw_request(
                server.port, "POST", "/predict",
                {"kernel": "TRIAD", "deadline_ms": 10000},
            )
            second = await raw_request(
                server.port, "POST", "/predict",
                {"kernel": "TRIAD", "deadline_ms": 10000},
            )
            return first, second, len(server.respcache)

        first, second, entries = with_server(
            default_config(fault_plan=plan, retries=1), scenario
        )
        # Both requests hit the live engine and got live envelopes.
        assert first.startswith(b"HTTP/1.1 500 ")
        assert second.startswith(b"HTTP/1.1 500 ")
        assert b'"code":"engine_fault"' in first
        assert entries == 0

    def test_retried_runs_are_not_cached(self):
        """attempts > 1 embeds retry state an uncached request would
        not reproduce — those responses must stay out of the cache."""
        plan = FaultPlan(seed=7, rules=(
            FaultRule(site="run", probability=1.0,
                      kernels=("TRIAD",), max_failures=1),
        ))

        async def scenario(server):
            raw = await raw_request(
                server.port, "POST", "/predict",
                {"kernel": "TRIAD", "deadline_ms": 10000},
            )
            return raw, server.respcache.stats()

        raw, stats = with_server(
            default_config(fault_plan=plan, retries=2), scenario
        )
        assert raw.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b'"attempts":2' in raw
        assert stats.stores == 0

    def test_sweeps_with_failures_bypass_the_cache(self):
        plan = FaultPlan(seed=11, rules=(
            FaultRule(site="run", probability=1.0, kernels=("TRIAD",)),
        ))

        async def scenario(server):
            raw = await raw_request(
                server.port, "POST", "/sweep",
                {"kernels": ["TRIAD", "DAXPY"], "threads": [8],
                 "deadline_ms": 10000},
            )
            return raw, len(server.respcache)

        raw, entries = with_server(
            default_config(fault_plan=plan, retries=1), scenario
        )
        assert raw.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b'"error_type"' in raw  # the failure list is populated
        assert entries == 0


class TestQueuedDeadlineCostsNothing:
    #: Request body and engine function per endpoint.
    ENDPOINTS = {
        "/predict": ({"kernel": "TRIAD"}, "repro.serve.server.run_suite"),
        "/sweep": ({"kernels": ["TRIAD"], "threads": [1]},
                   "repro.suite.sweep.sweep"),
        "/explain": ({"kernel": "TRIAD"},
                     "repro.suite.explain.explain_kernel"),
    }

    @pytest.mark.parametrize("path", sorted(ENDPOINTS))
    def test_504_while_queued_never_runs(self, path, monkeypatch):
        """A deadline that expires while the request waits for the
        engine worker returns 504, and its engine function is cancelled
        before it ever runs: no admission slot stays held."""
        body, target = self.ENDPOINTS[path]
        calls = []
        monkeypatch.setattr(target, lambda *a, **k: calls.append(a))

        async def scenario(server):
            gate = hold_engine(server)
            try:
                raw = await raw_request(
                    server.port, "POST", path,
                    {**body, "deadline_ms": 30},
                )
            finally:
                gate.set()
            return raw, server.admission.idle(), server

        raw, idle, server = with_server(
            default_config(engine_workers=1), scenario
        )
        assert raw.startswith(b"HTTP/1.1 504 ")
        assert b'"code":"deadline_exceeded"' in raw
        assert idle  # the request released its slot on timeout
        # The drain joined the engine worker: the job never ran.
        assert calls == []
        counters = server.final_summary.counters
        assert counters["serve.deadline_exceeded"] == 1
        assert "serve.batches" not in counters
