"""The one engine-call path of ``/predict``, ``/sweep`` and ``/explain``:
the compile cache it shares, breaker outcomes, faults, and concurrent
misses."""

import asyncio

import pytest

from repro.resilience.faults import FaultPlan, FaultRule
from repro.serve import BreakerState, PredictionServer, ServeConfig

from tests.serve.helpers import http_request

#: A successful request body per engine endpoint.
ENDPOINTS = {
    "/predict": {"kernel": "TRIAD", "threads": 8},
    "/sweep": {"kernels": ["TRIAD", "DAXPY"], "threads": [8]},
    "/explain": {"kernel": "TRIAD"},
}

#: The engine function each endpoint runs on the executor.
ENGINE_FUNCTIONS = {
    "/predict": "repro.serve.server.run_suite",
    "/sweep": "repro.suite.sweep.sweep",
    "/explain": "repro.suite.explain.explain_kernel",
}


def with_server(config, scenario):
    """Run ``scenario(server)`` against a started server, always drain;
    returns the scenario's result and the drained server."""

    async def main():
        server = PredictionServer(config)
        await server.start()
        try:
            return await scenario(server), server
        finally:
            await server.drain()

    return asyncio.run(main())


def default_config(**overrides):
    base = dict(port=0, drain_timeout_s=2.0)
    base.update(overrides)
    return ServeConfig(**base)


def triad_faults():
    """Every TRIAD run attempt fails; other kernels are clean."""
    return FaultPlan(seed=11, rules=(
        FaultRule(site="run", probability=1.0, kernels=("TRIAD",)),
    ))


class TestOneCompileCache:
    def test_machines_sharing_an_isa_compile_once(self, compile_counts):
        """The SG2042 and its two-socket build share a core ISA and a
        compiler, so ``/predict`` of TRIAD on both compiles it once:
        the server keeps no compile cache per machine."""

        async def scenario(server):
            return [
                (await http_request(
                    server.port, "POST", "/predict",
                    {"kernel": "TRIAD", "cpu": name},
                ))[0]
                for name in ("sg2042", "sg2042_2s")
            ]

        statuses, _ = with_server(default_config(), scenario)
        assert statuses == [200, 200]
        assert compile_counts["analyze"] == 1

    def test_server_takes_no_store(self, tmp_path):
        with pytest.raises(TypeError):
            ServeConfig(store_path=str(tmp_path / "store"))
        assert not (tmp_path / "store").exists()


class TestServedCallsFold:
    def test_session_records_no_kernel_run(self, per_kernel_loop):
        """The server's own telemetry session changes what is recorded
        of an engine call, not how it computes: ``/predict`` and
        ``/sweep`` fold, with one ``suite.run`` span each and no
        ``kernel.run``, and answer with the per-kernel loop's bodies."""

        async def scenario(server):
            return [
                await http_request(
                    server.port, "POST", path, ENDPOINTS[path],
                )
                for path in ("/predict", "/sweep")
            ]

        folded, server = with_server(default_config(), scenario)
        phases = server.final_summary.phase_counts
        assert phases["suite.run"] == 2
        assert "kernel.run" not in phases
        with per_kernel_loop():
            looped, looped_server = with_server(default_config(), scenario)
        # One TRIAD run, then the sweep's TRIAD and DAXPY; the sweep's
        # fold gave up before its span, so each call records one.
        looped_phases = looped_server.final_summary.phase_counts
        assert looped_phases["kernel.run"] == 3
        assert looped_phases["suite.run"] == 2
        assert [
            (status, headers["etag"], body)
            for status, headers, body in folded
        ] == [
            (status, headers["etag"], body)
            for status, headers, body in looped
        ]
        assert [status for status, _, _ in folded] == [200, 200]


class TestBreakerHearsEveryEngineCall:
    @pytest.mark.parametrize("path", sorted(ENDPOINTS))
    def test_success_is_reported(self, path):
        async def scenario(server):
            server.breaker.record_failure()  # one short of the threshold
            status, _, _ = await http_request(
                server.port, "POST", path, ENDPOINTS[path]
            )
            # Opens the breaker unless the success reset the streak.
            server.breaker.record_failure()
            return status, server.breaker.state

        (status, state), _ = with_server(
            default_config(breaker_threshold=2), scenario
        )
        assert status == 200
        assert state is BreakerState.CLOSED

    @pytest.mark.parametrize("path", sorted(ENDPOINTS))
    def test_failure_is_reported(self, path, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("engine blew up")

        monkeypatch.setattr(ENGINE_FUNCTIONS[path], broken)

        async def scenario(server):
            reply = await http_request(
                server.port, "POST", path, ENDPOINTS[path]
            )
            return reply, server.breaker.state

        ((status, _, body), state), server = with_server(
            default_config(breaker_threshold=1), scenario
        )
        assert status == 500
        assert body["error"]["code"] == "engine_fault"
        assert body["error"]["details"]["error_type"] == "RuntimeError"
        assert state is BreakerState.OPEN
        assert server.final_summary.counters["serve.engine_faults"] == 1

    def test_explain_closes_a_half_open_breaker(self):
        """A half-open probe spent on ``/explain`` reports its outcome,
        so the next ``/predict`` is not refused for another cooldown."""

        async def scenario(server):
            fault = await http_request(
                server.port, "POST", "/predict",
                {"kernel": "TRIAD", "deadline_ms": 10000},
            )
            opened = server.breaker.state
            await asyncio.sleep(0.35)  # the cooldown
            explain = await http_request(
                server.port, "POST", "/explain",
                {"kernel": "DAXPY", "deadline_ms": 10000},
            )
            predict = await http_request(
                server.port, "POST", "/predict",
                {"kernel": "DAXPY", "deadline_ms": 10000},
            )
            return fault, opened, explain, predict, server.breaker.state

        (fault, opened, explain, predict, state), _ = with_server(
            default_config(
                fault_plan=triad_faults(), breaker_threshold=1,
                breaker_cooldown_s=0.3, respcache_entries=0,
            ),
            scenario,
        )
        assert fault[0] == 500
        assert opened is BreakerState.OPEN
        assert explain[0] == 200
        assert predict[0] == 200
        assert state is BreakerState.CLOSED


class TestEngineFaults:
    @pytest.mark.parametrize("path", ["/predict", "/sweep"])
    def test_whole_call_failure(self, path, monkeypatch):
        def exploding(*args, **kwargs):
            raise RuntimeError("engine unavailable")

        monkeypatch.setattr(ENGINE_FUNCTIONS[path], exploding)

        async def scenario(server):
            return await http_request(
                server.port, "POST", path, ENDPOINTS[path]
            )

        (status, _, body), server = with_server(default_config(), scenario)
        assert status == 500
        assert body["error"]["code"] == "engine_fault"
        assert body["error"]["details"]["error_type"] == "RuntimeError"
        assert "Traceback" not in str(body)
        counters = server.final_summary.counters
        assert counters.get("serve.unhandled_errors", 0) == 0

    def test_exhausted_kernel_reports_its_attempts(self):
        """A kernel whose retries run out comes back as an engine fault
        carrying its failure record, not a traceback."""

        async def scenario(server):
            return await http_request(
                server.port, "POST", "/predict",
                {"kernel": "TRIAD", "deadline_ms": 10000},
            )

        (status, _, body), _ = with_server(
            default_config(fault_plan=triad_faults(), retries=2),
            scenario,
        )
        assert status == 500
        error = body["error"]
        assert error["code"] == "engine_fault"
        assert error["details"] == {
            "error_type": "TransientError",
            "attempts": 3,
            "fault_site": "run",
        }
        assert "TRIAD" in error["message"]


class TestConcurrentMisses:
    def test_identical_misses_are_each_computed(self):
        """With the response cache off, five concurrent identical misses
        make five engine calls and get five identical bodies."""

        async def scenario(server):
            return await asyncio.gather(*[
                http_request(
                    server.port, "POST", "/predict",
                    {"kernel": "TRIAD", "threads": 8,
                     "deadline_ms": 10000},
                )
                for _ in range(5)
            ])

        replies, server = with_server(
            default_config(respcache_entries=0), scenario
        )
        assert [status for status, _, _ in replies] == [200] * 5
        assert all(body == replies[0][2] for _, _, body in replies)
        assert server.final_summary.counters["serve.batches"] == 5
        assert server.admission.idle()
