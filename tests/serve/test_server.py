"""End-to-end tests of the prediction service over real sockets."""

import asyncio

import pytest

from repro.kernels.registry import get_kernel
from repro.machine import catalog
from repro.resilience.faults import FaultPlan, FaultRule
from repro.serve import PredictionServer, ServeConfig
from repro.suite.config import RunConfig
from repro.suite.runner import run_suite

from tests.serve.helpers import (
    hold_engine,
    http_request,
    request_on,
    wait_until,
)


def with_server(config, scenario):
    """Start a server on an ephemeral port, run ``scenario(server)``,
    always drain. Returns the scenario's result."""

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


class TestHealth:
    def test_healthz_and_readyz(self):
        async def scenario(server):
            health = await http_request(server.port, "GET", "/healthz")
            ready = await http_request(server.port, "GET", "/readyz")
            return health, ready

        health, ready = with_server(default_config(), scenario)
        assert health[0] == 200 and health[2] == {"status": "ok"}
        assert ready[0] == 200
        assert ready[2]["breaker"] == "closed"

    def test_unknown_route_404(self):
        async def scenario(server):
            return await http_request(server.port, "GET", "/nope")

        status, _, body = with_server(default_config(), scenario)
        assert status == 404
        assert body["error"]["code"] == "not_found"

    def test_wrong_method_400(self):
        async def scenario(server):
            return await http_request(server.port, "GET", "/predict")

        status, _, body = with_server(default_config(), scenario)
        assert status == 400
        assert body["error"]["code"] == "bad_request"


class TestPredict:
    def test_matches_direct_engine_output(self):
        async def scenario(server):
            return await http_request(
                server.port, "POST", "/predict",
                {"kernel": "GEMM", "threads": 16,
                 "placement": "cluster", "precision": "fp32"},
            )

        status, _, body = with_server(default_config(), scenario)
        assert status == 200
        direct = run_suite(
            catalog.sg2042(),
            RunConfig(threads=16, placement="cluster",
                      precision="fp32", runs=1, noise_sigma=0.0),
            kernels=[get_kernel("GEMM")],
        ).runs["GEMM"]
        assert body["seconds"] == direct.seconds
        assert body["serving_level"] == direct.prediction.serving_level
        assert body["bound"] == direct.prediction.bound
        assert body["cpu"] == catalog.sg2042().name

    def test_unknown_kernel_404(self):
        async def scenario(server):
            return await http_request(
                server.port, "POST", "/predict", {"kernel": "NOPE"}
            )

        status, _, body = with_server(default_config(), scenario)
        assert status == 404
        assert "NOPE" in body["error"]["message"]

    def test_invalid_config_400(self):
        async def scenario(server):
            return await http_request(
                server.port, "POST", "/predict",
                {"kernel": "TRIAD", "threads": -2},
            )

        status, _, body = with_server(default_config(), scenario)
        assert status == 400
        assert body["error"]["retryable"] is False

    def test_malformed_json_400(self):
        async def scenario(server):
            return await http_request(
                server.port, "POST", "/predict", raw_body=b"{nope",
            )

        status, _, body = with_server(default_config(), scenario)
        assert status == 400
        assert body["error"]["code"] == "bad_request"

    def test_microscopic_deadline_504(self):
        async def scenario(server):
            gate = hold_engine(server)
            try:
                return await http_request(
                    server.port, "POST", "/predict",
                    {"kernel": "GEMM", "deadline_ms": 0.001},
                )
            finally:
                gate.set()

        status, _, body = with_server(
            default_config(engine_workers=1), scenario
        )
        assert status == 504
        assert body["error"]["code"] == "deadline_exceeded"
        assert body["error"]["retryable"] is True


class TestDeadlineValidation:
    """Only a finite JSON number above 0 is a deadline. Anything else is
    the client's 400, raised before the response cache, admission and
    the engine on every endpoint that takes one."""

    BODIES = {
        "/predict": '{{"kernel": "TRIAD", "deadline_ms": {}}}',
        "/sweep": '{{"kernels": ["TRIAD"], "threads": [1], '
                  '"deadline_ms": {}}}',
        "/explain": '{{"kernel": "TRIAD", "deadline_ms": {}}}',
    }

    # Raw JSON text: Python's json parses NaN and Infinity as floats.
    @pytest.mark.parametrize("raw", [
        "NaN", "Infinity", "-Infinity", "true", '"250"', "0", "-5",
        "null",
    ])
    def test_bad_deadline_400(self, raw):
        async def scenario(server):
            replies = [
                await http_request(
                    server.port, "POST", path,
                    raw_body=body.format(raw).encode(),
                )
                for path, body in self.BODIES.items()
            ]
            _, _, metrics = await http_request(
                server.port, "GET", "/metrics"
            )
            return (replies, metrics.decode(), server.respcache.stats(),
                    server.admission.admitted_count)

        replies, metrics, respcache, admitted = with_server(
            default_config(), scenario
        )
        for status, _, reply in replies:
            assert status == 400
            assert reply["error"]["code"] == "bad_request"
            assert reply["error"]["retryable"] is False
            assert "deadline_ms" in reply["error"]["message"]
        lines = dict(
            line.rsplit(" ", 1)
            for line in metrics.splitlines() if " " in line
        )
        assert int(lines.get("counter serve.deadline_exceeded", 0)) == 0
        assert int(lines.get("counter serve.engine_faults", 0)) == 0
        assert "counter serve.batches" not in lines
        assert respcache.hits + respcache.misses == 0
        assert admitted == 0

    # ``1e12`` is clamped to the server's max_deadline_ms.
    @pytest.mark.parametrize("raw", ["5000", "5000.5", "1e12"])
    def test_finite_positive_deadline_200(self, raw):
        async def scenario(server):
            return [
                await http_request(
                    server.port, "POST", path,
                    raw_body=body.format(raw).encode(),
                )
                for path, body in self.BODIES.items()
            ]

        replies = with_server(default_config(), scenario)
        assert [status for status, _, _ in replies] == [200, 200, 200]

    def test_bad_deadline_400_even_when_the_response_is_cached(self):
        async def scenario(server):
            good = await http_request(
                server.port, "POST", "/predict",
                raw_body=self.BODIES["/predict"].format("5000").encode(),
            )
            bad = await http_request(
                server.port, "POST", "/predict",
                raw_body=self.BODIES["/predict"].format("NaN").encode(),
            )
            return good, bad, server.respcache.stats()

        good, bad, respcache = with_server(default_config(), scenario)
        assert good[0] == 200
        assert bad[0] == 400
        assert bad[2]["error"]["code"] == "bad_request"
        # Rejected before the lookup: the primed entry was never hit.
        assert (respcache.hits, respcache.misses) == (0, 1)


class TestThreadValidation:
    """A bad thread count is the client's error: 400, never an engine
    fault that counts towards the circuit breaker."""

    @pytest.mark.parametrize("path, body", [
        ("/predict", {"kernel": "TRIAD", "threads": 9999}),
        ("/predict", {"kernel": "TRIAD", "threads": 8.9}),
        ("/predict", {"kernel": "TRIAD", "threads": True}),
        ("/sweep", {"kernels": ["TRIAD"], "threads": []}),
        ("/sweep", {"kernels": ["TRIAD"], "threads": "16"}),
        ("/sweep", {"kernels": ["TRIAD"], "threads": [8.9]}),
        ("/sweep", {"kernels": ["TRIAD"], "threads": [True]}),
        ("/sweep", {"kernels": ["TRIAD"], "threads": [9999]}),
        # Either side of sg2042's 1..64 cores.
        ("/predict", {"kernel": "TRIAD", "threads": 0}),
        ("/predict", {"kernel": "TRIAD", "threads": 65}),
        ("/sweep", {"kernels": ["TRIAD"], "threads": [0]}),
        ("/sweep", {"kernels": ["TRIAD"], "threads": [1, 65]}),
    ])
    def test_bad_threads_400(self, path, body):
        async def scenario(server):
            return await http_request(server.port, "POST", path, body)

        status, _, reply = with_server(default_config(), scenario)
        assert status == 400
        assert reply["error"]["code"] == "bad_request"
        assert reply["error"]["retryable"] is False

    @pytest.mark.parametrize("path, body", [
        ("/predict", {"kernel": "TRIAD", "threads": 1}),
        ("/predict", {"kernel": "TRIAD", "threads": 64}),
        ("/sweep", {"kernels": ["TRIAD"], "threads": [1, 64]}),
    ])
    def test_edge_threads_accepted(self, path, body):
        async def scenario(server):
            return await http_request(server.port, "POST", path, body)

        status, _, _ = with_server(default_config(), scenario)
        assert status == 200

    def test_bad_threads_leave_the_breaker_closed(self):
        async def scenario(server):
            bad = [
                await http_request(
                    server.port, "POST", "/predict",
                    {"kernel": "TRIAD", "threads": 9999},
                )
                for _ in range(6)
            ]
            good = await http_request(
                server.port, "POST", "/predict",
                {"kernel": "TRIAD", "threads": 8},
            )
            ready = await http_request(server.port, "GET", "/readyz")
            metrics = await http_request(server.port, "GET", "/metrics")
            return bad, good, ready, metrics

        bad, good, ready, metrics = with_server(default_config(), scenario)
        assert [status for status, _, _ in bad] == [400] * 6
        assert good[0] == 200
        assert ready[0] == 200 and ready[2]["breaker"] == "closed"
        lines = dict(
            line.rsplit(" ", 1)
            for line in metrics[2].decode().splitlines() if " " in line
        )
        assert int(lines.get("counter serve.engine_faults", 0)) == 0


class TestConfigFieldTypes:
    """Flags and the compiler id reach ``RunConfig`` as sent: a value of
    the wrong JSON type is the client's 400, never read by truthiness
    and never a 500."""

    DAXPY = {"cpu": "sg2042", "kernel": "DAXPY", "threads": 1,
             "precision": "fp32"}

    @pytest.mark.parametrize("extra", [
        {"vectorize": "false"},
        {"vectorize": 0},
        {"rollback": "false"},
        {"compiler": 5},
    ])
    def test_wrong_types_400(self, extra):
        async def scenario(server):
            return await http_request(
                server.port, "POST", "/predict", {**self.DAXPY, **extra}
            )

        status, _, reply = with_server(default_config(), scenario)
        assert status == 400
        assert reply["error"]["code"] == "bad_request"
        assert reply["error"]["retryable"] is False

    def test_vectorize_false_runs_scalar(self):
        async def scenario(server):
            return await http_request(
                server.port, "POST", "/predict",
                {**self.DAXPY, "vectorize": False},
            )

        status, _, body = with_server(default_config(), scenario)
        assert status == 200
        assert body["seconds"] == 1.25
        assert body["vector_executed"] is False


class TestSweepAndExplain:
    def test_sweep_long_format(self):
        async def scenario(server):
            return await http_request(
                server.port, "POST", "/sweep",
                {"kernels": ["TRIAD", "DAXPY"], "threads": [1, 8],
                 "placements": ["cluster"], "precisions": ["fp32"],
                 "deadline_ms": 30000},
            )

        status, _, body = with_server(default_config(), scenario)
        assert status == 200
        assert len(body["points"]) == 4
        assert body["failures"] == []
        kernels = {p["kernel"] for p in body["points"]}
        assert kernels == {"TRIAD", "DAXPY"}

    def test_oversized_sweep_rejected(self):
        async def scenario(server):
            return await http_request(
                server.port, "POST", "/sweep",
                {"kernels": ["TRIAD"],
                 "threads": list(range(1, 600)),
                 "placements": ["cluster"], "precisions": ["fp32"]},
            )

        status, _, body = with_server(default_config(), scenario)
        assert status == 400
        assert "caps" in body["error"]["message"]

    def test_explain(self):
        async def scenario(server):
            return await http_request(
                server.port, "POST", "/explain",
                {"kernel": "TRIAD", "deadline_ms": 30000},
            )

        status, _, body = with_server(default_config(), scenario)
        assert status == 200
        assert body["kernel"] == "TRIAD"
        assert "TRIAD" in body["explanation"]

    def test_explain_on_the_sg2044(self):
        async def scenario(server):
            reply = await http_request(
                server.port, "POST", "/explain",
                {"kernel": "TRIAD", "cpu": "sophon_sg2044"},
            )
            return reply, server.breaker.state.value

        (status, _, body), breaker = with_server(
            default_config(), scenario
        )
        assert status == 200
        assert "predicted times on Sophon SG2044" in body["explanation"]
        assert breaker == "closed"


class TestBackpressure:
    def test_overload_sheds_with_retry_after(self):
        """With a 1-request watermark, a request waiting for the held
        engine keeps the only admission slot: every other request sheds
        with a structured 429, and the admitted one still gets its 200
        once the engine frees."""

        async def scenario(server):
            gate = hold_engine(server)
            try:
                admitted = asyncio.create_task(http_request(
                    server.port, "POST", "/predict",
                    {"kernel": "TRIAD", "deadline_ms": 5000},
                ))
                await wait_until(lambda: server.admission.depth == 1)
                shed = await asyncio.gather(*[
                    http_request(server.port, "POST", "/predict",
                                 {"kernel": name, "deadline_ms": 5000})
                    for name in ("DAXPY", "GEMM", "DOT", "COPY", "ADD")
                ])
            finally:
                gate.set()
            return await admitted, shed

        admitted, shed = with_server(
            default_config(max_inflight=1, engine_workers=1), scenario
        )
        assert admitted[0] == 200
        assert [status for status, _, _ in shed] == [429] * 5
        for _, headers, body in shed:
            assert body["error"]["code"] == "shed"
            assert body["error"]["retryable"] is True
            assert int(headers["retry-after"]) >= 1

    def test_keep_alive_connection_reuse(self):
        async def scenario(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            try:
                first = await request_on(
                    reader, writer, "GET", "/healthz"
                )
                second = await request_on(
                    reader, writer, "POST", "/predict",
                    {"kernel": "TRIAD"},
                )
            finally:
                writer.close()
                await writer.wait_closed()
            return first, second

        first, second = with_server(default_config(), scenario)
        assert first[0] == 200
        assert second[0] == 200
        assert second[2]["kernel"] == "TRIAD"


class TestChaosAndBreaker:
    def plan(self):
        """Every TRIAD run attempt fails, other kernels are clean."""
        return FaultPlan(seed=11, rules=(
            FaultRule(site="run", probability=1.0,
                      kernels=("TRIAD",)),
        ))

    def test_engine_fault_envelope_under_chaos(self):
        async def scenario(server):
            fault = await http_request(
                server.port, "POST", "/predict",
                {"kernel": "TRIAD", "deadline_ms": 10000},
            )
            clean = await http_request(
                server.port, "POST", "/predict",
                {"kernel": "DAXPY", "deadline_ms": 10000},
            )
            return fault, clean

        fault, clean = with_server(
            default_config(fault_plan=self.plan(), retries=1),
            scenario,
        )
        assert fault[0] == 500
        assert fault[2]["error"]["code"] == "engine_fault"
        assert fault[2]["error"]["details"]["fault_site"] == "run"
        assert "Traceback" not in str(fault[2])
        assert clean[0] == 200

    def test_breaker_opens_half_opens_and_closes(self):
        """The satellite scenario: consecutive injected faults open the
        breaker (503 + Retry-After), the cooldown half-opens it, and a
        clean probe closes it again."""

        async def scenario(server):
            # 2 faulting requests (sequential: distinct batches) trip
            # the threshold-2 breaker.
            for _ in range(2):
                status, _, body = await http_request(
                    server.port, "POST", "/predict",
                    {"kernel": "TRIAD", "deadline_ms": 10000},
                )
                assert status == 500, body
            # OPEN: requests are refused before touching the engine,
            # and readiness reports unavailable.
            rejected = await http_request(
                server.port, "POST", "/predict",
                {"kernel": "DAXPY", "deadline_ms": 10000},
            )
            not_ready = await http_request(
                server.port, "GET", "/readyz"
            )
            # Wait out the cooldown; the next clean request is the
            # half-open probe and closes the breaker.
            await asyncio.sleep(0.25)
            probe = await http_request(
                server.port, "POST", "/predict",
                {"kernel": "DAXPY", "deadline_ms": 10000},
            )
            ready = await http_request(server.port, "GET", "/readyz")
            return rejected, not_ready, probe, ready, server

        rejected, not_ready, probe, ready, server = with_server(
            default_config(
                fault_plan=self.plan(), retries=0,
                breaker_threshold=2, breaker_cooldown_s=0.2,
            ),
            scenario,
        )
        assert rejected[0] == 503
        assert rejected[1]["retry-after"] >= "1"
        assert rejected[2]["error"]["code"] == "unavailable"
        assert not_ready[0] == 503
        assert probe[0] == 200
        assert ready[0] == 200
        transitions = server.breaker.transitions
        assert ("closed", "open") in transitions
        assert ("open", "half_open") in transitions
        assert ("half_open", "closed") in transitions

    def test_no_unhandled_errors_under_chaos(self):
        async def scenario(server):
            await asyncio.gather(*[
                http_request(
                    server.port, "POST", "/predict",
                    {"kernel": kernel, "deadline_ms": 10000},
                )
                for kernel in ("TRIAD", "DAXPY", "GEMM") * 3
            ])
            return server

        server = with_server(
            default_config(fault_plan=self.plan(), retries=0,
                           breaker_threshold=50),
            scenario,
        )
        counters = server.final_summary.counters
        assert counters.get("serve.unhandled_errors", 0) == 0
        assert counters.get("serve.engine_faults", 0) >= 1


class TestMetricsAndDrain:
    def test_metrics_exposes_the_ops_surface(self):
        async def scenario(server):
            for _ in range(3):
                await http_request(
                    server.port, "POST", "/predict",
                    {"kernel": "TRIAD", "threads": 8},
                )
            status, _, raw = await http_request(
                server.port, "GET", "/metrics"
            )
            return status, raw.decode()

        status, text = with_server(default_config(), scenario)
        assert status == 200
        for metric in (
            "counter serve.requests",
            "counter serve.batches",
            "gauge serve.queue_depth",
            "gauge serve.breaker_state",
            "gauge serve.latency_p50_ms",
            "gauge serve.latency_p99_ms",
        ):
            assert metric in text, f"{metric} missing from:\n{text}"

    def test_repeat_traffic_without_response_cache_recomputes(self):
        """With the response cache disabled, every repeat reaches the
        engine and is computed again, to the same body."""

        async def scenario(server):
            replies = [
                await http_request(
                    server.port, "POST", "/predict",
                    {"kernel": "TRIAD", "threads": 8},
                )
                for _ in range(4)
            ]
            _, _, raw = await http_request(
                server.port, "GET", "/metrics"
            )
            return replies, raw.decode()

        replies, text = with_server(
            default_config(respcache_entries=0), scenario
        )
        assert all(status == 200 for status, _, _ in replies)
        assert all(body == replies[0][2] for _, _, body in replies)
        lines = dict(
            line.rsplit(" ", 1)
            for line in text.splitlines() if " " in line
        )
        assert int(lines["counter serve.batches"]) == 4
        assert "gauge serve.cache_hit_rate" not in lines

    def test_repeat_traffic_hits_the_response_cache(self):
        """By default, repeats are served from the response cache: one
        miss, three pre-serialized hits."""

        async def scenario(server):
            for _ in range(4):
                await http_request(
                    server.port, "POST", "/predict",
                    {"kernel": "TRIAD", "threads": 8},
                )
            _, _, raw = await http_request(
                server.port, "GET", "/metrics"
            )
            return raw.decode(), server.respcache.stats()

        text, stats = with_server(default_config(), scenario)
        assert stats.hits == 3
        assert stats.misses == 1
        (rate_line,) = [
            line for line in text.splitlines()
            if "serve.respcache.hit_rate" in line
        ]
        assert float(rate_line.rsplit(" ", 1)[1]) == pytest.approx(0.75)

    def test_drain_rejects_new_work_and_captures_summary(self):
        async def main():
            server = PredictionServer(default_config())
            await server.start()
            port = server.port
            ok = await http_request(port, "POST", "/predict",
                                    {"kernel": "TRIAD"})
            await server.drain()
            # The socket is closed after drain: new connections fail.
            with pytest.raises(OSError):
                await http_request(port, "GET", "/healthz")
            return ok, server

        ok, server = asyncio.run(main())
        assert ok[0] == 200
        summary = server.final_summary
        assert summary is not None
        assert summary.counters.get("serve.requests") == 1
        assert summary.counters.get("serve.unhandled_errors", 0) == 0
        assert summary.gauges.get("serve.draining") == 1

    def test_drain_is_idempotent(self):
        async def main():
            server = PredictionServer(default_config())
            await server.start()
            await server.drain()
            await server.drain()

        asyncio.run(main())

    def test_server_restores_previous_telemetry(self):
        from repro import telemetry

        before = telemetry.recorder(), telemetry.metrics()

        async def main():
            server = PredictionServer(default_config())
            await server.start()
            assert telemetry.recorder() is not before[0]
            await server.drain()

        asyncio.run(main())
        assert telemetry.recorder() is before[0]
        assert telemetry.metrics() is before[1]
