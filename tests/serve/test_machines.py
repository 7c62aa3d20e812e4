"""The machine registry endpoints and HTTP conditional requests."""

import asyncio

from repro.machine.serialize import cpu_to_dict
from repro.registry import default_registry
from repro.serve import PredictionServer, ServeConfig
from repro.serve.respcache import etag_matches, response_etag
from repro.suite.memo import machine_digest

from tests.serve.helpers import http_request


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


def machine_envelope(name="custom_sg2042", clock=2.2e9):
    doc = cpu_to_dict(default_registry().machine("sg2042"))
    doc["name"] = "Custom SG2042"
    doc["core"] = dict(doc["core"], clock_hz=clock)
    return {"schema": "repro.machine/v1", "name": name, "doc": doc}


class TestMachinesList:
    def test_lists_registry_machines_with_digests(self):
        async def scenario(server):
            return await http_request(server.port, "GET", "/machines")

        status, headers, body = with_server(default_config(), scenario)
        assert status == 200
        names = {m["name"] for m in body["machines"]}
        assert {"sg2042", "sophon_sg2044", "sg2042_2s"} <= names
        by_name = {m["name"]: m for m in body["machines"]}
        expected = str(machine_digest(default_registry().machine("sg2042")))
        assert by_name["sg2042"]["digest"] == expected
        assert "etag" in headers

    def test_registry_machines_usable_in_predict(self):
        async def scenario(server):
            return await http_request(
                server.port, "POST", "/predict",
                {"kernel": "TRIAD", "cpu": "sg2042_2s", "threads": 128,
                 "precision": "fp32"},
            )

        status, _, body = with_server(default_config(), scenario)
        assert status == 200
        assert body["cpu"] == "Sophon SG2042 2S"

    def test_wrong_method_400(self):
        async def scenario(server):
            return await http_request(server.port, "PUT", "/machines")

        status, _, body = with_server(default_config(), scenario)
        assert status == 400


class TestRegistration:
    def test_register_validates_and_serves(self):
        async def scenario(server):
            created = await http_request(
                server.port, "POST", "/machines", machine_envelope()
            )
            predict = await http_request(
                server.port, "POST", "/predict",
                {"kernel": "TRIAD", "cpu": "custom_sg2042",
                 "threads": 8},
            )
            listed = await http_request(server.port, "GET", "/machines")
            return created, predict, listed

        created, predict, listed = with_server(default_config(), scenario)
        assert created[0] == 201
        assert created[2]["status"] == "registered"
        assert predict[0] == 200
        assert predict[2]["cpu"] == "Custom SG2042"
        assert "custom_sg2042" in {
            m["name"] for m in listed[2]["machines"]
        }

    def test_idempotent_reregistration(self):
        async def scenario(server):
            first = await http_request(
                server.port, "POST", "/machines", machine_envelope()
            )
            second = await http_request(
                server.port, "POST", "/machines", machine_envelope()
            )
            return first, second

        first, second = with_server(default_config(), scenario)
        assert first[0] == 201
        assert second[0] == 200
        assert second[2]["status"] == "unchanged"
        assert second[2]["digest"] == first[2]["digest"]

    def test_invalid_document_is_structured_400(self):
        envelope = machine_envelope()
        del envelope["doc"]["memory"]

        async def scenario(server):
            return await http_request(
                server.port, "POST", "/machines", envelope
            )

        status, _, body = with_server(default_config(), scenario)
        assert status == 400
        assert "missing field memory" in body["error"]["message"]

    def test_reregistration_invalidates_response_cache(self):
        async def scenario(server):
            await http_request(
                server.port, "POST", "/machines", machine_envelope()
            )
            req = {"kernel": "GEMM", "cpu": "custom_sg2042",
                   "threads": 4, "precision": "fp32"}
            cold = await http_request(server.port, "POST", "/predict",
                                      req)
            warm = await http_request(server.port, "POST", "/predict",
                                      req)
            # New document under the same name: different digest.
            await http_request(
                server.port, "POST", "/machines",
                machine_envelope(clock=2.4e9),
            )
            fresh = await http_request(server.port, "POST", "/predict",
                                       req)
            stats = server.respcache.stats()
            return cold, warm, fresh, stats

        cold, warm, fresh, stats = with_server(default_config(), scenario)
        assert cold[0] == warm[0] == fresh[0] == 200
        assert cold[2]["seconds"] == warm[2]["seconds"]
        # The faster clock must show through immediately.
        assert fresh[2]["seconds"] < cold[2]["seconds"]

    def test_registration_queues_no_engine_work(self, compile_counts):
        """Registering a machine compiles nothing: its kernels compile
        on its first request."""
        envelope = machine_envelope()

        async def scenario(server):
            return await http_request(
                server.port, "POST", "/machines", envelope
            )

        created = with_server(default_config(), scenario)
        assert created[0] == 201
        # The drain waited for every queued engine job; none compiled.
        assert compile_counts["analyze"] == 0

        async def first_request(server):
            await http_request(
                server.port, "POST", "/machines", envelope
            )
            return await http_request(
                server.port, "POST", "/predict",
                {"kernel": "TRIAD", "cpu": "custom_sg2042", "threads": 8},
            )

        predict = with_server(default_config(), first_request)
        assert predict[0] == 200
        assert compile_counts["analyze"] == 1

    def test_invalidate_drops_memory_entries(self):
        async def scenario(server):
            req = {"kernel": "TRIAD", "threads": 4}
            await http_request(server.port, "POST", "/predict", req)
            digest = str(machine_digest(server._cpus["sg2042"]))
            dropped = server.respcache.invalidate(digest)
            return dropped, server.respcache.stats()

        dropped, stats = with_server(default_config(), scenario)
        assert dropped == 1
        assert stats.entries == 0


class TestConditionalRequests:
    def test_etag_on_fresh_and_cached_responses(self):
        async def scenario(server):
            req = {"kernel": "TRIAD", "threads": 4}
            fresh = await http_request(server.port, "POST", "/predict",
                                       req)
            cached = await http_request(server.port, "POST", "/predict",
                                        req)
            return fresh, cached

        fresh, cached = with_server(default_config(), scenario)
        assert fresh[1]["etag"] == cached[1]["etag"]
        assert fresh[1]["etag"].startswith('"')

    def test_if_none_match_returns_304(self):
        async def scenario(server):
            req = {"kernel": "TRIAD", "threads": 4}
            first = await http_request(server.port, "POST", "/predict",
                                       req)
            not_modified = await http_request(
                server.port, "POST", "/predict", req,
                headers={"If-None-Match": first[1]["etag"]},
            )
            from repro import telemetry

            counter = telemetry.metrics().counter(
                "serve.respcache.not_modified"
            ).value
            return first, not_modified, counter

        first, not_modified, counter = with_server(
            default_config(), scenario
        )
        assert not_modified[0] == 304
        assert not_modified[2] in (None, b"")
        assert not_modified[1]["etag"] == first[1]["etag"]
        assert counter == 1

    def test_stale_etag_gets_full_response(self):
        async def scenario(server):
            req = {"kernel": "TRIAD", "threads": 4}
            await http_request(server.port, "POST", "/predict", req)
            return await http_request(
                server.port, "POST", "/predict", req,
                headers={"If-None-Match": '"deadbeefdeadbeef"'},
            )

        status, headers, body = with_server(default_config(), scenario)
        assert status == 200
        assert body["kernel"] == "TRIAD"

    def test_if_none_match_star_matches(self):
        async def scenario(server):
            req = {"kernel": "TRIAD", "threads": 4}
            await http_request(server.port, "POST", "/predict", req)
            return await http_request(
                server.port, "POST", "/predict", req,
                headers={"If-None-Match": "*"},
            )

        status, _, _ = with_server(default_config(), scenario)
        assert status == 304


class TestEtagHelpers:
    def test_etag_is_content_addressed(self):
        assert response_etag(b"abc") == response_etag(b"abc")
        assert response_etag(b"abc") != response_etag(b"abd")

    def test_etag_matches_lists_and_star(self):
        etag = response_etag(b"abc")
        assert etag_matches(etag, etag)
        assert etag_matches(f'"other", {etag}', etag)
        assert etag_matches("*", etag)
        assert not etag_matches('"other"', etag)
        assert not etag_matches(None, etag)
        assert not etag_matches(etag, "")
