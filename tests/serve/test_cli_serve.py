"""The ``serve`` CLI command: startup banner, SIGTERM drain, flags."""

import asyncio
import json
import signal
import subprocess
import sys
import time


from repro.cli import build_parser

from tests.serve.helpers import http_request


def start_server(*extra_args):
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         *extra_args],
        stderr=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )


def wait_for_port(proc, timeout=30.0):
    """Parse 'serving on http://host:port' from the banner line."""
    deadline = time.monotonic() + timeout
    line = proc.stderr.readline()
    assert time.monotonic() < deadline, "no banner before timeout"
    assert "serving on http://" in line, line
    return int(line.rsplit(":", 1)[1])


class TestServeCommand:
    def test_parser_accepts_serve_flags(self):
        args = build_parser().parse_args([
            "serve", "--port", "0", "--max-inflight", "8",
            "--deadline-ms", "500", "--breaker-threshold", "3",
            "--breaker-cooldown", "0.5", "--on-failure", "skip",
            "--retries", "1", "--engine-workers", "1",
            "--drain-timeout", "2",
        ])
        assert args.command == "serve"
        assert args.max_inflight == 8
        assert args.on_failure == "skip"

    def test_sigterm_drains_cleanly(self):
        proc = start_server("--drain-timeout", "2")
        try:
            port = wait_for_port(proc)
            status, _, body = asyncio.run(
                http_request(port, "POST", "/predict",
                             {"kernel": "TRIAD", "threads": 8})
            )
            assert status == 200
            assert body["kernel"] == "TRIAD"
            proc.send_signal(signal.SIGTERM)
            _, stderr = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0
        assert "draining..." in stderr
        assert "drain complete" in stderr
        # The final telemetry summary is part of the drain output.
        assert "serve.requests" in stderr

    def test_fault_plan_flag_mounts_chaos(self, tmp_path):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps({
            "seed": 3,
            "rules": [{"site": "run", "probability": 1.0,
                       "kernels": ["TRIAD"]}],
        }))
        proc = start_server("--fault-plan", str(plan_path),
                            "--retries", "0", "--drain-timeout", "2")
        try:
            port = wait_for_port(proc)
            status, _, body = asyncio.run(
                http_request(port, "POST", "/predict",
                             {"kernel": "TRIAD", "deadline_ms": 10000})
            )
            assert status == 500
            assert body["error"]["code"] == "engine_fault"
            assert body["error"]["details"]["fault_site"] == "run"
            proc.send_signal(signal.SIGTERM)
            _, stderr = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0
        assert "drain complete" in stderr
