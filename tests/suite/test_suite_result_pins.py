"""Suite results, ``repro run`` tables and ``/predict`` bodies, pinned
to bytes.

The other suite tests compare one result with another (a folded suite
with the per-kernel loop's, ``run_suites`` with ``run_suite``). These
compare each output with the BLAKE2b digest of the text a known-good
build produced, so a change to how a suite result is held or built
cannot move a value unnoticed.

One case per registry machine and view:

* ``suite-<machine>``: the ``repr`` of ``run_suite``'s result, every
  ``KernelRun`` with its ``prediction`` and ``report`` to the last bit,
  at one thread and at the machine's core count, FP32 and FP64, at the
  default five runs and noise;
* ``cli-run-<machine>``: ``repro run --cpu <machine>``'s stdout, which
  reads each run's serving level, bound and vector path;
* ``serve-predict-<machine>``: the body and ``ETag`` of serve's
  ``/predict`` response for TRIAD on the SG2042 and the SG2044.
"""

from __future__ import annotations

import asyncio
import hashlib
import io
from contextlib import redirect_stdout

import pytest

from repro.registry import default_registry
from repro.suite.config import Precision, RunConfig
from repro.suite.runner import run_suite
from tests.serve.helpers import raw_request

MACHINES = (
    "amd_rome", "intel_broadwell", "intel_icelake", "intel_sandybridge",
    "sg2042", "sg2042_2s", "sophon_sg2044", "visionfive_v1",
    "visionfive_v2",
)


def _digest(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def _suites(machine: str) -> str:
    cpu = default_registry().machine(machine)
    return "\n".join(
        repr(run_suite(cpu, RunConfig(threads=threads, precision=precision)))
        for threads in sorted({1, cpu.topology.num_cores})
        for precision in (Precision.FP32, Precision.FP64)
    )


def _cli_run(machine: str) -> str:
    from repro.cli import main

    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["run", "--cpu", machine]) == 0
    return out.getvalue()


def _serve_predict(machine: str) -> bytes:
    """The body of one ``/predict`` response, then its ``ETag``."""
    from repro.serve.server import PredictionServer, ServeConfig

    async def main():
        server = PredictionServer(ServeConfig(port=0, drain_timeout_s=2.0))
        await server.start()
        try:
            return await raw_request(
                server.port, "POST", "/predict",
                {"kernel": "TRIAD", "cpu": machine, "threads": 8},
            )
        finally:
            await server.drain()

    head, _, content = asyncio.run(main()).partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 200 OK\r\n")
    etag = [
        line.split(b":", 1)[1].strip()
        for line in head.split(b"\r\n")
        if line.lower().startswith(b"etag:")
    ]
    return content + b"\0" + b"".join(etag)


CASES = {
    **{f"suite-{m}": (lambda m=m: _suites(m)) for m in MACHINES},
    **{f"cli-run-{m}": (lambda m=m: _cli_run(m)) for m in MACHINES},
    **{
        f"serve-predict-{m}": (lambda m=m: _serve_predict(m))
        for m in ("sg2042", "sophon_sg2044")
    },
}

#: ``_digest(CASES[name]())`` as a known-good build computed it.
PINNED: dict[str, str] = {
    "cli-run-amd_rome": "deda13466746a202cecd9d981586c3b9",
    "cli-run-intel_broadwell": "595b82985de62e289b2ab6f9ba08deb9",
    "cli-run-intel_icelake": "953000b255ea44508e48c3e9decf76dd",
    "cli-run-intel_sandybridge": "205880d5a5ecea286412ecc2993c816f",
    "cli-run-sg2042": "2eb272129de6c4cec528899d66a2d2d1",
    "cli-run-sg2042_2s": "a02a30310d8d2d454e0fd3a794d9ef6b",
    "cli-run-sophon_sg2044": "370494f43aff2f06be727544e38b770f",
    "cli-run-visionfive_v1": "d02dc4e7df9ac5aa692a99fb0e324c33",
    "cli-run-visionfive_v2": "2bd7acb898a088dee80a879f66dd2a87",
    "serve-predict-sg2042": "fca9740e7f47784b462c9133815208eb",
    "serve-predict-sophon_sg2044": "81b32b729e0c2c39bc9dc74073a6e4e6",
    "suite-amd_rome": "56d8929cd383132609fc476552072eb7",
    "suite-intel_broadwell": "a4a459e48024d364f6a30841cbf85b30",
    "suite-intel_icelake": "0177d1990411066bfce710faaebf43b8",
    "suite-intel_sandybridge": "70a4a12a9885d4545334de98f2db0974",
    "suite-sg2042": "6a529078ef1e1b968ce11e810f8c8ca0",
    "suite-sg2042_2s": "82b94da8ccf415458ee32de123a447d8",
    "suite-sophon_sg2044": "c31bb5a159ac53d7692984fdc94819cc",
    "suite-visionfive_v1": "e5ae9f00c9bf600af425c6cfedd57608",
    "suite-visionfive_v2": "6d4cfb8791f1fbf9f684d5434ed148ca",
}


def test_every_case_is_pinned():
    assert sorted(PINNED) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_text_matches_the_pin(name):
    assert _digest(CASES[name]()) == PINNED[name]


if __name__ == "__main__":
    for name in sorted(CASES):
        print(f'    "{name}": "{_digest(CASES[name]())}",')
