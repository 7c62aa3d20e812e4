"""Bottleneck tables and ``explain`` texts, pinned to bytes.

The other bottleneck and explain tests check properties (a bound, a
section, a time equal to ``run_suite``'s). These compare each output
with the BLAKE2b digest of the text a known-good build produced, so a
change to how an explanation is derived cannot move a share, a bound
or a line unnoticed.

One case per registry machine and view:

* ``bottleneck-<machine>``: ``render_bottleneck_report``'s table and
  the ``repr`` of every ``BottleneckReport`` (every float to its last
  bit), over all 64 kernels at each configuration of the set below:
  thread counts 1, 2, 4, ... up to 64 and the machine's core count
  (those not above it), the three placements, FP32 and FP64,
  vectorization on; and vectorization off at one thread and at the
  core count, FP64, cluster placement;
* ``explain-<machine>``: ``explain_kernel``'s text for all 64 kernels,
  gaps included (320 of the 576 texts' lines on the nine machines);
* ``serve-explain-<machine>``: the body and ``ETag`` of serve's
  ``/explain`` response for TRIAD on the SG2042 and the SG2044.
"""

from __future__ import annotations

import asyncio
import hashlib

import pytest

from repro.analysis.bottleneck import (
    attribute_bottlenecks,
    render_bottleneck_report,
)
from repro.kernels.registry import all_kernels
from repro.registry import default_registry
from repro.suite.config import Placement, Precision, RunConfig
from repro.suite.explain import explain_kernel
from tests.serve.helpers import raw_request

MACHINES = (
    "amd_rome", "intel_broadwell", "intel_icelake", "intel_sandybridge",
    "sg2042", "sg2042_2s", "sophon_sg2044", "visionfive_v1",
    "visionfive_v2",
)

#: A line ``explain_kernel`` renders for a configuration it could not
#: compile or predict.
GAPS = ("compilation failed (", "prediction failed (")


def _digest(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def _thread_counts(cores: int) -> list[int]:
    counts = {cores}
    threads = 1
    while threads <= min(cores, 64):
        counts.add(threads)
        threads *= 2
    return sorted(counts)


def _configs(cpu) -> list[RunConfig]:
    cores = cpu.topology.num_cores
    configs = [
        RunConfig(threads=threads, placement=placement,
                  precision=precision)
        for threads in _thread_counts(cores)
        for placement in Placement
        for precision in (Precision.FP32, Precision.FP64)
    ]
    configs += [
        RunConfig(threads=threads, placement=Placement.CLUSTER,
                  precision=Precision.FP64, vectorize=False)
        for threads in sorted({1, cores})
    ]
    return configs


def _bottleneck(machine: str) -> str:
    cpu = default_registry().machine(machine)
    kernels = all_kernels()
    parts = []
    for config in _configs(cpu):
        parts.append(render_bottleneck_report(cpu, config, kernels))
        parts.append(repr(attribute_bottlenecks(cpu, config, kernels)))
    return "\n".join(parts)


def _explain(machine: str) -> str:
    cpu = default_registry().machine(machine)
    return "\n".join(
        explain_kernel(kernel.name, cpu) for kernel in all_kernels()
    )


def _serve_explain(machine: str) -> bytes:
    """The body of one ``/explain`` response, then its ``ETag``."""
    from repro.serve.server import PredictionServer, ServeConfig

    async def main():
        server = PredictionServer(ServeConfig(port=0, drain_timeout_s=2.0))
        await server.start()
        try:
            return await raw_request(
                server.port, "POST", "/explain",
                {"kernel": "TRIAD", "cpu": machine},
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
    **{f"bottleneck-{m}": (lambda m=m: _bottleneck(m)) for m in MACHINES},
    **{f"explain-{m}": (lambda m=m: _explain(m)) for m in MACHINES},
    **{
        f"serve-explain-{m}": (lambda m=m: _serve_explain(m))
        for m in ("sg2042", "sophon_sg2044")
    },
}

#: ``_digest(CASES[name]())`` as a known-good build computed it.
PINNED: dict[str, str] = {
    "bottleneck-amd_rome": "904c0b8366268276a0a9733651735a11",
    "bottleneck-intel_broadwell": "f8b71b449923bee988db6cf50f67831a",
    "bottleneck-intel_icelake": "f76048ed8870fc08e200e765fffae5d0",
    "bottleneck-intel_sandybridge": "d03453d96e1d9a0a52e8f1eb881e3456",
    "bottleneck-sg2042": "d119685be579eef662bf0ca4ecdbd55f",
    "bottleneck-sg2042_2s": "458882717a85c136a5243ebe313a02f3",
    "bottleneck-sophon_sg2044": "a671949f3ccbfb489d49aa17df8989de",
    "bottleneck-visionfive_v1": "9d9936900182ae865ab3150a4bb738db",
    "bottleneck-visionfive_v2": "941c6a2f27b52df0eb954b072d2eb192",
    "explain-amd_rome": "ca5da3377f20b5d92d5c405f58d3b459",
    "explain-intel_broadwell": "8d1fc56515681a5f02577e282bc61ec0",
    "explain-intel_icelake": "970e1d4c7794bd0213086ada6ee1d95d",
    "explain-intel_sandybridge": "5ede20cb1bf3181c4c28ae4fd0336ebf",
    "explain-sg2042": "78f37fbed63f908a6846bf1d168a73ad",
    "explain-sg2042_2s": "afadd598e944ea0b683d6d0092f18663",
    "explain-sophon_sg2044": "d00c7f89f4ed94b8d5bfad78d1ec6a08",
    "explain-visionfive_v1": "5a0e027a6c4e7d66189f84410133c2b9",
    "explain-visionfive_v2": "ff0765f8dfe5927696098325675ae579",
    "serve-explain-sg2042": "8a25023213973b1a6ad0e9039d0c069f",
    "serve-explain-sophon_sg2044": "6be8b2a96bff324dc2046f503161b7d9",
}


def test_every_case_is_pinned():
    assert sorted(PINNED) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_text_matches_the_pin(name):
    assert _digest(CASES[name]()) == PINNED[name]


def test_explain_gap_lines():
    """The explain pins cover the gaps: 320 lines over the nine
    machines, each a configuration the machine's compiler cannot
    target."""
    gaps = sum(
        1
        for machine in MACHINES
        for line in _explain(machine).splitlines()
        if any(gap in line for gap in GAPS)
    )
    assert gaps == 320


if __name__ == "__main__":
    for name in sorted(CASES):
        print(f'    "{name}": "{_digest(CASES[name]())}",')
