"""Sweep CSVs, checkpoint files and ``/sweep`` bodies, pinned to bytes.

The other CSV tests compare one rendering of a sweep with another
(``to_csv`` against ``render_csv`` over ``.points``, the fold against
``run_suite``). These compare each output with the BLAKE2b digest of
the bytes a known-good build produced, so a change to how a sweep
result is held or rendered cannot move a byte unnoticed.

Each case is a function returning the bytes it pins: a fixed grid on
each of the nine registry machines, quiet (one run, no noise) and noisy,
and the paths that do not fold: a kernel named twice, SKIP and RETRY
under a chaos plan, a checkpointed and a checkpoint-resumed grid, a
traced grid, the scalar engine and ``reference_mode()``. The
``points-*`` cases pin the ``repr`` of a result's points and failures,
every float to its last bit. The CLI case
pins ``repro sweep``'s table and ``--stats-out`` record; the ``/sweep``
cases pin the response body and its ``ETag``.
"""

from __future__ import annotations

import asyncio
import hashlib
import io
import json
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from repro.kernels.registry import get_kernel
from repro.perfmodel.placement import reference_mode
from repro.registry import default_registry
from repro.resilience import chaos
from repro.resilience.faults import FaultPlan, FaultRule, transient_plan
from repro.resilience.retry import FailurePolicy, RetrySpec
from repro.suite.config import Placement, Precision
from repro.suite.sweep import sweep
from repro.telemetry import telemetry_session
from tests.serve.helpers import raw_request

KERNELS = ("TRIAD", "GEMM", "DOT", "COPY", "PI_REDUCE", "JACOBI_2D")
MACHINES = (
    "amd_rome", "intel_broadwell", "intel_icelake", "intel_sandybridge",
    "sg2042", "sg2042_2s", "sophon_sg2044", "visionfive_v1",
    "visionfive_v2",
)


def _digest(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def _kernels(names=KERNELS):
    return [get_kernel(name) for name in names]


def _machine_grid(cpu) -> dict:
    cores = cpu.topology.num_cores
    return dict(
        threads=sorted({1, max(1, cores // 2), cores}),
        placements=tuple(Placement),
        precisions=(Precision.FP32, Precision.FP64),
    )


def _sg2042_sweep(**kwargs):
    cpu = default_registry().machine("sg2042")
    return sweep(cpu, _kernels(), **_machine_grid(cpu), **kwargs)


def _machine_csv(machine: str, noisy: bool) -> bytes:
    cpu = default_registry().machine(machine)
    noise = dict(runs=3, noise_sigma=0.05) if noisy else {}
    result = sweep(cpu, _kernels(), **_machine_grid(cpu), **noise)
    assert not result.failures
    return result.to_csv().encode()


def _named_twice() -> bytes:
    cpu = default_registry().machine("sg2042")
    result = sweep(
        cpu, _kernels(("TRIAD", "GEMM", "TRIAD", "DOT", "GEMM")),
        threads=(1, 8), placements=(Placement.BLOCK, Placement.CLUSTER),
    )
    return result.to_csv().encode()


def _chaos(policy: FailurePolicy):
    with chaos.inject_faults(transient_plan(11, 0.3)):
        result = _sg2042_sweep(
            policy=policy, retry=RetrySpec(max_retries=1),
        )
    assert result.points
    if policy is FailurePolicy.SKIP:
        assert result.failures
    return result


def _exact(result) -> bytes:
    """Every field of every point and failure; a float's ``repr``
    round-trips, so equal bytes mean equal points."""
    return (repr(result.points) + repr(result.failures)).encode()


def _checkpointed(resume: bool) -> bytes:
    """The CSV, then the checkpoint file, of a checkpointed grid; with
    ``resume``, of a run resumed after a kill that kept the header and
    the first nine records."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sweep.jsonl"
        result = _sg2042_sweep(checkpoint=path)
        if resume:
            lines = path.read_text().splitlines()
            path.write_text("\n".join(lines[:10]) + "\n")
            result = _sg2042_sweep(checkpoint=path)
        return result.to_csv().encode() + b"\0" + path.read_bytes()


def _traced() -> bytes:
    with telemetry_session():
        result = _sg2042_sweep()
    assert result.telemetry is not None
    return result.to_csv().encode()


def _scalar() -> bytes:
    return _sg2042_sweep(engine="scalar").to_csv().encode()


def _reference() -> bytes:
    with reference_mode():
        return _sg2042_sweep().to_csv().encode()


def _cli_table() -> bytes:
    """``repro sweep``'s table, then its ``--stats-out`` record less
    the wall time."""
    from repro.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        stats = Path(tmp) / "stats.json"
        out = io.StringIO()
        with redirect_stdout(out):
            assert main([
                "sweep", "--cpu", "sg2042", "--kernels", "TRIAD,GEMM,DOT",
                "--threads", "1,8", "--placements", "block,cyclic",
                "--precisions", "fp32,fp64", "--stats-out", str(stats),
            ]) == 0
        record = json.loads(stats.read_text())
    del record["seconds"]
    return out.getvalue().encode() + b"\0" + json.dumps(
        record, sort_keys=True
    ).encode()


SWEEP_REQUEST = {
    "kernels": ["TRIAD", "DAXPY", "GEMM"], "threads": [1, 8, 64],
    "placements": ["block", "cluster"], "precisions": ["fp32", "fp64"],
    "deadline_ms": 30000,
}


def _serve_body(body: dict, fault_plan: FaultPlan | None = None) -> bytes:
    """The body of one ``/sweep`` response, then its ``ETag``."""
    from repro.serve.server import PredictionServer, ServeConfig

    async def main():
        server = PredictionServer(ServeConfig(
            port=0, drain_timeout_s=2.0, fault_plan=fault_plan,
            retries=1,
        ))
        await server.start()
        try:
            return await raw_request(server.port, "POST", "/sweep", body)
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


def _serve_failures() -> bytes:
    plan = FaultPlan(seed=11, rules=(
        FaultRule(site="run", probability=1.0, kernels=("TRIAD",)),
    ))
    return _serve_body(SWEEP_REQUEST, fault_plan=plan)


CASES = {
    **{
        f"{machine}-{mode}": (
            lambda machine=machine, noisy=(mode == "noisy"):
            _machine_csv(machine, noisy)
        )
        for machine in MACHINES
        for mode in ("quiet", "noisy")
    },
    "named-twice": _named_twice,
    "chaos-skip": lambda: _chaos(FailurePolicy.SKIP).to_csv().encode(),
    "chaos-retry": lambda: _chaos(FailurePolicy.RETRY).to_csv().encode(),
    "points-chaos-skip": lambda: _exact(_chaos(FailurePolicy.SKIP)),
    "points-sg2042-noisy": lambda: _exact(
        _sg2042_sweep(runs=3, noise_sigma=0.05)
    ),
    "checkpointed": lambda: _checkpointed(resume=False),
    "checkpoint-resumed": lambda: _checkpointed(resume=True),
    "traced": _traced,
    "scalar": _scalar,
    "reference": _reference,
    "cli-table": _cli_table,
    "serve-sg2042": lambda: _serve_body(SWEEP_REQUEST),
    "serve-sg2044": lambda: _serve_body(
        {**SWEEP_REQUEST, "cpu": "sophon_sg2044"}
    ),
    "serve-failures": _serve_failures,
}

#: ``_digest(CASES[name]())`` as a known-good build computed it.
PINNED: dict[str, str] = {
    "amd_rome-noisy": "faff0749e713ba2958202d10ac99a0a0",
    "amd_rome-quiet": "e4e41fad1f4c9f9696aeaba98102d0db",
    "chaos-retry": "ddff664a8871b98b18a5a8a9fe4f8734",
    "chaos-skip": "93e6b6a6cc89dbb6cea0c94cd6c46cde",
    "cli-table": "ad1b688032869a6d775a2122c0a808e8",
    "checkpoint-resumed": "c68a5272d522be51fe94cc877927df71",
    "checkpointed": "c68a5272d522be51fe94cc877927df71",
    "intel_broadwell-noisy": "5ae737e3af087086ab0436894d325272",
    "intel_broadwell-quiet": "c77576d9d6b4360aa92df26a303a829e",
    "intel_icelake-noisy": "a506195f0caa1cfc0a082252b83f171a",
    "intel_icelake-quiet": "2a5fd32e7de1fdd757a14f6c22794337",
    "intel_sandybridge-noisy": "9a8651381ac1557db6ac838815d029c7",
    "intel_sandybridge-quiet": "a61bb553028344e0aa422251f1b13ee7",
    "named-twice": "2934ee067660d0c4c7e2599f32b63692",
    "points-chaos-skip": "c1f166fb473d981bdde0b75ea054f78e",
    "points-sg2042-noisy": "013a74ae728b552c2e36afa1ddb9691b",
    "reference": "0155e9554f1b33b5bb9ef041d03d34fe",
    "scalar": "0155e9554f1b33b5bb9ef041d03d34fe",
    "serve-failures": "4ddf46c71ec86aca0e0b77471a8fd4ff",
    "serve-sg2042": "7a09ccdd20a98280ae9a3994b3245225",
    "serve-sg2044": "b47653b65f780424acd8c5a4f6197b13",
    "sg2042-noisy": "67db138bfb0825c8cfe24e59ef39b0a8",
    "sg2042-quiet": "0155e9554f1b33b5bb9ef041d03d34fe",
    "sg2042_2s-noisy": "f92a35841879724d56ab58db585897f8",
    "sg2042_2s-quiet": "5fb44a33bf9127b02a937e84d0d329c2",
    "sophon_sg2044-noisy": "c0ada524d5541ee6ee427e90f1ed3821",
    "sophon_sg2044-quiet": "5aad83fa58beefe94d41e81434885fd9",
    "traced": "0155e9554f1b33b5bb9ef041d03d34fe",
    "visionfive_v1-noisy": "e4d39077852ba9a81be7e452f99898ed",
    "visionfive_v1-quiet": "947ebce2dcd57876267aff4f2ada8193",
    "visionfive_v2-noisy": "f63855eda0523abdf4617035796f4db3",
    "visionfive_v2-quiet": "d375d2b08518b238182750d8bb0c2b23",
}


def test_every_case_is_pinned():
    assert sorted(PINNED) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_bytes_match_the_pin(name):
    assert _digest(CASES[name]()) == PINNED[name]


if __name__ == "__main__":
    for name in sorted(CASES):
        print(f'    "{name}": "{_digest(CASES[name]())}",')
