"""Smoke tests: every example script must run end-to-end.

Examples are documentation that executes; these tests keep them from
rotting. Each is run in-process via runpy with stdout captured.
"""

import runpy
from pathlib import Path


EXAMPLES_DIR = Path(__file__).resolve().parents[1] / "examples"

EXPECTED_EXAMPLES = {
    "quickstart.py",
    "placement_tuning.py",
    "compiler_flow.py",
    "future_hardware.py",
    "distributed_jacobi.py",
    "hpl_stream.py",
    "custom_machine.py",
    "tracing_sweep.py",
    "serve_client.py",
}


def run_example(name: str, capsys) -> str:
    path = EXAMPLES_DIR / name
    assert path.exists(), path
    runpy.run_path(str(path), run_name="__main__")
    return capsys.readouterr().out


def test_examples_directory_complete():
    found = {p.name for p in EXAMPLES_DIR.glob("*.py")}
    assert found == EXPECTED_EXAMPLES


def test_quickstart(capsys):
    out = run_example("quickstart.py", capsys)
    assert "predicted class times" in out
    assert "numerical verification" in out


def test_placement_tuning(capsys):
    out = run_example("placement_tuning.py", capsys)
    assert "recommendation: OMP_NUM_THREADS=" in out


def test_compiler_flow(capsys):
    out = run_example("compiler_flow.py", capsys)
    assert "vle.v" in out  # rolled-back assembly shown
    assert "'vectorized': 30" in out.replace('"', "'")


def test_future_hardware(capsys):
    out = run_example("future_hardware.py", capsys)
    assert "next-gen (all)" in out


def test_distributed_jacobi(capsys):
    out = run_example("distributed_jacobi.py", capsys)
    assert "max |parallel - sequential| = 0.000e+00" in out


def test_hpl_stream(capsys):
    out = run_example("hpl_stream.py", capsys)
    assert "Rmax" in out
    assert "passes < 16" in out


def test_custom_machine(capsys):
    out = run_example("custom_machine.py", capsys)
    assert "SG2042-Pro" in out


def test_tracing_sweep(capsys):
    out = run_example("tracing_sweep.py", capsys)
    assert "telemetry:" in out                  # rendered summary
    assert "span tree" in out
    assert "sweep.prefetch" in out              # tree shows pipeline phases
    assert "Chrome trace written to" in out


def test_serve_client(capsys):
    out = run_example("serve_client.py", capsys)
    assert "sweep of 6 kernels (8 threads) [200]" in out
    assert "code='not_found'" in out
    assert "server drained cleanly" in out
