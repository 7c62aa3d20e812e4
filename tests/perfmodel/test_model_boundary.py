"""The model is derived in ``repro.perfmodel`` only.

Views that explain a prediction (``repro analyze bottleneck``, the
experiments, serve) read the engine's prediction, never re-derive it
from the model's per-iteration helpers. An AST scan of ``src/repro``
keeps it so:

* no module outside ``repro/perfmodel/`` imports or reads
  ``pipeline_time_per_iter`` or ``memory_time_per_iter``;
* the modules outside it that reach the scalar model,
  ``simulate_kernel``, are at most the suite runner (its chaos,
  ``reference_mode()`` and abstention path) and the three callers that
  still predict one kernel at a time: ``explain``, the STREAM app and
  the cluster model.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent

PER_ITERATION = {"pipeline_time_per_iter", "memory_time_per_iter"}

SCALAR_CALLERS = {
    "suite/runner.py", "suite/explain.py", "apps/stream.py",
    "cluster/machine.py",
}


def _names_outside_perfmodel() -> dict[str, set[str]]:
    """Per module outside ``repro/perfmodel/`` (path relative to the
    package), every name it imports with ``from ... import`` or reads
    as an attribute."""
    out = {}
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel.startswith("perfmodel/"):
            continue
        names = set()
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
        out[rel] = names
    return out


def test_no_module_outside_perfmodel_reads_per_iteration_times():
    readers = {
        rel: sorted(names & PER_ITERATION)
        for rel, names in _names_outside_perfmodel().items()
        if names & PER_ITERATION
    }
    assert readers == {}


def test_scalar_model_callers():
    callers = {
        rel for rel, names in _names_outside_perfmodel().items()
        if "simulate_kernel" in names
    }
    assert "suite/runner.py" in callers
    assert callers <= SCALAR_CALLERS, sorted(callers - SCALAR_CALLERS)
