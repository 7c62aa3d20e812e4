"""One fold and one per-kernel loop behind every suite and sweep.

``run_suite``, ``run_suites`` and ``sweep`` compute through two steps
of ``repro.suite.runner``: ``_fold`` prefetches, draws noise and folds,
and ``_run_loop`` is the per-kernel policy loop. An AST scan of
``src/repro`` keeps it so:

* ``grid_prefetch`` and ``fold_seconds`` are called only in
  ``suite/runner.py::_fold``;
* ``_run_one_kernel`` is called only in ``suite/runner.py::_run_loop``;
* no module but ``suite/runner.py`` imports or reads
  ``grid_prefetch``, ``fold_seconds`` or ``_noise_means``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent

FOLD_ONLY = {"grid_prefetch", "fold_seconds"}
LOOP_ONLY = {"_run_one_kernel"}
RUNNER_ONLY = {"grid_prefetch", "fold_seconds", "_noise_means"}


def _called(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _call_sites(names: set[str]) -> set[tuple[str, str, str]]:
    """Every call to one of ``names`` in ``src/repro``, as ``(module
    path relative to the package, enclosing function, name)``; the
    enclosing function is ``<module>`` at module level."""
    sites = set()

    def visit(node: ast.AST, module: str, function: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, module, child.name)
                continue
            if isinstance(child, ast.Call):
                name = _called(child.func)
                if name in names:
                    sites.add((module, function, name))
            visit(child, module, function)

    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        visit(ast.parse(path.read_text(), str(path)), rel, "<module>")
    return sites


def test_only_the_fold_prefetches_and_folds():
    assert _call_sites(FOLD_ONLY) == {
        ("suite/runner.py", "_fold", "grid_prefetch"),
        ("suite/runner.py", "_fold", "fold_seconds"),
    }


def test_only_the_loop_runs_a_kernel():
    assert _call_sites(LOOP_ONLY) == {
        ("suite/runner.py", "_run_loop", "_run_one_kernel"),
    }


def test_no_other_module_reaches_the_fold_internals():
    readers = {}
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel == "suite/runner.py":
            continue
        names = set()
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
        if names & RUNNER_ONLY:
            readers[rel] = sorted(names & RUNNER_ONLY)
    assert readers == {}
