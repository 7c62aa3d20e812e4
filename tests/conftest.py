"""Shared fixtures: machine models, kernels, small run configurations."""

from __future__ import annotations

import contextlib

import pytest

from repro.kernels.registry import all_kernels
from repro.machine import catalog


@pytest.fixture(scope="session")
def sg2042():
    return catalog.sg2042()


@pytest.fixture(scope="session")
def visionfive_v2():
    return catalog.visionfive_v2()


@pytest.fixture(scope="session")
def visionfive_v1():
    return catalog.visionfive_v1()


@pytest.fixture(scope="session")
def amd_rome():
    return catalog.amd_rome()


@pytest.fixture(scope="session")
def intel_broadwell():
    return catalog.intel_broadwell()


@pytest.fixture(scope="session")
def intel_icelake():
    return catalog.intel_icelake()


@pytest.fixture(scope="session")
def intel_sandybridge():
    return catalog.intel_sandybridge()


@pytest.fixture(scope="session")
def all_cpus():
    return catalog.all_cpus()


@pytest.fixture(scope="session")
def kernels():
    """One instance of every kernel (session-scoped: kernels hold no
    mutable state — workspaces do)."""
    return all_kernels()


@pytest.fixture(scope="session")
def kernels_by_name(kernels):
    return {k.name: k for k in kernels}


@pytest.fixture
def compile_counts(monkeypatch):
    """Counts of ``analyze()`` calls and of ``analyze_suite`` lookups,
    from empty tables.

    Every per-configuration table (compile reports, the lowering,
    prediction preludes) is emptied first by their one clearing hook,
    :func:`~repro.kernels.registry.clear_tables`, so a count does not
    depend on which tests ran before; every binding the program calls
    is wrapped.
    """
    from repro.compiler import cache, vectorizer
    from repro.kernels.registry import clear_tables
    from repro.suite import runner

    counts = {"analyze": 0, "analyze_suite": 0}
    real_analyze = vectorizer.analyze
    real_suite = vectorizer.analyze_suite

    def analyze(*args, **kwargs):
        counts["analyze"] += 1
        return real_analyze(*args, **kwargs)

    def analyze_suite(*args, **kwargs):
        counts["analyze_suite"] += 1
        return real_suite(*args, **kwargs)

    clear_tables()
    monkeypatch.setattr(vectorizer, "analyze", analyze)
    monkeypatch.setattr(runner, "analyze", analyze)
    monkeypatch.setattr(runner, "analyze_suite", analyze_suite)
    monkeypatch.setattr(cache, "analyze_suite", analyze_suite)
    return counts


@pytest.fixture
def per_kernel_loop():
    """A context manager under which every ``run_suite`` call,
    ``run_suites`` request and sweep grid point takes the per-kernel
    policy loop, as a time the fold rejects does: ``fold_seconds`` gives
    up in :mod:`repro.suite.runner`, where the one fold calls it. The
    batch predictions stay, so the loop scales each one by its noise.
    """
    from repro.suite import runner

    @contextlib.contextmanager
    def forced():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                runner, "fold_seconds", lambda seconds, means: None
            )
            yield

    return forced
