"""Each pinned experiment asks for its suites in one ``run_suites`` call.

So an untraced experiment at its default settings calls ``run_suite``
for none of its suites, and draws the noise of all of them in one
``noise_means`` call (every suite of a snapshot experiment averages 5
runs at sigma 0.02). ``fast=True`` runs are noise-free and draw nothing.
The calls are counted wherever ``repro`` bound the two functions, so a
module that calls either directly is counted too.

The experiments read each kernel's time and class only, so a suite they
fold stays its three columns: no experiment builds a ``KernelRun`` or
asks a ``PointPrefetch`` for its predictions.
"""

import sys

import pytest

import repro.suite.runner as runner_mod
import repro.util.rng as rng_mod
from repro.experiments import ALL_EXPERIMENTS
from tests.experiments.test_snapshot import SNAPSHOT_EXPERIMENTS

#: The snapshot experiments that run no suite at all.
SUITELESS = ("table4", "extension_mpi", "extension_yardsticks")


def _count(monkeypatch, owner, name) -> list:
    """Count calls to ``owner.name``: through every ``repro`` module
    that holds it when ``owner`` is a module, else the class's
    method."""
    real = getattr(owner, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    if isinstance(owner, type):
        monkeypatch.setattr(owner, name, counting)
        return calls
    for mod in list(sys.modules.values()):
        if (
            getattr(mod, "__name__", "").startswith("repro")
            and getattr(mod, name, None) is real
        ):
            monkeypatch.setattr(mod, name, counting)
    return calls


@pytest.fixture
def counted(monkeypatch):
    return (
        _count(monkeypatch, runner_mod, "run_suite"),
        _count(monkeypatch, rng_mod, "noise_means"),
    )


def test_fifteen_experiments_run_suites():
    assert len(SNAPSHOT_EXPERIMENTS) - len(SUITELESS) == 15
    assert set(SUITELESS) <= set(SNAPSHOT_EXPERIMENTS)


@pytest.mark.parametrize("name", SNAPSHOT_EXPERIMENTS)
def test_one_noise_draw_and_no_run_suite_call(name, counted):
    run_suite_calls, draws = counted
    ALL_EXPERIMENTS[name]()
    assert len(run_suite_calls) == 0
    assert len(draws) == (0 if name in SUITELESS else 1)


@pytest.mark.parametrize("name", list(ALL_EXPERIMENTS))
def test_no_kernel_run_and_no_prefetched_call(name, monkeypatch):
    built = _count(monkeypatch, runner_mod.KernelRun, "__init__")
    prefetched = _count(monkeypatch, runner_mod.PointPrefetch, "prefetched")
    ALL_EXPERIMENTS[name]()
    assert (len(built), len(prefetched)) == (0, 0)


@pytest.mark.parametrize("name", SNAPSHOT_EXPERIMENTS)
def test_fast_runs_draw_nothing(name, counted):
    run_suite_calls, draws = counted
    ALL_EXPERIMENTS[name](fast=True)
    assert len(run_suite_calls) == 0
    assert len(draws) == 0
