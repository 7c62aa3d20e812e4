"""``run_suites``: many suites in one call, each equal to ``run_suite``'s.

A paper experiment asks for all its suites in one ``run_suites`` call:
equal requests are evaluated once, each machine's suites share one grid
pass, and the suites that fold draw their noise in one call per
(``runs``, ``noise_sigma``). These tests pin every result to one
``run_suite`` call per request, on the fold and on each path that still
goes through ``run_suite``.
"""

import math
from dataclasses import replace

import pytest

import repro.suite.runner as runner_mod
from repro import telemetry
from repro.compiler.model import VectorFlavor
from repro.experiments.ablations import _free_barriers, _unified_l3
from repro.kernels.base import KernelClass
from repro.kernels.registry import get_kernel, kernels_in_class, suite
from repro.machine import catalog
from repro.perfmodel.placement import reference_mode
from repro.resilience import chaos
from repro.resilience.faults import transient_plan
from repro.suite.config import Placement, Precision, RunConfig
from repro.suite.runner import SuiteRequest, run_suite, run_suites
from repro.util.errors import ConfigError, SimulationError, TransientError

KERNELS = [get_kernel(name) for name in (
    "TRIAD", "GEMM", "DOT", "COPY", "PI_REDUCE", "JACOBI_2D",
)]


def _clang(flavor):
    return RunConfig(
        threads=1, precision=Precision.FP32, compiler="clang-16",
        flavor=flavor, rollback=True,
    )


@pytest.fixture
def calls(monkeypatch):
    """The configs of the requests that ran the per-kernel loop
    (``_run_loop``, counted as ``run_suite``: the path ``run_suite``
    takes when its fold gives up), the ``noise_means`` draws and the
    ``grid_prefetch`` machines of the calls a test makes."""
    counted = {"run_suite": [], "noise_means": [], "grid_prefetch": []}

    def counting(name, record, attr=None):
        real = getattr(runner_mod, attr or name)

        def call(*args, **kwargs):
            counted[name].append(record(*args))
            return real(*args, **kwargs)

        monkeypatch.setattr(runner_mod, attr or name, call)

    counting("run_suite", lambda cpu, config, *rest: config, "_run_loop")
    counting("noise_means", lambda seeds, runs, sigma: (len(seeds), runs))
    counting("grid_prefetch", lambda cpu, *rest: cpu.name)
    return counted


def _mixed_requests():
    sg = catalog.sg2042()
    rome = catalog.amd_rome()
    polybench = kernels_in_class(KernelClass.POLYBENCH)
    fp32 = RunConfig(threads=1, precision=Precision.FP32)
    return [
        SuiteRequest(sg, RunConfig()),
        SuiteRequest(sg, RunConfig(
            threads=32, precision=Precision.FP32,
            placement=Placement.CLUSTER,
        )),
        SuiteRequest(sg, RunConfig(vectorize=False)),
        SuiteRequest(sg, fp32, polybench),
        SuiteRequest(sg, _clang(VectorFlavor.VLS), polybench),
        SuiteRequest(sg, _clang(VectorFlavor.VLA), polybench),
        SuiteRequest(sg, RunConfig(
            threads=16, precision=Precision.FP32, noise_sigma=0.0,
            size_scale=16.0,
        )),
        SuiteRequest(rome, RunConfig(threads=64, runs=1)),
        SuiteRequest(_unified_l3(sg), RunConfig(
            threads=32, precision=Precision.FP32,
            placement=Placement.CYCLIC,
        )),
        SuiteRequest(_free_barriers(sg), RunConfig(
            threads=2, precision=Precision.FP32,
            placement=Placement.CYCLIC, runs=1,
        )),
        SuiteRequest(catalog.visionfive_v2(), RunConfig(), KERNELS),
        # Repeats: the same request, and an equal one (a new machine
        # instance, a new config, the whole suite named).
        SuiteRequest(sg, RunConfig()),
        (catalog.sg2042(), RunConfig(), list(suite())),
    ]


class TestEqualsRunSuite:
    def test_mixed_requests(self, calls, per_kernel_loop):
        requests = _mixed_requests()
        results = run_suites(requests)
        assert calls["run_suite"] == []
        # Two draws: runs 5 and runs 1, both at the default sigma; the
        # size-scaled request is noise-free. Each draw covers every
        # distinct suite of its kind.
        assert sorted(runs for _, runs in calls["noise_means"]) == [1, 5]
        # One grid pass per machine and kernel list: the SG2042's
        # whole suite and its Polybench subset, and four more machines.
        assert sorted(calls["grid_prefetch"]) == sorted(
            [requests[0].cpu.name] * 2 + [
                requests[i].cpu.name for i in (7, 8, 9, 10)
            ]
        )
        expected = [run_suite(*request) for request in requests]
        assert results == expected
        assert all(result.telemetry is None for result in results)
        # Folded, noisy and noise-free alike, through run_suites and
        # run_suite: the same results as the per-kernel loop's.
        with per_kernel_loop():
            looped = run_suites(requests)
            looped_alone = [run_suite(*request) for request in requests]
        assert looped == looped_alone == results

    def test_equal_requests_share_one_result(self):
        results = run_suites(_mixed_requests())
        assert results[-2] is results[0]
        assert results[-1] is results[0]
        assert len({id(result) for result in results}) == 11

    def test_results_keep_request_order(self):
        requests = _mixed_requests()
        forward = run_suites(requests)
        backward = run_suites(requests[::-1])
        assert backward == forward[::-1]

    def test_no_requests(self):
        assert run_suites([]) == []

    def test_noise_free_requests_draw_nothing(self, sg2042, calls):
        config = RunConfig(threads=8, noise_sigma=0.0)
        results = run_suites([(sg2042, config), (sg2042, config, KERNELS)])
        assert calls["noise_means"] == []
        assert results == [
            run_suite(sg2042, config), run_suite(sg2042, config, KERNELS),
        ]

    def test_empty_kernel_list_raises_run_suites_error(self, sg2042):
        with pytest.raises(ConfigError, match="kernel list is empty"):
            run_suites([(sg2042, RunConfig()), (sg2042, RunConfig(), [])])


class TestFallbacks:
    def test_inert_chaos_plan(self, calls):
        requests = _mixed_requests()[:8]
        with chaos.inject_faults(transient_plan(seed=7, probability=0.0)):
            expected = [run_suite(*request) for request in requests]
            calls["run_suite"].clear()
            results = run_suites(requests)
        assert results == expected
        # Every distinct request (the eight are distinct) ran on its own.
        assert calls["run_suite"] == [r.config for r in requests]

    def test_firing_chaos_plan_raises_run_suites_error(self, sg2042):
        requests = [(sg2042, RunConfig(threads=8), KERNELS)]
        plan = transient_plan(seed=7, probability=1.0)
        with chaos.inject_faults(plan), pytest.raises(TransientError) as one:
            run_suite(*requests[0])
        with chaos.inject_faults(plan), pytest.raises(TransientError) as all_:
            run_suites(requests)
        assert str(all_.value) == str(one.value)

    def test_reference_mode(self, calls):
        requests = _mixed_requests()
        batch = run_suites(requests)
        with reference_mode():
            expected = [run_suite(*request) for request in requests]
            calls["run_suite"].clear()
            results = run_suites(requests)
        assert results == expected == batch
        # The 13 requests hold 11 distinct ones.
        assert len(calls["run_suite"]) == 11

    def test_traced_session_runs_each_distinct_request(
        self, per_kernel_loop
    ):
        # Folded or through the per-kernel loop (reference mode, or a
        # fold that gives up), each distinct request records one
        # suite.run span and keeps a summary of its own; only the loop
        # records kernel.run spans.
        requests = _mixed_requests()
        untraced = run_suites(requests)
        with telemetry.telemetry_session() as (recorder, _):
            results = run_suites(requests)
        with telemetry.telemetry_session() as (looped, _), reference_mode():
            referenced = run_suites(requests)
        with telemetry.telemetry_session() as (gave_up, _):
            with per_kernel_loop():
                unfolded = run_suites(requests)
        assert results == referenced == unfolded == untraced
        distinct = {id(result): result for result in results}.values()
        looped_kernels = sum(len(r.runs) for r in distinct)
        for session, outcome, kernel_runs in (
            (recorder, results, 0),
            (looped, referenced, looped_kernels),
            (gave_up, unfolded, looped_kernels),
        ):
            names = [record.name for record in session.records()]
            assert names.count("suite.run") == 11
            assert names.count("kernel.run") == kernel_runs
            assert all(
                result.telemetry.phase_counts["suite.run"] == 1
                for result in outcome
            )

    def test_invalid_machine_raises_run_suites_error(self, monkeypatch):
        requests = _mixed_requests()
        bad = requests[7].cpu.name
        real = runner_mod.validate_cpu

        def validate(cpu):
            if cpu.name == bad:
                raise ConfigError(f"machine description {bad!r} is bad")
            real(cpu)

        monkeypatch.setattr(runner_mod, "validate_cpu", validate)
        with pytest.raises(ConfigError, match="is bad"):
            run_suite(*requests[7])
        with pytest.raises(ConfigError, match="is bad"):
            run_suites(requests)

    def test_clang_without_rollback_on_the_c920(self, sg2042, calls):
        config = RunConfig(threads=1, compiler="clang-16")
        with pytest.raises(ConfigError) as one:
            run_suite(sg2042, config)
        calls["run_suite"].clear()
        with pytest.raises(ConfigError) as all_:
            run_suites([(sg2042, RunConfig()), (sg2042, config)])
        assert str(all_.value) == str(one.value)
        assert "rollback" in str(one.value)
        # The valid request folded; the invalid one went to run_suite.
        assert calls["run_suite"] == [config]

    def test_batch_abstention_takes_the_per_kernel_loop(
        self, sg2042, calls, monkeypatch
    ):
        requests = [
            (sg2042, RunConfig(threads=1), KERNELS),
            (sg2042, RunConfig(threads=8), KERNELS),
        ]
        with reference_mode():
            expected = [run_suite(*request) for request in requests]
        calls["run_suite"].clear()
        real_grid = runner_mod.predict_grid
        scalar = []
        real_scalar = runner_mod.simulate_kernel

        def abstaining(cpu, kernels, *args, **kwargs):
            out = real_grid(cpu, kernels, *args, **kwargs)
            out.invalid[1, [k.name for k in kernels].index("GEMM")] = True
            return out

        def simulate(kernel, *args, **kwargs):
            scalar.append(kernel.name)
            return real_scalar(kernel, *args, **kwargs)

        monkeypatch.setattr(runner_mod, "predict_grid", abstaining)
        monkeypatch.setattr(runner_mod, "simulate_kernel", simulate)
        results = run_suites(requests)
        assert results == expected
        # Only the abstaining request went through run_suite, where
        # only the abstained kernel took the scalar model.
        assert calls["run_suite"] == [requests[1][1]]
        assert scalar == ["GEMM"]

    def test_cell_the_mask_rejects_raises_the_scalar_error(self, sg2042):
        # An infinite fork-join cost makes every multithreaded time
        # infinite, which the batch engine's mask rejects.
        cpu = replace(sg2042, fork_join_ns=math.inf)
        requests = [
            (cpu, RunConfig(threads=1, noise_sigma=0.0), KERNELS),
            (cpu, RunConfig(threads=8, noise_sigma=0.0), KERNELS),
        ]
        assert run_suites(requests[:1]) == [run_suite(*requests[0])]
        with reference_mode(), pytest.raises(SimulationError) as scalar:
            run_suite(*requests[1])
        with pytest.raises(SimulationError) as batch:
            run_suites(requests)
        assert str(batch.value) == str(scalar.value)
