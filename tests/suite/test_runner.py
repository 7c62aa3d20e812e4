"""Suite runner tests."""

from dataclasses import replace

import pytest

import repro.compiler.vectorizer as vectorizer
import repro.perfmodel.batch as batch
import repro.suite.runner as runner
from repro.compiler.vectorizer import analyze
from repro.kernels.base import KernelClass
from repro.kernels.registry import (
    all_kernels,
    clear_tables,
    get_kernel,
    kernels_in_class,
)
from repro.machine.vector import DType
from repro.perfmodel.placement import reference_mode
from repro.resilience.retry import FailureRecord, RetrySpec
from repro.suite.config import RunConfig
from repro.suite.runner import SuiteResult, run_suite, verify_kernel
from repro.suite.sweep import sweep
from repro.util.errors import ConfigError


@pytest.fixture(scope="module")
def sg_result(sg2042):
    return run_suite(sg2042, RunConfig(threads=1, precision="fp32"))


class TestRunSuite:
    def test_covers_all_64_kernels(self, sg_result):
        assert len(sg_result.runs) == 64

    def test_times_positive(self, sg_result):
        assert all(r.seconds > 0 for r in sg_result.runs.values())

    def test_deterministic(self, sg2042):
        cfg = RunConfig(threads=2, precision="fp32")
        a = run_suite(sg2042, cfg)
        b = run_suite(sg2042, cfg)
        for name in a.runs:
            assert a.time(name) == b.time(name)

    def test_noise_averaging_close_to_model(self, sg2042):
        noisy = run_suite(
            sg2042, RunConfig(threads=1, noise_sigma=0.02, runs=5)
        )
        exact = run_suite(
            sg2042, RunConfig(threads=1, noise_sigma=0.0, runs=1)
        )
        for name in noisy.runs:
            assert noisy.time(name) == pytest.approx(
                exact.time(name), rel=0.1
            )

    def test_kernel_subset(self, sg2042):
        stream = kernels_in_class(KernelClass.STREAM)
        result = run_suite(sg2042, RunConfig(), kernels=stream)
        assert set(result.runs) == {"ADD", "COPY", "DOT", "MUL", "TRIAD"}

    def test_empty_kernel_list_rejected(self, sg2042):
        with pytest.raises(ConfigError):
            run_suite(sg2042, RunConfig(), kernels=[])

    def test_time_lookup_unknown_kernel(self, sg_result):
        with pytest.raises(ConfigError):
            sg_result.time("NOPE")

    def test_class_means_cover_all_classes(self, sg_result):
        means = sg_result.class_means()
        assert set(means) == set(KernelClass)
        assert all(v > 0 for v in means.values())

    def test_vectorize_false_runs_scalar(self, sg2042):
        result = run_suite(
            sg2042, RunConfig(threads=1, vectorize=False)
        )
        assert not any(
            r.prediction.vector_executed for r in result.runs.values()
        )

    def test_size_scale_shrinks_footprints(self, sg2042):
        big = run_suite(sg2042, RunConfig(noise_sigma=0.0, runs=1))
        small = run_suite(
            sg2042,
            RunConfig(noise_sigma=0.0, runs=1, size_scale=0.1),
        )
        assert small.time("TRIAD") < big.time("TRIAD")

    def test_total_seconds(self, sg_result):
        assert sg_result.total_seconds() == pytest.approx(
            sum(r.seconds for r in sg_result.runs.values())
        )


class TestSharedKernelInstances:
    """Any instance of a suite class stands for the class's rows in the
    per-configuration tables; a shim with traits of its own keeps
    them."""

    def test_shim_keeps_its_own_traits(self, sg2042):
        kernel = get_kernel("TRIAD")
        shim = type(kernel)()
        shim.traits = replace(
            kernel.traits, reads_per_iter=kernel.traits.reads_per_iter * 4
        )
        config = RunConfig(threads=8, noise_sigma=0.0, runs=1)
        plain = run_suite(sg2042, config, kernels=[kernel]).time("TRIAD")
        shimmed = run_suite(sg2042, config, kernels=[shim]).time("TRIAD")
        assert shimmed != plain
        with reference_mode():
            scalar = run_suite(sg2042, config, kernels=[shim])
        assert shimmed == scalar.time("TRIAD")
        (point,) = sweep(
            sg2042, [shim], threads=(8,), precisions=(config.precision,)
        ).points
        assert point.seconds == shimmed

    def test_fresh_lists_leave_one_table_per_configuration(self, sg2042):
        """Fresh kernel lists, the default suite and a sweep share one
        compile table, one lowering and one prelude table (one machine,
        one precision), whose rows are the suite's 64 kernels."""
        clear_tables()
        config = RunConfig(threads=4)

        def calls():
            run_suite(sg2042, config)
            run_suite(sg2042, config, kernels=all_kernels())
            sweep(sg2042, all_kernels(), threads=(1, 4))

        def tables():
            return [tables.tables() for tables in (
                vectorizer._REPORTS, batch._LOWERING, batch._PRELUDES,
            )]

        calls()
        held = tables()
        assert [len(each) for each in held] == [1, 1, 1]
        (prelude,) = held[2]
        assert len(prelude) == 64
        for _ in range(3):
            calls()
        assert tables() == held
        assert len(prelude) == 64


class TestSuiteCompileReuse:
    """Uncached suites compile once per compile configuration: every
    thread count and placement reuses one tuple of report objects."""

    def test_thread_counts_share_reports_without_analyze(
        self, sg2042, monkeypatch
    ):
        first = run_suite(sg2042, RunConfig(threads=1))
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1].name)
            return analyze(*args, **kwargs)

        # The compile table's binding and the per-kernel path's.
        monkeypatch.setattr(vectorizer, "analyze", counting)
        monkeypatch.setattr(runner, "analyze", counting)
        second = run_suite(sg2042, RunConfig(threads=64))
        assert calls == []
        assert all(
            second.runs[name].report is run.report
            for name, run in first.runs.items()
        )

    def test_failed_compilations_keep_the_policy_loop(self, sg2042):
        # XuanTie GCC cannot emit VLA: every kernel's entry is None, so
        # each one fails in the per-kernel loop, retries included.
        config = RunConfig(flavor="vla")
        kernels = [get_kernel("TRIAD"), get_kernel("DOT")]
        retry = RetrySpec(max_retries=2)
        batch = run_suite(sg2042, config, kernels=kernels, policy="retry",
                          retry=retry)
        with reference_mode():
            scalar = run_suite(sg2042, config, kernels=kernels,
                               policy="retry", retry=retry)
        assert batch == scalar
        assert [f.attempts for f in batch.failures] == [3, 3]
        assert all("VLA" in f.message for f in batch.failures)


class TestSuiteResultEdgeCases:
    def test_empty_result_rejected(self, sg_result):
        with pytest.raises(ConfigError, match="no kernels"):
            SuiteResult(
                cpu_name="x", config=RunConfig(), runs={}
            )

    def test_empty_runs_allowed_with_failures(self):
        record = FailureRecord(
            kernel="TRIAD", error_type="TransientError",
            message="flake", attempts=3,
        )
        result = SuiteResult(
            cpu_name="x", config=RunConfig(), runs={},
            failures=(record,),
        )
        assert result.total_seconds() == 0.0
        assert result.class_means() == {}
        assert result.total_attempts() == 3

    def test_time_is_case_insensitive(self, sg_result):
        assert sg_result.time("triad") == sg_result.time("TRIAD")
        assert sg_result.time("Triad") == sg_result.time("TRIAD")

    def test_unknown_kernel_message_names_kernel(self, sg_result):
        with pytest.raises(ConfigError, match="NOPE"):
            sg_result.time("NOPE")

    def test_failed_kernels_empty_on_clean_run(self, sg_result):
        assert sg_result.failed_kernels() == {}

    def test_attempts_default_to_one(self, sg_result):
        assert all(r.attempts == 1 for r in sg_result.runs.values())
        assert sg_result.total_attempts() == 64


class TestVerifyKernel:
    def test_returns_finite_checksum(self):
        value = verify_kernel(get_kernel("TRIAD"), 1000, DType.FP64)
        assert value == value  # not NaN

    def test_all_kernels_verify_both_precisions(self, kernels):
        for kernel in kernels:
            for precision in (DType.FP32, DType.FP64):
                verify_kernel(kernel, 512, precision, reps=2)

    def test_validation(self):
        with pytest.raises(ConfigError):
            verify_kernel(get_kernel("TRIAD"), 0, DType.FP64)
