"""Unit tests for the per-kernel explain view."""

import re

import pytest

from repro import telemetry
from repro.kernels.registry import all_kernels
from repro.registry import registry_with_paths
from repro.suite.config import RunConfig
from repro.suite.explain import explain_kernel
from repro.suite.runner import run_suite
from repro.util.errors import ConfigError, ReproError
from repro.util.units import format_seconds

MACHINES = registry_with_paths(()).machines()

#: One predicted-times line: threads, placement, precision, time.
PREDICTED = re.compile(
    r"^ +(\d+) thread\(s\) (\w+) +(fp32|fp64): +(\S+) \("
)


class TestExplainKernel:
    def test_triad_sections(self, sg2042):
        text = explain_kernel("TRIAD", sg2042)
        for section in ("characterization:", "loop features",
                        "compilation on the C920", "roofline",
                        "predicted times"):
            assert section in text

    def test_reports_scalar_fp64_vector_fp32(self, sg2042):
        text = explain_kernel("TRIAD", sg2042)
        assert "fp64" in text and "scalar path" in text
        assert "fp32" in text and "vector path" in text

    def test_gemm_compute_bound(self, sg2042):
        text = explain_kernel("GEMM", sg2042)
        assert "compute-bound" in text

    def test_sort_not_vectorized(self, sg2042):
        text = explain_kernel("SORT", sg2042)
        assert "not vectorized: library_call" in text

    def test_halo_region_count_shown(self, sg2042):
        text = explain_kernel("HALOEXCHANGE", sg2042)
        assert "parallel regions/rep: 36" in text

    def test_unknown_kernel(self, sg2042):
        with pytest.raises(ConfigError):
            explain_kernel("NOPE", sg2042)

    def test_text_ignores_the_telemetry_session(self, sg2042):
        plain = explain_kernel("TRIAD", sg2042)
        with telemetry.telemetry_session():
            traced = explain_kernel("TRIAD", sg2042)
        assert traced == plain
        assert "telemetry:" not in traced


class TestEveryRegistryMachine:
    """Every kernel explains on every registry machine, the SG2044
    (RVV 1.0, which XuanTie GCC 8.4 cannot target) included, and each
    predicted time is the default-configuration ``run_suite``
    prediction."""

    @pytest.mark.parametrize("name", sorted(MACHINES))
    def test_every_kernel_explains(self, name):
        cpu = MACHINES[name]
        for kernel in all_kernels():
            text = explain_kernel(kernel.name, cpu)
            assert f"predicted times on {cpu.name}:" in text

    @pytest.mark.parametrize("name", sorted(MACHINES))
    def test_predicted_times_are_run_suite_predictions(self, name):
        cpu = MACHINES[name]
        kernels = all_kernels()
        expected = {}
        for threads in sorted({1, 32, cpu.num_cores}):
            for placement, precision in (
                ("block", "fp64"), ("block", "fp32"),
                ("cluster", "fp32"),
            ):
                config = RunConfig(
                    threads=threads, placement=placement,
                    precision=precision, runs=1, noise_sigma=0.0,
                )
                try:
                    result = run_suite(cpu, config, kernels=kernels)
                except ReproError:
                    continue  # explain shows this configuration as a gap
                for run in result.runs.values():
                    expected[
                        (run.kernel_name, threads, placement, precision)
                    ] = format_seconds(run.prediction.seconds)
        checked = 0
        for kernel in kernels:
            text = explain_kernel(kernel.name, cpu)
            section = text.split("predicted times on", 1)[1]
            for line in section.splitlines()[1:]:
                if "prediction failed" in line:
                    continue
                threads, placement, precision, shown = (
                    PREDICTED.match(line).groups()
                )
                key = (kernel.name, int(threads), placement, precision)
                assert shown == expected[key], (line, key)
                checked += 1
        assert checked >= 2 * len(kernels)

    def test_compiler_that_cannot_target_is_a_gap(self):
        text = explain_kernel("TRIAD", MACHINES["sophon_sg2044"])
        assert (
            "  XuanTie GCC 8.4: compilation failed (CompilationError: "
            in text
        )
        assert "  Clang 16 (+rollback): vectorized" in text
        assert "prediction failed" not in text


class TestExperimentDeterminism:
    def test_experiments_render_identically_across_runs(self):
        """The whole pipeline is deterministic: two invocations of an
        experiment must render byte-identical output."""
        from repro.experiments import EXPERIMENTS

        for name in ("figure2", "table4"):
            a = EXPERIMENTS[name](fast=True).render()
            b = EXPERIMENTS[name](fast=True).render()
            assert a == b, name

    def test_full_fidelity_matches_noise_seeding(self):
        """Even with noise enabled, seeding makes repeated full runs
        identical."""
        from repro.experiments import EXPERIMENTS

        assert (
            EXPERIMENTS["figure2"]().render()
            == EXPERIMENTS["figure2"]().render()
        )
