"""Golden equivalence: the fast path is bit-identical to the reference.

The prediction engine's fast path stacks two optimizations — placement
symmetry-class dedup and the batch engine's whole-grid pass. Neither is
allowed to change a single bit of any result. These tests pin that
contract against the naive reference (:func:`reference_mode`), across
all 64 kernels, the SG2042 and an x86 catalog machine, block/cyclic
placements and a resumed checkpoint.
"""

import pytest

from repro.resilience import chaos
from repro.resilience.faults import transient_plan
from repro.kernels.registry import all_kernels
from repro.perfmodel.placement import reference_mode
from repro.suite.config import Placement, Precision, RunConfig
from repro.suite.runner import run_suite
from repro.suite.sweep import sweep

THREADS = (1, 5, 8, 64)
PLACEMENTS = (Placement.BLOCK, Placement.CYCLIC)
PRECISIONS = (Precision.FP32, Precision.FP64)


def reference_sweep(cpu, **kwargs):
    """The pre-optimization behaviour: per-core scans, one scalar
    prediction per kernel and grid point."""
    with reference_mode():
        return sweep(
            cpu,
            kernels=all_kernels(),
            threads=THREADS,
            placements=PLACEMENTS,
            precisions=PRECISIONS,
            **kwargs,
        )


def fast_sweep(cpu, **kwargs):
    return sweep(
        cpu,
        kernels=all_kernels(),
        threads=THREADS,
        placements=PLACEMENTS,
        precisions=PRECISIONS,
        **kwargs,
    )


@pytest.fixture(scope="module")
def sg_reference(sg2042):
    return reference_sweep(sg2042)


class TestSweepEquivalence:
    def test_serial_fast_sweep_bit_identical(self, sg2042, sg_reference):
        fast = fast_sweep(sg2042)
        # Equality compares every float of every point exactly.
        assert fast == sg_reference

    def test_x86_machine_bit_identical(self, amd_rome):
        assert fast_sweep(amd_rome) == reference_sweep(amd_rome)

    def test_resumed_checkpoint_bit_identical(
        self, sg2042, sg_reference, tmp_path
    ):
        ckpt = tmp_path / "sweep.jsonl"
        fast_sweep(sg2042, checkpoint=ckpt)
        # Simulate a mid-grid kill: drop the latter half of the record
        # lines, keeping the header, then resume.
        lines = ckpt.read_text().splitlines()
        assert len(lines) > 3
        keep = 1 + (len(lines) - 1) // 2
        ckpt.write_text("\n".join(lines[:keep]) + "\n")
        resumed = fast_sweep(sg2042, checkpoint=ckpt)
        assert resumed == sg_reference

    def test_compile_cache_compiles_each_kernel_exactly_once(
        self, sg2042, compile_counts
    ):
        fast_sweep(sg2042)
        # One flavor/rollback per sweep: one resolution of 64 kernels.
        assert compile_counts["analyze_suite"] == 1
        assert compile_counts["analyze"] == 64


class TestSuiteEquivalence:
    def test_run_suite_matches_reference(self, sg2042):
        config = RunConfig(threads=8, placement=Placement.BLOCK)
        with reference_mode():
            ref = run_suite(sg2042, config)
        fast = run_suite(sg2042, config)
        assert fast.runs == ref.runs
        assert fast == ref

    def test_noise_path_unchanged_by_short_circuit(self, sg2042):
        # sigma == 0 short-circuits the noise averaging; a nonzero
        # sigma must still consult the seeded RNG and perturb times.
        quiet = run_suite(sg2042, RunConfig(threads=2, noise_sigma=0.0))
        noisy = run_suite(
            sg2042, RunConfig(threads=2, noise_sigma=0.05, runs=3)
        )
        assert quiet.time("TRIAD") != noisy.time("TRIAD")


class TestChaosInteraction:
    def test_compile_cache_works_under_active_fault_plan(
        self, sg2042, compile_counts
    ):
        config = RunConfig(threads=2)
        # Probability zero: the plan injects nothing but stays active.
        # The compile cache is still safe (compilation has no RUN-site
        # fault hook) and keeps working under the plan.
        with chaos.inject_faults(transient_plan(seed=7, probability=0.0)):
            result = run_suite(sg2042, config)
        assert compile_counts["analyze"] == 64
        assert result == run_suite(sg2042, config)
        assert compile_counts["analyze"] == 64

    def test_sweep_under_inert_fault_plan_matches(self, sg2042):
        kernels = all_kernels()[:4]
        with chaos.inject_faults(transient_plan(seed=7, probability=0.0)):
            guarded = sweep(sg2042, kernels=kernels, threads=(1, 8))
        plain = sweep(sg2042, kernels=kernels, threads=(1, 8))
        assert guarded == plain
