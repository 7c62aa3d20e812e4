"""A sweep resolves its compile reports once, through the one table.

Every grid point of a sweep shares one compile configuration and
``analyze`` is pure, so a sweep looks its kernels' reports up once in
the process's compile table
(:func:`~repro.compiler.vectorizer.analyze_suite`), also where the
scalar model predicts it point by point, and a repeated sweep compiles
nothing. Counts start from empty tables (the
``compile_counts`` fixture), so they hold in any test order.
"""

import sys
import threading

import pytest

from repro import telemetry
from repro.kernels.registry import clear_tables, get_kernel
from repro.perfmodel.placement import reference_mode
from repro.resilience import chaos
from repro.resilience.faults import transient_plan
from repro.suite.config import Placement, Precision, RunConfig
from repro.suite.runner import run_suite
from repro.suite.sweep import sweep

KERNELS = ("TRIAD", "GEMM", "DOT", "COPY", "PI_REDUCE", "JACOBI_2D")
#: 24 grid points.
GRID = dict(
    threads=(1, 4, 8, 16, 32, 64),
    placements=(Placement.BLOCK, Placement.CYCLIC),
    precisions=(Precision.FP32, Precision.FP64),
)


def _sweep(cpu, **kwargs):
    return sweep(cpu, [get_kernel(name) for name in KERNELS], **GRID,
                 **kwargs)


class TestResolveOnce:
    def test_a_grid_resolves_once(self, sg2042, compile_counts):
        result = _sweep(sg2042)
        assert len(result.rows) == 24
        assert compile_counts["analyze_suite"] == 1
        assert compile_counts["analyze"] == len(KERNELS)

    def test_a_repeated_sweep_compiles_nothing(self, sg2042,
                                               compile_counts):
        first = _sweep(sg2042)
        compiled = compile_counts["analyze"]
        second = _sweep(sg2042)
        assert second == first
        assert compiled == len(KERNELS)
        assert compile_counts["analyze"] == compiled

    def test_a_resumed_sweep_resolves_once(self, sg2042, compile_counts,
                                           tmp_path):
        full = _sweep(sg2042)
        ckpt = tmp_path / "sweep.jsonl"
        _sweep(sg2042, checkpoint=ckpt)
        # A mid-grid kill: keep the header and half the records, so
        # points resume whole, in part and not at all.
        lines = ckpt.read_text().splitlines()
        ckpt.write_text("\n".join(lines[:1 + (len(lines) - 1) // 2])
                        + "\n")
        before = compile_counts["analyze_suite"]
        resumed = _sweep(sg2042, checkpoint=ckpt)
        assert compile_counts["analyze_suite"] == before + 1
        assert resumed.points == full.points

    @pytest.mark.parametrize("mode", ["chaos", "reference"])
    def test_an_unbatched_sweep_resolves_once(self, sg2042, mode,
                                              compile_counts):
        """A chaos plan and ``reference_mode()`` keep a sweep off the
        batch engine: the scalar model predicts point by point, but the
        grid resolves its reports once and hands each point's
        ``run_suite`` its entries, with no prediction."""
        if mode == "chaos":
            # A plan that injects nothing still forces the scalar path.
            context = chaos.inject_faults(
                transient_plan(seed=7, probability=0.0)
            )
        else:
            context = reference_mode()
        with context:
            unbatched = _sweep(sg2042)
        assert compile_counts["analyze_suite"] == 1
        assert compile_counts["analyze"] == len(KERNELS)
        assert unbatched == _sweep(sg2042)


class TestCompileSpans:
    def test_one_resolve_and_one_analyze_per_kernel(self, sg2042,
                                                    compile_counts):
        with telemetry.telemetry_session():
            first = _sweep(sg2042)
            second = _sweep(sg2042)
        phases = first.telemetry.phase_counts
        assert phases["compile.resolve"] == 1
        assert phases["compile.analyze"] == len(KERNELS)
        assert second.telemetry.phase_counts["compile.resolve"] == 1
        assert "compile.analyze" not in second.telemetry.phase_counts
        assert second == first

    def test_a_scalar_sweep_records_one_resolve(self, sg2042,
                                                compile_counts):
        with telemetry.telemetry_session(), reference_mode():
            scalar = _sweep(sg2042)
        phases = scalar.telemetry.phase_counts
        assert len(scalar.rows) == 24
        assert phases["compile.resolve"] == 1
        assert phases["compile.analyze"] == len(KERNELS)
        assert phases["suite.run"] == 24


class TestConcurrentMisses:
    def test_racing_misses_give_equal_results(self, sg2042):
        """Eight threads that fill one empty table together, each with
        its own kernel list, get the results of a filled table: rows
        are set once, under the table's lock."""
        config = RunConfig(threads=4)
        lists = [
            [get_kernel(name) for name in KERNELS[i % len(KERNELS):]
             + KERNELS[:i % len(KERNELS)]][: 2 + i % 5]
            for i in range(8)
        ]
        expected = [run_suite(sg2042, config, kernels=kernels)
                    for kernels in lists]
        clear_tables()
        barrier = threading.Barrier(8, timeout=60)
        results = {}

        def work(i):
            barrier.wait()
            results[i] = run_suite(sg2042, config, kernels=lists[i])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,))
                       for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert [results[i] for i in range(8)] == expected
