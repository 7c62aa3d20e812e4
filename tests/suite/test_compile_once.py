"""A sweep resolves its compile reports once, through the one LRU.

Every grid point of a sweep shares one compile configuration and
``analyze`` is pure, so a sweep looks its kernels' reports up once in
the process's :func:`~repro.compiler.vectorizer.analyze_suite` LRU, and
a repeated sweep compiles nothing. Counts start from a cleared LRU (the
``compile_counts`` fixture), so they hold in any test order.
"""

import sys
import threading

from repro import telemetry
from repro.compiler.vectorizer import analyze_suite
from repro.kernels.registry import get_kernel
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

    def test_a_scalar_sweep_resolves_each_point(self, sg2042,
                                                compile_counts):
        """The scalar engine predicts point by point, each point's
        ``run_suite`` resolving its reports through the LRU."""
        scalar = _sweep(sg2042, engine="scalar")
        assert scalar == _sweep(sg2042)
        assert compile_counts["analyze_suite"] == 24 + 1
        assert compile_counts["analyze"] == len(KERNELS)


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


class TestConcurrentMisses:
    def test_racing_misses_give_equal_results(self, sg2042):
        """Threads that miss the compile LRU together may each compile
        the suite; ``analyze`` is pure, so every result is the same."""
        config = RunConfig(threads=4)
        kernels = [get_kernel(name) for name in KERNELS]
        expected = run_suite(sg2042, config, kernels=kernels)
        analyze_suite.cache_clear()
        barrier = threading.Barrier(8, timeout=60)
        results = []

        def work():
            barrier.wait()
            results.append(run_suite(sg2042, config, kernels=kernels))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(results) == 8
        assert all(result == expected for result in results)
