"""Compile cache: exactly-once compilation, identical reports/errors."""

import pytest

from repro.compiler.cache import CompileCache, compile_key
from repro.compiler.model import (
    CLANG_16,
    GCC_8_3,
    XUANTIE_GCC_8_4,
    VectorFlavor,
)
from repro.compiler.vectorizer import analyze
from repro.kernels.registry import all_kernels, get_kernel
from repro.machine.vector import VectorISA, avx2, rvv_0_7_1, rvv_1_0
from repro.store import ArtifactStore
from repro.util.errors import CompilationError

#: AVX2's name on a core without a vector unit: ``analyze`` compiles
#: nothing for it, so it must never share AVX2's reports.
NO_UNIT_AVX2 = VectorISA("AVX2", 0)


class TestCompileCache:
    def test_hit_returns_the_same_report_object(self):
        cache = CompileCache()
        kernel = get_kernel("TRIAD")
        first = cache.analyze(XUANTIE_GCC_8_4, kernel, rvv_0_7_1())
        second = cache.analyze(XUANTIE_GCC_8_4, kernel, rvv_0_7_1())
        assert second is first
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.entries == 1
        assert cache.stats.calls == 2

    def test_reports_match_uncached_analyze(self):
        cache = CompileCache()
        isa = rvv_0_7_1()
        for kernel in all_kernels():
            assert cache.analyze(
                XUANTIE_GCC_8_4, kernel, isa
            ) == analyze(XUANTIE_GCC_8_4, kernel, isa)

    def test_distinct_flavors_are_distinct_entries(self):
        cache = CompileCache()
        kernel = get_kernel("TRIAD")
        vls = cache.analyze(
            CLANG_16, kernel, rvv_1_0(), flavor=VectorFlavor.VLS
        )
        vla = cache.analyze(
            CLANG_16, kernel, rvv_1_0(), flavor=VectorFlavor.VLA
        )
        assert cache.stats.misses == 2
        assert vls is not vla

    def test_errors_reraise_and_are_not_cached(self):
        # Clang on RVV 0.7.1 without rollback cannot target the ISA;
        # every call must fail afresh rather than poison the cache.
        cache = CompileCache()
        kernel = get_kernel("TRIAD")
        for _ in range(2):
            with pytest.raises(CompilationError):
                cache.analyze(CLANG_16, kernel, rvv_0_7_1(), rollback=False)
        assert cache.stats.entries == 0
        assert cache.stats.misses == 0

    def test_clear_resets_everything(self):
        cache = CompileCache()
        cache.analyze(XUANTIE_GCC_8_4, get_kernel("TRIAD"), rvv_0_7_1())
        cache.clear()
        assert cache.stats == type(cache.stats)(hits=0, misses=0, entries=0)

    def test_key_covers_everything_analyze_reads(self):
        kernel = get_kernel("TRIAD")
        base = compile_key(
            XUANTIE_GCC_8_4, kernel, rvv_0_7_1(), VectorFlavor.VLS, False
        )
        varied = [
            compile_key(CLANG_16, kernel, rvv_0_7_1(),
                        VectorFlavor.VLS, False),
            compile_key(XUANTIE_GCC_8_4, get_kernel("DOT"), rvv_0_7_1(),
                        VectorFlavor.VLS, False),
            compile_key(XUANTIE_GCC_8_4, kernel, rvv_1_0(),
                        VectorFlavor.VLS, False),
            compile_key(XUANTIE_GCC_8_4, kernel, rvv_0_7_1(),
                        VectorFlavor.VLA, False),
            compile_key(XUANTIE_GCC_8_4, kernel, rvv_0_7_1(),
                        VectorFlavor.VLS, True),
            compile_key(XUANTIE_GCC_8_4, kernel,
                        VectorISA("RVV v0.7.1", 0, version="0.7.1"),
                        VectorFlavor.VLS, False),
        ]
        assert len({base, *varied}) == len(varied) + 1


class TestSameNamedIsa:
    """A target without a vector unit gets its own reports, whatever
    its name: ``analyze`` reads ``is_scalar_only``, so the keys do."""

    def _counts(self, reports):
        return sum(1 for report in reports if report.vectorized)

    def test_in_memory_composite_and_per_key(self):
        kernels = tuple(all_kernels())
        cache = CompileCache()
        assert self._counts(
            cache.analyze_suite(GCC_8_3, kernels, avx2())
        ) == 30
        assert self._counts(
            cache.analyze_suite(GCC_8_3, kernels, NO_UNIT_AVX2)
        ) == 0
        report = cache.analyze(GCC_8_3, get_kernel("TRIAD"), NO_UNIT_AVX2)
        assert report == analyze(GCC_8_3, get_kernel("TRIAD"), NO_UNIT_AVX2)
        assert not report.vectorized

    def test_two_caches_over_one_store(self, tmp_path):
        kernels = tuple(all_kernels())
        store = ArtifactStore(tmp_path / "store")
        CompileCache(store=store).analyze_suite(GCC_8_3, kernels, avx2())
        assert not CompileCache(store=store).analyze(
            GCC_8_3, get_kernel("TRIAD"), NO_UNIT_AVX2
        ).vectorized
        reports = CompileCache(store=store).analyze_suite(
            GCC_8_3, kernels, NO_UNIT_AVX2
        )
        assert reports == [
            analyze(GCC_8_3, kernel, NO_UNIT_AVX2) for kernel in kernels
        ]
        assert self._counts(reports) == 0


class TestSuiteResolution:
    """Bulk resolution: ``analyze_many`` and the composite fast path."""

    def test_analyze_many_matches_looped_analyze(self):
        cache = CompileCache()
        kernels = all_kernels()
        reports = cache.analyze_many(XUANTIE_GCC_8_4, kernels, rvv_0_7_1())
        loop = CompileCache()
        for kernel, report in zip(kernels, reports):
            assert report == loop.analyze(XUANTIE_GCC_8_4, kernel, rvv_0_7_1())
        assert cache.stats == loop.stats

    def test_analyze_many_yields_none_for_failed_compilations(self):
        # Clang on RVV 0.7.1 without rollback fails for every kernel;
        # the batch returns None placeholders and caches nothing.
        cache = CompileCache()
        kernels = all_kernels()[:4]
        reports = cache.analyze_many(CLANG_16, kernels, rvv_0_7_1())
        assert reports == [None] * 4
        assert cache.stats.entries == 0
        assert cache.stats.misses == 0

    def test_analyze_suite_counters_match_per_kernel_loop(self):
        kernels = tuple(all_kernels())
        suite = CompileCache()
        for _ in range(3):
            suite.analyze_suite(XUANTIE_GCC_8_4, kernels, rvv_0_7_1())
        loop = CompileCache()
        for _ in range(3):
            for kernel in kernels:
                loop.analyze(XUANTIE_GCC_8_4, kernel, rvv_0_7_1())
        assert suite.stats == loop.stats
        assert suite.stats.misses == len(kernels)
        assert suite.stats.hits == 2 * len(kernels)

    def test_analyze_suite_composite_hit_returns_equal_reports(self):
        kernels = tuple(all_kernels())
        cache = CompileCache()
        first = cache.analyze_suite(XUANTIE_GCC_8_4, kernels, rvv_0_7_1())
        second = cache.analyze_suite(XUANTIE_GCC_8_4, kernels, rvv_0_7_1())
        assert second == first
        assert all(a is b for a, b in zip(first, second))

    def test_analyze_suite_never_caches_failing_lists(self):
        cache = CompileCache()
        kernels = tuple(all_kernels()[:4])
        for _ in range(2):
            reports = cache.analyze_suite(CLANG_16, kernels, rvv_0_7_1())
            assert reports == [None] * 4
        assert cache.stats.hits == 0

    def test_clear_drops_composites_too(self):
        kernels = tuple(all_kernels())
        cache = CompileCache()
        cache.analyze_suite(XUANTIE_GCC_8_4, kernels, rvv_0_7_1())
        cache.clear()
        cache.analyze_suite(XUANTIE_GCC_8_4, kernels, rvv_0_7_1())
        assert cache.stats.hits == 0
        assert cache.stats.misses == len(kernels)
