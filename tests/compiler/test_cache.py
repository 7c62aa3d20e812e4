"""The one compile cache: ``analyze_suite``'s tables and a store tier.

``analyze_suite`` keeps each kernel's report in process memory, in a
table per compile configuration;
:class:`CompileCache` adds only the ``--store`` tier, one artifact per
suite. Both give exactly what ``analyze`` gives, kernel by kernel.
"""

from repro.compiler.cache import CompileCache
from repro.compiler.model import (
    CLANG_16,
    GCC_8_3,
    XUANTIE_GCC_8_4,
    VectorFlavor,
)
from repro.compiler.vectorizer import analyze, analyze_suite
from repro.kernels.registry import all_kernels
from repro.machine.vector import VectorISA, avx2, rvv_0_7_1, rvv_1_0
from repro.store import ArtifactStore

#: AVX2's name on a core without a vector unit: ``analyze`` compiles
#: nothing for it, so it must never share AVX2's reports.
NO_UNIT_AVX2 = VectorISA("AVX2", 0)


class TestSuiteLru:
    def test_reports_match_uncached_analyze(self):
        kernels = tuple(all_kernels())
        isa = rvv_0_7_1()
        assert analyze_suite(XUANTIE_GCC_8_4, kernels, isa) == tuple(
            analyze(XUANTIE_GCC_8_4, kernel, isa) for kernel in kernels
        )

    def test_repeat_returns_the_same_reports(self, compile_counts):
        kernels = tuple(all_kernels()[:6])
        first = analyze_suite(CLANG_16, kernels, rvv_1_0(),
                              VectorFlavor.VLA)
        second = analyze_suite(CLANG_16, kernels, rvv_1_0(),
                               VectorFlavor.VLA)
        assert all(a is b for a, b in zip(first, second))
        assert compile_counts["analyze"] == len(kernels)

    def test_failed_compilations_are_none(self):
        # Clang on RVV 0.7.1 without rollback fails for every kernel;
        # the caller re-runs each to raise its error.
        kernels = tuple(all_kernels()[:4])
        assert analyze_suite(CLANG_16, kernels, rvv_0_7_1()) == (
            None,
        ) * 4


class TestSameNamedIsa:
    """A target without a vector unit gets its own reports, whatever
    its name: ``analyze`` reads ``is_scalar_only``, so the keys do."""

    def _counts(self, reports):
        return sum(1 for report in reports if report.vectorized)

    def test_lru_keeps_them_apart(self):
        kernels = tuple(all_kernels())
        assert self._counts(analyze_suite(GCC_8_3, kernels, avx2())) == 30
        assert self._counts(
            analyze_suite(GCC_8_3, kernels, NO_UNIT_AVX2)
        ) == 0

    def test_two_caches_over_one_store(self, tmp_path):
        kernels = tuple(all_kernels())
        store = ArtifactStore(tmp_path / "store")
        CompileCache(store).analyze_suite(GCC_8_3, kernels, avx2())
        reports = CompileCache(store).analyze_suite(
            GCC_8_3, kernels, NO_UNIT_AVX2
        )
        assert reports == tuple(
            analyze(GCC_8_3, kernel, NO_UNIT_AVX2) for kernel in kernels
        )
        assert self._counts(reports) == 0
        assert store.artifact_count("compile") == 2


class TestStoreKey:
    def test_every_compile_input_gets_its_own_artifact(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        kernels = tuple(all_kernels()[:4])
        for args in (
            (XUANTIE_GCC_8_4, kernels, rvv_0_7_1()),
            (CLANG_16, kernels, rvv_0_7_1(), VectorFlavor.VLS, True),
            (CLANG_16, kernels, rvv_1_0()),
            (CLANG_16, kernels, rvv_1_0(), VectorFlavor.VLA),
            (XUANTIE_GCC_8_4, kernels[:3], rvv_0_7_1()),
        ):
            reports = CompileCache(store).analyze_suite(*args)
            assert reports == analyze_suite(*args)
        assert store.artifact_count("compile") == 5

    def test_failing_suites_are_not_stored(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        kernels = tuple(all_kernels()[:4])
        assert CompileCache(store).analyze_suite(
            CLANG_16, kernels, rvv_0_7_1()
        ) == (None,) * 4
        assert store.artifact_count("compile") == 0
