"""Auto-vectorization decision tests: every published statistic and
every kernel the paper names."""

import dataclasses
from types import MappingProxyType

import pytest

import repro.compiler.vectorizer as vectorizer
from repro.compiler.model import (
    CLANG_16,
    GCC_8_3,
    GCC_11_2,
    VectorFlavor,
    XUANTIE_GCC_8_4,
)
from repro.compiler.vectorizer import (
    analyze,
    analyze_suite,
    suite_statistics,
)
from repro.kernels.registry import (
    all_kernels,
    clear_tables,
    get_kernel,
    suite,
)
from repro.machine.vector import (
    VectorISA,
    avx2,
    rvv_0_7_1,
    rvv_1_0,
    scalar_only,
)
from repro.registry import default_registry
from repro.util.errors import CompilationError, ReproError

COMPILERS = (XUANTIE_GCC_8_4, GCC_8_3, GCC_11_2, CLANG_16)


@pytest.fixture(scope="module")
def kernels():
    return all_kernels()


class TestPublishedCounts:
    """Section 3.2 quoting [11]: GCC vectorizes 30/64 (7 runtime-scalar),
    Clang 59/64 (3 runtime-scalar)."""

    def test_gcc_counts(self, kernels):
        stats = suite_statistics(XUANTIE_GCC_8_4, kernels, rvv_0_7_1())
        assert stats == {
            "total": 64, "vectorized": 30, "runtime_scalar": 7
        }

    def test_clang_counts(self, kernels):
        stats = suite_statistics(
            CLANG_16, kernels, rvv_1_0(), rollback=True
        )
        assert stats == {
            "total": 64, "vectorized": 59, "runtime_scalar": 3
        }


class TestNamedKernels:
    """Kernels the paper names explicitly in Figure 3's discussion."""

    def gcc(self, name):
        return analyze(XUANTIE_GCC_8_4, get_kernel(name), rvv_0_7_1())

    def clang(self, name, flavor=VectorFlavor.VLS):
        return analyze(
            CLANG_16, get_kernel(name), rvv_0_7_1(),
            flavor=flavor, rollback=True,
        )

    def test_gcc_cannot_vectorize_floyd_warshall(self):
        assert not self.gcc("FLOYD_WARSHALL").vectorized

    def test_gcc_cannot_vectorize_heat_3d(self):
        assert not self.gcc("HEAT_3D").vectorized

    @pytest.mark.parametrize("name", ["JACOBI_1D", "JACOBI_2D"])
    def test_gcc_vectorizes_jacobi_but_scalar_at_runtime(self, name):
        report = self.gcc(name)
        assert report.vectorized
        assert not report.vector_path_executed

    @pytest.mark.parametrize("name", ["2MM", "3MM", "GEMM"])
    def test_clang_vectorizes_matmuls_but_scalar_at_runtime(self, name):
        report = self.clang(name)
        assert report.vectorized
        assert not report.vector_path_executed

    @pytest.mark.parametrize("name", ["2MM", "3MM", "GEMM"])
    def test_gcc_executes_vector_path_for_matmuls(self, name):
        report = self.gcc(name)
        assert report.effective

    def test_gcc_vectorizes_all_stream_kernels(self):
        """'The stream class is unique as GCC is able to vectorise all
        of its constituent kernels.'"""
        for name in ("ADD", "COPY", "DOT", "MUL", "TRIAD"):
            assert self.gcc(name).effective, name

    def test_clang_vectorizes_warshall_and_heat3d(self):
        assert self.clang("FLOYD_WARSHALL").effective
        assert self.clang("HEAT_3D").effective

    def test_jacobi_2d_clang_quirk_applied(self):
        report = self.clang("JACOBI_2D")
        assert report.effective
        assert report.efficiency < 0.25  # derated per Figure 3

    def test_vla_less_efficient_than_vls(self):
        vls = self.clang("FLOYD_WARSHALL", VectorFlavor.VLS)
        vla = self.clang("FLOYD_WARSHALL", VectorFlavor.VLA)
        assert vla.efficiency < vls.efficiency


class TestCompatibilityRules:
    def test_clang_without_rollback_rejected_on_c920(self):
        """'It is not possible to use Clang directly to compile code
        targeting the C920's RVV.'"""
        with pytest.raises(CompilationError, match="RVV-rollback"):
            analyze(CLANG_16, get_kernel("TRIAD"), rvv_0_7_1())

    def test_clang_with_rollback_accepted(self):
        report = analyze(
            CLANG_16, get_kernel("TRIAD"), rvv_0_7_1(), rollback=True
        )
        assert report.effective

    def test_clang_direct_on_rvv10_target(self):
        report = analyze(CLANG_16, get_kernel("TRIAD"), rvv_1_0())
        assert report.effective

    def test_gcc_cannot_emit_vla(self):
        with pytest.raises(CompilationError, match="VLA"):
            analyze(
                XUANTIE_GCC_8_4, get_kernel("TRIAD"), rvv_0_7_1(),
                flavor=VectorFlavor.VLA,
            )

    def test_scalar_target_never_vectorizes(self):
        report = analyze(GCC_8_3, get_kernel("TRIAD"), scalar_only())
        assert not report.vectorized
        assert "no vector unit" in report.reason

    def test_x86_gcc_on_avx2(self):
        report = analyze(GCC_8_3, get_kernel("TRIAD"), avx2())
        assert report.effective


class TestReports:
    def test_blocked_report_names_features(self):
        report = analyze(
            XUANTIE_GCC_8_4, get_kernel("SORT"), rvv_0_7_1()
        )
        assert "library_call" in report.reason

    def test_runtime_scalar_report_explains(self):
        report = analyze(
            XUANTIE_GCC_8_4, get_kernel("JACOBI_1D"), rvv_0_7_1()
        )
        assert "scalar path" in report.reason

    def test_efficiency_bounded(self, kernels):
        for kernel in kernels:
            report = analyze(XUANTIE_GCC_8_4, kernel, rvv_0_7_1())
            assert 0 < report.efficiency <= 1


class TestAnalyzeSuite:
    """``analyze_suite``: per-kernel ``analyze`` for a whole tuple, kept
    in a table per value of every input ``analyze`` reads but the
    kernel."""

    @pytest.mark.parametrize("rollback", [False, True])
    @pytest.mark.parametrize("flavor", list(VectorFlavor))
    @pytest.mark.parametrize("compiler", COMPILERS, ids=lambda c: c.name)
    def test_matches_per_kernel_analyze(self, kernels, compiler, flavor,
                                        rollback):
        isas = {
            cpu.core.isa for cpu in default_registry().machines().values()
        }
        suite = tuple(kernels)
        for isa in isas:
            entries = analyze_suite(compiler, suite, isa, flavor, rollback)
            assert len(entries) == len(suite)
            for kernel, entry in zip(suite, entries):
                try:
                    expected = analyze(compiler, kernel, isa, flavor,
                                       rollback)
                except ReproError:
                    assert entry is None
                else:
                    assert entry == expected

    def test_repeat_returns_the_same_tuple(self, kernels, compile_counts):
        """The suite gets the table's one tuple; any other list of its
        kernels the table's report objects, compiled once."""
        args = (XUANTIE_GCC_8_4,)
        isa = (rvv_0_7_1(), VectorFlavor.VLS, False)
        first = analyze_suite(*args, tuple(kernels), *isa)
        second = analyze_suite(*args, tuple(kernels[::-1]), *isa)
        assert all(a is b for a, b in zip(first, second[::-1]))
        whole = analyze_suite(*args, suite(), *isa)
        assert analyze_suite(*args, suite(), *isa) is whole
        assert whole == first
        assert compile_counts["analyze"] == len(kernels)

    def test_same_named_scalar_only_isa_gets_its_own_entry(self, kernels):
        suite = tuple(kernels)
        vector = analyze_suite(GCC_8_3, suite, avx2(), VectorFlavor.VLS,
                               False)
        no_unit = analyze_suite(GCC_8_3, suite, VectorISA("AVX2", 0),
                                VectorFlavor.VLS, False)
        assert sum(report.vectorized for report in vector) == 30
        assert not any(report.vectorized for report in no_unit)

    def test_compiler_differing_in_any_field_gets_its_own_entry(self):
        suite = (get_kernel("TRIAD"), get_kernel("JACOBI_2D"))
        variants = [
            dataclasses.replace(CLANG_16, **change) for change in (
                {"name": "Clang 17"},
                {"family": "gcc"},
                {"rvv_version": "0.7.1"},
                {"flavors": (VectorFlavor.VLS,)},
                {"blockers": frozenset()},
                {"runtime_scalar_features": frozenset()},
                {"vla_efficiency": 0.5},
                {"kernel_quirks": MappingProxyType({})},
            )
        ]
        assert len(variants) == len(dataclasses.fields(CLANG_16))
        clear_tables()
        for compiler in (CLANG_16, *variants):
            analyze_suite(compiler, suite, rvv_1_0(), VectorFlavor.VLS,
                          False)
        assert len(vectorizer._REPORTS) == len(variants) + 1

    @pytest.mark.parametrize("compiler", COMPILERS, ids=lambda c: c.name)
    def test_compiler_hash_agrees_with_equality(self, compiler):
        copy = dataclasses.replace(compiler)
        assert copy == compiler and hash(copy) == hash(compiler)
        as_dict = dataclasses.replace(
            compiler, kernel_quirks=dict(compiler.kernel_quirks)
        )
        assert as_dict == compiler and hash(as_dict) == hash(compiler)
