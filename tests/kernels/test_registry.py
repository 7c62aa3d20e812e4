"""Registry tests: the suite must match Section 2.2 exactly."""

import pytest

from repro.kernels.base import KernelClass
from repro.kernels.registry import (
    EXPECTED_CLASS_SIZES,
    all_kernels,
    get_kernel,
    kernel_names,
    kernels_in_class,
    suite,
    suite_positions,
)
from repro.util.errors import ConfigError


class TestSuiteComposition:
    """The paper: 64 kernels in six classes (6/13/16/11/13/5)."""

    def test_total_is_64(self, kernels):
        assert len(kernels) == 64

    def test_class_sizes(self):
        for klass, expected in EXPECTED_CLASS_SIZES.items():
            assert len(kernels_in_class(klass)) == expected, klass

    def test_unique_names(self, kernels):
        names = [k.name for k in kernels]
        assert len(set(names)) == 64

    def test_every_kernel_belongs_to_its_class(self):
        for klass in KernelClass:
            for kernel in kernels_in_class(klass):
                assert kernel.klass is klass

    def test_named_kernels_present(self, kernels_by_name):
        # The kernels the paper names explicitly.
        for name in (
            "MEMSET", "DAXPY", "REDUCE3_INT", "2MM", "3MM", "GEMM",
            "FLOYD_WARSHALL", "HEAT_3D", "JACOBI_1D", "JACOBI_2D",
            "TRIAD", "FIR", "HALOEXCHANGE", "TRIDIAG_ELIM", "ADI",
        ):
            assert name in kernels_by_name


class TestLookup:
    def test_get_kernel_case_insensitive(self):
        assert get_kernel("daxpy").name == "DAXPY"

    def test_get_kernel_unknown(self):
        with pytest.raises(ConfigError):
            get_kernel("NOT_A_KERNEL")

    def test_kernels_in_class_by_label(self):
        assert len(kernels_in_class("stream")) == 5

    def test_kernels_in_class_bad_label(self):
        with pytest.raises(ConfigError):
            kernels_in_class("streamz")

    def test_kernel_names_order_stable(self):
        assert kernel_names() == [k.name for k in all_kernels()]

    def test_fresh_instances(self):
        assert get_kernel("TRIAD") is not get_kernel("TRIAD")


class TestSuitePositions:
    def test_one_instance_per_class(self):
        """``suite()`` is built once; any instance of a suite class
        stands at its class's position."""
        assert suite() is suite()
        assert [k.name for k in suite()] == kernel_names()
        assert suite_positions(all_kernels()) == list(range(64))
        assert suite_positions(suite()[::-1]) == list(range(64))[::-1]

    def test_instances_with_own_attributes_have_no_position(self):
        shim = get_kernel("TRIAD")
        shim.reps = 1
        assert suite_positions([shim]) is None
        assert suite_positions([get_kernel("DOT"), shim]) is None

    def test_classes_outside_the_suite_have_no_position(self):
        from repro.kernels.blas import blas_kernel_types

        dgemm = blas_kernel_types()["DGEMM"]()
        assert suite_positions([dgemm]) is None


class TestTraitsSanity:
    def test_all_traits_valid(self, kernels):
        for kernel in kernels:
            traits = kernel.traits
            assert traits.flops_per_iter >= 0, kernel.name
            assert (
                traits.reads_per_iter + traits.writes_per_iter > 0
            ), kernel.name
            assert 0 < traits.parallel_fraction <= 1, kernel.name

    def test_default_sizes_positive(self, kernels):
        for kernel in kernels:
            assert kernel.default_size >= 1
            assert kernel.reps >= 1

    def test_arithmetic_intensity_consistency(self, kernels_by_name):
        from repro.machine.vector import DType

        triad = kernels_by_name["TRIAD"].traits
        # 2 flops over 24 bytes at FP64.
        assert triad.arithmetic_intensity(DType.FP64) == pytest.approx(
            2 / 24
        )
        assert triad.arithmetic_intensity(DType.FP32) == pytest.approx(
            2 / 12
        )

    def test_integer_kernel_flag(self, kernels_by_name):
        assert kernels_by_name["REDUCE3_INT"].traits.integer_kernel
        assert not kernels_by_name["DAXPY"].traits.integer_kernel

    def test_footprints_scale_with_size(self, kernels):
        from repro.machine.vector import DType

        for kernel in kernels:
            small = kernel.footprint_bytes(1000, DType.FP64)
            large = kernel.footprint_bytes(2000, DType.FP64)
            assert large == pytest.approx(2 * small), kernel.name
