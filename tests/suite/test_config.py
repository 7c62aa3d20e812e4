"""RunConfig tests."""

import numpy as np
import pytest

from repro.compiler.model import (
    CLANG_16,
    GCC_8_3,
    GCC_11_2,
    VectorFlavor,
    XUANTIE_GCC_8_4,
)
from repro.machine.vector import DType
from repro.openmp.affinity import PlacementPolicy
from repro.suite.config import RunConfig
from repro.suite.runner import run_suite
from repro.util.errors import ConfigError


class TestConstruction:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.threads == 1
        assert cfg.precision is DType.FP64
        assert cfg.placement is PlacementPolicy.BLOCK
        assert cfg.runs == 5  # the paper's averaging

    def test_string_shorthands(self):
        cfg = RunConfig(precision="fp32", placement="cluster", flavor="vla")
        assert cfg.precision is DType.FP32
        assert cfg.placement is PlacementPolicy.CLUSTER
        assert cfg.flavor is VectorFlavor.VLA

    def test_int_precision_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(precision="int32")

    def test_bad_threads_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(threads=0)

    def test_bad_compiler_rejected_eagerly(self):
        with pytest.raises(ConfigError):
            RunConfig(compiler="icc")

    @pytest.mark.parametrize(
        "sigma", [-0.1, float("nan"), float("inf"), float("-inf")]
    )
    def test_bad_noise_sigma_rejected(self, sigma):
        with pytest.raises(ConfigError, match="noise_sigma"):
            RunConfig(noise_sigma=sigma)

    @pytest.mark.parametrize(
        "scale", [0.0, -1.0, float("nan"), float("inf"), float("-inf")]
    )
    def test_bad_size_scale_rejected(self, scale):
        with pytest.raises(ConfigError, match="size_scale"):
            RunConfig(size_scale=scale)

    def test_zero_sigma_and_tiny_scale_accepted(self):
        cfg = RunConfig(noise_sigma=0.0, size_scale=1e-9)
        assert cfg.noise_sigma == 0.0
        assert cfg.size_scale == 1e-9

    def test_with_threads(self):
        cfg = RunConfig(threads=1).with_threads(8, PlacementPolicy.CYCLIC)
        assert cfg.threads == 8
        assert cfg.placement is PlacementPolicy.CYCLIC

    @pytest.mark.parametrize("field", ["threads", "runs"])
    @pytest.mark.parametrize(
        "value", [True, False, 2.0, 3.0, 2.5, "5", None, np.float64(4.0)]
    )
    def test_non_int_counts_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            RunConfig(**{field: value})

    @pytest.mark.parametrize("field", ["threads", "runs"])
    def test_numpy_int_counts_stored_as_int(self, field):
        cfg = RunConfig(**{field: np.int64(8)})
        assert type(getattr(cfg, field)) is int
        assert cfg == RunConfig(**{field: 8})

    def test_numpy_int_threads_seed_like_int(self, sg2042):
        assert run_suite(sg2042, RunConfig(threads=np.int64(8))) == (
            run_suite(sg2042, RunConfig(threads=8))
        )

    @pytest.mark.parametrize("field", ["vectorize", "rollback"])
    @pytest.mark.parametrize(
        "value", [1, 0, 1.0, np.int64(1), "yes", "false", "", None]
    )
    def test_non_bool_flags_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            RunConfig(**{field: value})

    @pytest.mark.parametrize("field", ["vectorize", "rollback"])
    @pytest.mark.parametrize("value", [np.True_, np.False_])
    def test_numpy_bool_flags_stored_as_bool(self, field, value):
        cfg = RunConfig(**{field: value})
        assert type(getattr(cfg, field)) is bool
        assert cfg == RunConfig(**{field: bool(value)})

    def test_numpy_bool_vectorize_seeds_like_bool(self, sg2042):
        assert run_suite(sg2042, RunConfig(vectorize=np.True_)) == (
            run_suite(sg2042, RunConfig())
        )

    @pytest.mark.parametrize("field", ["noise_sigma", "size_scale"])
    @pytest.mark.parametrize(
        "value", [True, False, np.True_, "0.02", None, 1j, 10**400]
    )
    def test_non_real_or_bool_reals_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            RunConfig(**{field: value})

    @pytest.mark.parametrize("field", ["noise_sigma", "size_scale"])
    @pytest.mark.parametrize("value", [1, np.int64(1), np.float32(0.5)])
    def test_reals_stored_as_float(self, field, value):
        cfg = RunConfig(**{field: value})
        assert type(getattr(cfg, field)) is float
        assert cfg == RunConfig(**{field: float(value)})

    @pytest.mark.parametrize("value", [5, 5.0, b"gcc-8.3", ("gcc-8.3",)])
    def test_non_string_compiler_rejected(self, value):
        with pytest.raises(ConfigError, match="compiler"):
            RunConfig(compiler=value)


class TestCompilerResolution:
    """Section 2.1/3.3 toolchain selection."""

    def test_sg2042_defaults_to_xuantie_gcc(self, sg2042):
        assert RunConfig().resolve_compiler(sg2042) is XUANTIE_GCC_8_4

    def test_rome_uses_gcc_11_2(self, amd_rome):
        """'We use GCC version 8.3 on all systems apart from ARCHER2,
        where GCC version 11.2 is used.'"""
        assert RunConfig().resolve_compiler(amd_rome) is GCC_11_2

    def test_other_x86_use_gcc_8_3(
        self, intel_broadwell, intel_icelake, intel_sandybridge
    ):
        for cpu in (intel_broadwell, intel_icelake, intel_sandybridge):
            assert RunConfig().resolve_compiler(cpu) is GCC_8_3

    def test_visionfive_uses_gcc_8_3(self, visionfive_v2):
        assert RunConfig().resolve_compiler(visionfive_v2) is GCC_8_3

    def test_clang_on_c920_requires_rollback(self, sg2042):
        cfg = RunConfig(compiler="clang-16")
        with pytest.raises(ConfigError, match="rollback"):
            cfg.resolve_compiler(sg2042)

    def test_clang_with_rollback_resolves(self, sg2042):
        cfg = RunConfig(compiler="clang-16", rollback=True)
        assert cfg.resolve_compiler(sg2042) is CLANG_16

    def test_explicit_compiler_wins(self, sg2042):
        cfg = RunConfig(compiler="gcc-8.3")
        assert cfg.resolve_compiler(sg2042) is GCC_8_3
