"""Run configuration: one point in the paper's experiment space.

A configuration pins everything Section 3 varies: thread count, placement
policy, precision, whether vectorization is enabled, which compiler and
vector flavour produced the binary, and whether the RVV-rollback tool was
applied (required to run Clang output on the C920).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from repro.compiler.model import (
    CLANG_16,
    Compiler,
    GCC_8_3,
    GCC_11_2,
    VectorFlavor,
    XUANTIE_GCC_8_4,
    compiler_by_name,
)
from repro.machine.cpu import CPUModel
from repro.machine.vector import DType
from repro.openmp.affinity import PlacementPolicy
from repro.util.errors import ConfigError, as_int

#: Public aliases matching the paper's vocabulary.
Precision = DType
Placement = PlacementPolicy

#: The paper averages every reported result over five runs.
DEFAULT_RUNS = 5


def as_member(kind: type[Placement] | type[Precision], value):
    """``value`` as a :data:`Placement` or :data:`Precision` member (the
    ``kind``): a string is a member's label (``"cyclic"``, ``"fp32"``),
    and anything else is returned as it is."""
    return kind.from_label(value) if isinstance(value, str) else value


def _as_float(name: str, value: object) -> float:
    """``value`` as a Python float; bools and non-reals raise
    :class:`ConfigError` naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{name} must be finite, got {value!r}") from None


@dataclass(frozen=True)
class RunConfig:
    """One benchmark configuration.

    Attributes:
        threads: OpenMP thread count.
        precision: FP32 or FP64 (multithreaded runs in the paper use
            FP32; figure comparisons use both).
        placement: Thread placement policy (Tables 1-3).
        vectorize: Whether vector code generation is enabled; ``False``
            models ``-fno-tree-vectorize`` builds (Figure 2 baseline).
        compiler: Compiler short id, or ``None`` to use the platform
            default (XuanTie GCC 8.4 on RVV 0.7.1 targets, GCC 11.2 on
            AMD Rome/ARCHER2, GCC 8.3 elsewhere — Section 3.3).
        flavor: VLS or VLA vector code (Figure 3; GCC only emits VLS).
        rollback: Apply the RVV-rollback tool to run RVV v1.0 assembly
            on a v0.7.1 core.
        runs: Simulated repetitions to average (paper: 5).
        noise_sigma: Lognormal run-to-run noise; 0 for exact model output.
        size_scale: Multiplier on every kernel's default problem size.
    """

    threads: int = 1
    precision: Precision = Precision.FP64
    placement: Placement = Placement.BLOCK
    vectorize: bool = True
    compiler: str | None = None
    flavor: VectorFlavor = VectorFlavor.VLS
    rollback: bool = False
    runs: int = DEFAULT_RUNS
    noise_sigma: float = 0.02
    size_scale: float = 1.0

    def __post_init__(self) -> None:
        # Accept string shorthands ("fp32", "cyclic", "vla") for
        # ergonomic CLI/example use.
        object.__setattr__(
            self, "precision", as_member(Precision, self.precision)
        )
        object.__setattr__(
            self, "placement", as_member(Placement, self.placement)
        )
        if isinstance(self.flavor, str):
            object.__setattr__(
                self, "flavor", VectorFlavor(self.flavor.lower())
            )
        # Both counts seed the noise by ``repr`` and size its (kernel,
        # run) matrix, so they are stored as plain ints: ``True``,
        # ``2.0`` and ``np.int64(8)`` must not pass for 1, 2 and 8.
        for name in ("threads", "runs"):
            object.__setattr__(self, name, as_int(name, getattr(self, name)))
        if self.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {self.threads}")
        if self.precision not in (DType.FP32, DType.FP64):
            raise ConfigError(
                "precision must be FP32 or FP64 (the suite's run modes)"
            )
        if self.runs < 1:
            raise ConfigError(f"runs must be >= 1, got {self.runs}")
        # Flags and reals are stored as plain ``bool`` and ``float`` for
        # the same reason: the noise seed hashes ``repr(vectorize)`` and
        # flags are read by truthiness, so ``1``, ``np.True_`` or
        # ``"false"`` must not pass for a flag, nor ``True`` for a sigma.
        for name in ("vectorize", "rollback"):
            value = getattr(self, name)
            if type(value) is not bool:
                if not isinstance(value, np.bool_):
                    raise ConfigError(
                        f"{name} must be a bool, got {value!r}"
                    )
                object.__setattr__(self, name, bool(value))
        for name in ("noise_sigma", "size_scale"):
            value = getattr(self, name)
            if type(value) is not float:
                object.__setattr__(self, name, _as_float(name, value))
        # ``nan < 0`` is false, so finiteness needs its own check.
        if not math.isfinite(self.noise_sigma) or self.noise_sigma < 0:
            raise ConfigError(
                f"noise_sigma must be finite and >= 0, "
                f"got {self.noise_sigma}"
            )
        if not math.isfinite(self.size_scale) or self.size_scale <= 0:
            raise ConfigError(
                f"size_scale must be finite and positive, "
                f"got {self.size_scale}"
            )
        if self.compiler is not None:
            if not isinstance(self.compiler, str):
                raise ConfigError(
                    f"compiler must be a compiler id string or None, "
                    f"got {self.compiler!r}"
                )
            compiler_by_name(self.compiler)  # validates

    def with_threads(self, threads: int, placement: Placement | None = None
                     ) -> "RunConfig":
        """Derive a config differing only in thread count/placement."""
        if placement is None:
            return replace(self, threads=threads)
        return replace(self, threads=threads, placement=placement)

    def resolve_compiler(self, cpu: CPUModel) -> Compiler:
        """The compiler used for ``cpu`` under this config.

        Defaults follow the paper: XuanTie GCC 8.4 for RVV v0.7.1 cores
        (the only toolchain emitting v0.7.1), GCC 11.2 on ARCHER2's AMD
        Rome, GCC 8.3 everywhere else. Native RVV v1.0 cores (the
        SG2044's C930 — a registry machine, not a paper one) default to
        Clang 16, the toolchain that emits v1.0 directly, with no
        rollback needed. The shipped registry decision table
        (``registry/data/compilers/paper_defaults.json``) restates these
        rules and is cross-checked against this method by
        ``repro lint --registry``.
        """
        if self.compiler is not None:
            comp = compiler_by_name(self.compiler)
        elif cpu.core.isa.version == "0.7.1":
            comp = XUANTIE_GCC_8_4
        elif cpu.core.isa.version == "1.0":
            comp = CLANG_16
        elif cpu.part == "EPYC 7742":
            comp = GCC_11_2
        else:
            comp = GCC_8_3
        if (
            comp is CLANG_16
            and cpu.core.isa.version == "0.7.1"
            and not self.rollback
        ):
            raise ConfigError(
                "Clang emits RVV v1.0 only; enable rollback=True to run "
                "its output on the C920 (the paper's RVV-rollback flow)"
            )
        return comp
