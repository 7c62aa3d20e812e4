"""Compiler descriptions and their vectorization rule sets.

Each compiler is a frozen description: which loop features block its
auto-vectorizer, which features make it emit a runtime-versioned loop
whose scalar path wins at runtime, which RVV flavour(s) it can emit, and
per-kernel efficiency quirks the paper measured.

The blocker sets are a *reconstruction*: the paper reports only the
aggregate counts (GCC 30/64 vectorized with 7 runtime-scalar; Clang 59/64
with 3) plus the named kernels of Figure 3. Any rule set consistent with
those observations is admissible; ours is chosen to be microarchitecturally
plausible (e.g. GCC 8 really cannot vectorize float min/max without
-ffast-math, really does runtime alias versioning on stencils) and is
pinned by tests against all the published facts.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

from repro.kernels.base import LoopFeature
from repro.util.errors import ConfigError


class VectorFlavor(enum.Enum):
    """How vector code is generated for a scalable-vector ISA.

    VLS (Vector Length Specific) hard-codes the 128-bit width of the
    C920; VLA (Vector Length Agnostic) strip-mines with ``vsetvli``.
    The paper finds VLS tends to outperform VLA on the C920 (Figure 3).
    """

    VLS = "vls"
    VLA = "vla"


@dataclass(frozen=True)
class Compiler:
    """A compiler as the performance model sees it.

    Attributes:
        name: Display name (``"GCC 8.4 (XuanTie)"``).
        family: ``"gcc"`` or ``"clang"``; rules are family-wide.
        rvv_version: RVV spec version of emitted RISC-V vector assembly
            (``"0.7.1"`` for the XuanTie fork, ``"1.0"`` for Clang,
            ``None`` for x86-only compilers).
        flavors: Vector flavours the compiler can emit (GCC: VLS only;
            Clang: both).
        blockers: Loop features that defeat auto-vectorization.
        runtime_scalar_features: Features that cause the emitted
            runtime-versioned loop to take the scalar path in practice.
        vla_efficiency: Multiplier on vector throughput when emitting VLA
            (strip-mining/vsetvli overhead); 1.0 for VLS.
        kernel_quirks: Per-kernel vector-efficiency multipliers encoding
            measured anomalies (e.g. Clang's JACOBI_2D regression on the
            C920, Figure 3).
    """

    name: str
    family: str
    rvv_version: str | None
    flavors: tuple[VectorFlavor, ...]
    blockers: frozenset[LoopFeature]
    runtime_scalar_features: frozenset[LoopFeature]
    vla_efficiency: float = 0.85
    kernel_quirks: Mapping[str, float] = field(
        default_factory=lambda: MappingProxyType({})
    )

    def __post_init__(self) -> None:
        if self.family not in ("gcc", "clang"):
            raise ConfigError(f"unknown compiler family {self.family!r}")
        if not self.flavors:
            raise ConfigError(f"{self.name}: needs at least one flavor")
        if not 0 < self.vla_efficiency <= 1:
            raise ConfigError(
                f"{self.name}: vla_efficiency must be in (0, 1]"
            )
        for kernel, factor in self.kernel_quirks.items():
            if factor <= 0:
                raise ConfigError(
                    f"{self.name}: quirk for {kernel} must be positive"
                )

    def __hash__(self) -> int:
        # The generated dataclass hash fails on the ``kernel_quirks``
        # mappingproxy; hash its sorted items instead (equal mappings,
        # equal hashes). Compilers key the suite compile LRU, so compute
        # once and cache on the (frozen) instance.
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((
                self.name, self.family, self.rvv_version, self.flavors,
                self.blockers, self.runtime_scalar_features,
                self.vla_efficiency,
                tuple(sorted(self.kernel_quirks.items())),
            ))
            object.__setattr__(self, "_hash", cached)
        return cached

    def supports_flavor(self, flavor: VectorFlavor) -> bool:
        return flavor in self.flavors


#: GCC's auto-vectorizer (version 8 era, as shipped in the XuanTie fork
#: and on the x86 hosts): defeated by control flow, indirection, true
#: dependences, atomics, non-unit strides, libm calls, float min/max
#: (NaN semantics without -ffast-math) and reductions nested in loops.
_GCC_BLOCKERS = frozenset(
    {
        LoopFeature.CONDITIONAL,
        LoopFeature.INDIRECTION,
        LoopFeature.LOOP_CARRIED_DEP,
        LoopFeature.ATOMIC,
        LoopFeature.SCAN_DEP,
        LoopFeature.LIBRARY_CALL,
        LoopFeature.TRIANGULAR,
        LoopFeature.NONUNIT_STRIDE,
        LoopFeature.MATH_CALL,
        LoopFeature.NESTED_REDUCTION,
    }
)

#: GCC emits runtime alias checks for stencils it cannot disambiguate;
#: those loops execute the scalar version in practice ([11] found 7 such
#: kernels).
_GCC_RUNTIME_SCALAR = frozenset({LoopFeature.ALIAS_UNPROVABLE})

#: Clang vectorizes nearly everything — predication for conditionals,
#: gathers for indirection, privatized reductions for atomics — but not
#: library sorts, prefix scans or true recurrences.
_CLANG_BLOCKERS = frozenset(
    {
        LoopFeature.LIBRARY_CALL,
        LoopFeature.SCAN_DEP,
        LoopFeature.LOOP_CARRIED_DEP,
    }
)

#: Clang's cost model rejects the vector path at runtime for the
#: inner-product matmuls (2MM/3MM/GEMM — Figure 3).
_CLANG_RUNTIME_SCALAR = frozenset({LoopFeature.SMALL_INNER_TRIP})


XUANTIE_GCC_8_4 = Compiler(
    name="GCC 8.4 (XuanTie)",
    family="gcc",
    rvv_version="0.7.1",
    flavors=(VectorFlavor.VLS,),
    blockers=_GCC_BLOCKERS,
    runtime_scalar_features=_GCC_RUNTIME_SCALAR,
)

GCC_8_3 = Compiler(
    name="GCC 8.3",
    family="gcc",
    rvv_version=None,
    flavors=(VectorFlavor.VLS,),
    blockers=_GCC_BLOCKERS,
    runtime_scalar_features=_GCC_RUNTIME_SCALAR,
)

GCC_11_2 = Compiler(
    name="GCC 11.2",
    family="gcc",
    rvv_version=None,
    flavors=(VectorFlavor.VLS,),
    blockers=_GCC_BLOCKERS,
    runtime_scalar_features=_GCC_RUNTIME_SCALAR,
)

CLANG_16 = Compiler(
    name="Clang 16",
    family="clang",
    rvv_version="1.0",
    flavors=(VectorFlavor.VLS, VectorFlavor.VLA),
    blockers=_CLANG_BLOCKERS,
    runtime_scalar_features=_CLANG_RUNTIME_SCALAR,
    vla_efficiency=0.85,
    kernel_quirks=MappingProxyType(
        {
            # Figure 3: JACOBI_2D runs *slower* with Clang than GCC on
            # the C920 even though GCC executes its scalar path —
            # contrary to [11]'s C906 result. Encoded as a strong
            # vector-efficiency derating of Clang's codegen for this
            # kernel (its vector code loses to scalar on the C920).
            "JACOBI_2D": 0.18,
        }
    ),
)

_BY_NAME = {
    "xuantie-gcc-8.4": XUANTIE_GCC_8_4,
    "gcc-8.3": GCC_8_3,
    "gcc-11.2": GCC_11_2,
    "clang-16": CLANG_16,
}


def compiler_by_name(name: str) -> Compiler:
    """Look up a compiler by its short id (``"clang-16"``)."""
    key = name.lower()
    if key not in _BY_NAME:
        raise ConfigError(
            f"unknown compiler {name!r}; known: {sorted(_BY_NAME)}"
        )
    return _BY_NAME[key]
