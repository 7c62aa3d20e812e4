"""Compiler models: per-kernel auto-vectorization decisions.

Models the three toolchains in the paper: T-Head's XuanTie GCC fork
(the only compiler emitting RVV v0.7.1 for the C920), mainline GCC for
the x86 platforms, and Clang (RVV v1.0 only, requiring the RVV-rollback
tool from :mod:`repro.isa.rollback` to run on the C920).

The decision engine in :mod:`repro.compiler.vectorizer` reproduces the
published auto-vectorization statistics: GCC vectorizes 30 of the 64
RAJAPerf kernels (7 of which take the scalar path at runtime), Clang 59
(3 scalar at runtime) — Section 3.2, citing [11].
"""

from repro.compiler.model import (
    CLANG_16,
    Compiler,
    GCC_8_3,
    GCC_11_2,
    VectorFlavor,
    XUANTIE_GCC_8_4,
    compiler_by_name,
)
from repro.compiler.analysis import (
    DECISIVE_FEATURES,
    derive_features,
    features_agree,
)
from repro.compiler.ir import Loop, LoopNest
from repro.compiler.vectorizer import (
    VectorizationReport,
    analyze,
    analyze_suite,
    suite_statistics,
)

__all__ = [
    "Compiler",
    "VectorFlavor",
    "XUANTIE_GCC_8_4",
    "GCC_8_3",
    "GCC_11_2",
    "CLANG_16",
    "compiler_by_name",
    "VectorizationReport",
    "analyze",
    "analyze_suite",
    "suite_statistics",
    "derive_features",
    "features_agree",
    "DECISIVE_FEATURES",
    "Loop",
    "LoopNest",
]
