"""The auto-vectorization decision engine.

``analyze`` answers, for (compiler, kernel, target ISA): did the compiler
emit vector code, does the vector path actually execute at runtime, with
which flavour, and at what efficiency. The performance model multiplies
the resulting efficiency into the kernel's vector throughput.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro import telemetry
from repro.compiler.model import Compiler, VectorFlavor
from repro.kernels.base import Kernel
from repro.machine.vector import VectorISA
from repro.util.errors import CompilationError, ReproError


@dataclass(frozen=True)
class VectorizationReport:
    """Outcome of compiling one kernel with one compiler for one target.

    Attributes:
        vectorized: The compiler emitted a vector code path.
        vector_path_executed: The vector path actually runs (False when
            the runtime version check or cost model picks scalar).
        flavor: VLS or VLA when vectorized, else None.
        efficiency: Multiplier in (0, 1] on the kernel's ideal vector
            throughput (flavour penalty x compiler quirks x the kernel's
            own vector_speedup_cap). 1.0-meaningless when not executed.
        reason: Human-readable explanation for reports and tests.
    """

    vectorized: bool
    vector_path_executed: bool
    flavor: VectorFlavor | None
    efficiency: float
    reason: str

    def __hash__(self) -> int:
        # Reports key several hot caches (compile cache, batch-engine
        # prelude); the generated dataclass hash re-walks the fields —
        # including a Python-level enum hash — on every lookup. Compute
        # once, cache on the (frozen) instance. Matches field equality.
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((
                self.vectorized, self.vector_path_executed, self.flavor,
                self.efficiency, self.reason,
            ))
            object.__setattr__(self, "_hash", cached)
        return cached

    @property
    def effective(self) -> bool:
        """True when vector code actually executes at runtime."""
        return self.vectorized and self.vector_path_executed


def analyze(
    compiler: Compiler,
    kernel: Kernel,
    target: VectorISA,
    flavor: VectorFlavor = VectorFlavor.VLS,
    rollback: bool = False,
) -> VectorizationReport:
    """Decide how ``kernel`` compiles for ``target`` with ``compiler``.

    ``rollback=True`` means the RVV-rollback tool rewrites the emitted
    assembly to the target's RVV version (the paper's mechanism for
    running Clang output on the C920). Incompatible RVV versions without
    rollback raise :class:`CompilationError` — exactly the situation the
    paper describes: "it is not possible to use Clang directly to compile
    code targeting the C920's RVV".
    """
    if not compiler.supports_flavor(flavor):
        raise CompilationError(
            f"{compiler.name} cannot emit {flavor.value.upper()} code"
        )

    # Scalar-only targets (SiFive U74) never get vector code.
    if target.is_scalar_only:
        return VectorizationReport(
            vectorized=False,
            vector_path_executed=False,
            flavor=None,
            efficiency=1.0,
            reason=f"target {target.name} has no vector unit",
        )

    # RVV version compatibility (RVV targets only).
    if compiler.rvv_version is not None and target.version is not None:
        if compiler.rvv_version != target.version and not rollback:
            raise CompilationError(
                f"{compiler.name} emits RVV v{compiler.rvv_version} but "
                f"target implements RVV v{target.version}; "
                "use the RVV-rollback tool"
            )

    blocking = compiler.blockers & kernel.traits.features
    if blocking:
        names = ", ".join(sorted(f.value for f in blocking))
        return VectorizationReport(
            vectorized=False,
            vector_path_executed=False,
            flavor=None,
            efficiency=1.0,
            reason=f"not vectorized: {names}",
        )

    runtime_scalar = bool(
        compiler.runtime_scalar_features & kernel.traits.features
    )
    efficiency = kernel.traits.vector_speedup_cap
    if flavor is VectorFlavor.VLA:
        efficiency *= compiler.vla_efficiency
    quirk = compiler.kernel_quirks.get(kernel.name)
    if quirk is not None:
        efficiency *= quirk
    efficiency = max(1e-6, min(1.0, efficiency))

    if runtime_scalar:
        feats = compiler.runtime_scalar_features & kernel.traits.features
        names = ", ".join(sorted(f.value for f in feats))
        reason = f"vectorized but scalar path executes at runtime ({names})"
    else:
        reason = f"vectorized, {flavor.value.upper()} path executes"

    return VectorizationReport(
        vectorized=True,
        vector_path_executed=not runtime_scalar,
        flavor=flavor,
        efficiency=efficiency,
        reason=reason,
    )


@lru_cache(maxsize=256)
def analyze_suite(
    compiler: Compiler,
    kernels: tuple[Kernel, ...],
    target: VectorISA,
    flavor: VectorFlavor = VectorFlavor.VLS,
    rollback: bool = False,
) -> tuple[VectorizationReport | None, ...]:
    """:func:`analyze` for a whole kernel tuple, one entry per kernel.

    An entry is ``None`` where :func:`analyze` raises a
    :class:`~repro.util.errors.ReproError`; the caller re-runs that
    kernel alone to surface the error. LRU-cached on every input
    ``analyze`` reads, by value (kernels by identity, as registry
    kernels are shared instances), so a suite compiled once per
    configuration is reused at every thread count and placement, and a
    repeated call returns the same tuple of the same report objects.

    This LRU is the process's one in-memory compile cache. Its body
    runs only on a miss, so under a telemetry session each kernel it
    compiles records one ``compile.analyze`` span. Two threads that
    miss together may both compile the suite; ``analyze`` is pure, so
    their results are equal.
    """
    rec = telemetry.recorder()
    traced = rec.active
    out: list[VectorizationReport | None] = []
    for kernel in kernels:
        try:
            if traced:
                with rec.span(
                    "compile.analyze", kernel=kernel.name,
                    flavor=flavor.value, rollback=rollback,
                ):
                    report = analyze(compiler, kernel, target, flavor,
                                     rollback)
            else:
                report = analyze(compiler, kernel, target, flavor, rollback)
        except ReproError:
            report = None
        out.append(report)
    return tuple(out)


def suite_statistics(
    compiler: Compiler,
    kernels: list[Kernel],
    target: VectorISA,
    flavor: VectorFlavor = VectorFlavor.VLS,
    rollback: bool = False,
) -> dict[str, int]:
    """Aggregate vectorization statistics over a kernel list — the
    numbers the paper quotes from [11]: vectorized count and how many of
    those execute the scalar path at runtime."""
    vectorized = 0
    runtime_scalar = 0
    for kernel in kernels:
        report = analyze(compiler, kernel, target, flavor, rollback)
        if report.vectorized:
            vectorized += 1
            if not report.vector_path_executed:
                runtime_scalar += 1
    return {
        "total": len(kernels),
        "vectorized": vectorized,
        "runtime_scalar": runtime_scalar,
    }
