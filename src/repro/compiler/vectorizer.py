"""The auto-vectorization decision engine.

``analyze`` answers, for (compiler, kernel, target ISA): did the compiler
emit vector code, does the vector path actually execute at runtime, with
which flavour, and at what efficiency. The performance model multiplies
the resulting efficiency into the kernel's vector throughput.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro import telemetry
from repro.compiler.model import Compiler, VectorFlavor
from repro.kernels.base import Kernel
from repro.kernels.registry import SuiteTables, suite, suite_positions
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


class _ReportTable:
    """One compile configuration's reports, one row per suite kernel.

    A row holds the kernel's report, ``None`` where :func:`analyze`
    raised, or ``_UNSET`` until a request brings the kernel. Rows are
    set once, under ``lock``, so every request sees one report object
    per kernel; reads take no lock. ``whole`` is the rows as one tuple
    once none is unset.
    """

    __slots__ = ("rows", "unset", "whole", "lock")

    def __init__(self, key) -> None:
        self.rows: list = [_UNSET] * len(suite())
        self.unset = len(self.rows)
        self.whole: tuple | None = None
        self.lock = threading.Lock()

    def fill(self, positions, entry) -> None:
        """Set each unset row of ``positions`` to ``entry(position)``."""
        rows = self.rows
        with self.lock:
            for i in positions:
                if rows[i] is _UNSET:
                    rows[i] = entry(i)
                    self.unset -= 1
            if not self.unset and self.whole is None:
                self.whole = tuple(rows)


_UNSET = object()

#: Compile reports per (compiler, target ISA, flavour, rollback).
_REPORTS = SuiteTables(_ReportTable)


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
    kernel alone to surface the error.

    Suite kernels resolve through the process's one in-memory compile
    cache: a table per compile configuration (every input ``analyze``
    reads but the kernel) with one row per suite kernel
    (:class:`~repro.kernels.registry.SuiteTables`). A request fills
    the rows it brings that the table lacks, so each kernel is compiled
    once per compile configuration whatever kernel lists arrive, and is
    the same report object in every result; the whole suite is the
    table's one tuple. Under a telemetry session each compilation
    records one ``compile.analyze`` span. Kernels outside the suite
    (:func:`~repro.kernels.registry.suite_positions`) compile on every
    call.
    """
    if kernels is suite():
        positions = range(len(kernels))
    else:
        positions = suite_positions(kernels)
        if positions is None:
            rec = telemetry.recorder()
            rec = rec if rec.active else None
            return tuple(
                _analyze_entry(compiler, kernel, target, flavor, rollback,
                               rec)
                for kernel in kernels
            )
    table = _REPORTS((compiler, target, flavor, rollback))
    rows = table.rows
    if table.whole is None and any(rows[i] is _UNSET for i in positions):
        shared = suite()
        rec = telemetry.recorder()
        rec = rec if rec.active else None
        table.fill(positions, lambda i: _analyze_entry(
            compiler, shared[i], target, flavor, rollback, rec
        ))
    if kernels is suite():
        # A fill sets ``whole`` after its last row: a reader that found
        # every row set may still be ahead of it.
        whole = table.whole
        return tuple(rows) if whole is None else whole
    return tuple([rows[i] for i in positions])


def intern_reports(
    compiler: Compiler,
    kernels: tuple[Kernel, ...],
    target: VectorISA,
    flavor: VectorFlavor,
    rollback: bool,
    reports: tuple[VectorizationReport, ...],
) -> tuple[VectorizationReport, ...]:
    """``reports`` of ``kernels`` (read from elsewhere, such as a
    ``--store`` composite), with each one equal to the report
    :func:`analyze` already put in its compile table row replaced by
    that row's object.

    The table is never filled from ``reports``: a row the table lacks,
    or one that differs (a stale artifact), leaves the given report as
    it is, so a request without a store always gets :func:`analyze`'s
    reports.
    """
    positions = suite_positions(kernels)
    if positions is None:
        return reports
    rows = _REPORTS((compiler, target, flavor, rollback)).rows
    return tuple([
        row if row is report or row == report else report
        for row, report in zip(map(rows.__getitem__, positions), reports)
    ])


def _analyze_entry(
    compiler: Compiler,
    kernel: Kernel,
    target: VectorISA,
    flavor: VectorFlavor,
    rollback: bool,
    rec,
) -> VectorizationReport | None:
    """:func:`analyze`, in a ``compile.analyze`` span on ``rec`` (the
    active recorder, or ``None`` when telemetry is off); ``None`` where
    it raises a :class:`~repro.util.errors.ReproError`."""
    try:
        if rec is None:
            return analyze(compiler, kernel, target, flavor, rollback)
        with rec.span(
            "compile.analyze", kernel=kernel.name, flavor=flavor.value,
            rollback=rollback,
        ):
            return analyze(compiler, kernel, target, flavor, rollback)
    except ReproError:
        return None


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
