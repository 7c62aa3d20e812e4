"""Keyed memoization of the vectorizer's compilation analysis.

``analyze`` is a pure function of (compiler, kernel, target ISA, vector
flavour, rollback) — it never depends on threads, placement, precision
or run count. A sweep grid therefore recompiles every kernel once per
grid point for no reason: a 6-thread-counts x 2-placements x
2-precisions grid performs 24x redundant compilations per kernel. A
:class:`CompileCache` collapses those to exactly one compilation per
distinct key and counts its hits/misses so sweeps can prove it
(``SweepResult.cache_stats``).

The cache computes under its lock, so a key is compiled **exactly
once** even when serve's engine threads race on it — that exactly-once
property is what the acceptance counters pin. Compilation *errors* (e.g.
an RVV version mismatch without rollback) are intentionally not cached;
they re-raise identically on every call and sit on cold paths.

With an :class:`~repro.store.ArtifactStore` attached the cache gains a
*disk tier*: a memory miss probes the store before compiling, and every
fresh compilation is written through, so ``analyze()`` results survive
process restarts (``repro sweep --store DIR``).
Disk hits are counted separately from memory hits — ``stats.hits``
keeps meaning "served from this process's memory" — and any unusable
artifact degrades to recompute with a :class:`~repro.store.StoreWarning`.
"""

from __future__ import annotations

import threading
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro import telemetry
from repro.compiler.model import Compiler, VectorFlavor
from repro.compiler.vectorizer import VectorizationReport, analyze
from repro.kernels.base import Kernel
from repro.machine.vector import VectorISA
from repro.util.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store import ArtifactStore

#: One compilation's identity: everything ``analyze`` reads.
CompileKey = tuple[
    str, str | None, str, str, str | None, bool, VectorFlavor, bool
]


def compile_key(
    compiler: Compiler,
    kernel: Kernel,
    target: VectorISA,
    flavor: VectorFlavor,
    rollback: bool,
) -> CompileKey:
    """Key identifying one compilation.

    Compilers and kernels are registry singletons keyed by unique names;
    the target ISA contributes its name, version and whether it has a
    vector unit at all, so custom machines with re-tuned ISAs of the
    same name still collide only when equal in the fields ``analyze``
    consults.
    """
    return (
        compiler.name,
        compiler.rvv_version,
        kernel.name,
        target.name,
        target.version,
        target.is_scalar_only,
        flavor,
        rollback,
    )


@dataclass(frozen=True)
class CompileCacheStats:
    """Counters of one :class:`CompileCache` at a point in time.

    ``hits`` are memory hits only; ``disk_hits`` count entries served
    from the attached artifact store (zero when no store is attached).
    """

    hits: int
    misses: int
    entries: int
    disk_hits: int = 0

    @property
    def calls(self) -> int:
        return self.hits + self.disk_hits + self.misses


class CompileCache:
    """Thread-safe memo of :func:`repro.compiler.vectorizer.analyze`.

    ``store`` attaches an optional disk tier (see the module docstring);
    without one the cache behaves exactly as before.
    """

    def __init__(self, store: "ArtifactStore | None" = None) -> None:
        self._lock = threading.Lock()
        self._entries: dict[CompileKey, VectorizationReport] = {}
        # Suite-level composite index: one entry per fully-resolved
        # (compiler, kernel tuple, target, flavor, rollback) list, so a
        # sweep's 2nd..Nth grid point resolves its whole kernel list in
        # one lookup instead of len(kernels) per-key probes. Pure index
        # over ``_entries`` — never counted in ``stats.entries``.
        self._suites: dict[tuple, tuple[VectorizationReport, ...]] = {}
        self._store = store
        self._hits = 0
        self._misses = 0
        self._disk_hits = 0

    # -- disk tier ---------------------------------------------------------

    def _disk_get(self, key: CompileKey) -> VectorizationReport | None:
        """Probe the store for ``key``; unusable payloads are misses."""
        from repro.store.artifact import StoreWarning
        from repro.store.codecs import (
            CodecError,
            decode_report,
            jsonable_parts,
        )

        payload = self._store.get("compile", jsonable_parts(key))
        if payload is None:
            return None
        try:
            return decode_report(payload)
        except CodecError as exc:
            warnings.warn(
                f"stored compile report for {key[2]} is unusable "
                f"({exc}); recompiling",
                StoreWarning, stacklevel=4,
            )
            return None

    def _disk_put(self, key: CompileKey,
                  report: VectorizationReport) -> None:
        from repro.store.codecs import encode_report, jsonable_parts

        self._store.put("compile", jsonable_parts(key),
                        encode_report(report))

    @staticmethod
    def _suite_store_key(suite_key: tuple) -> list:
        """On-disk key for a whole suite's report list.

        The in-memory ``suite_key`` holds kernel objects; the store key
        lowers them to their (unique, registry-pinned) names.
        """
        from repro.store.codecs import jsonable_parts

        (name, rvv, kernels, target_name, target_version, scalar_only,
         flavor, rollback) = suite_key
        return jsonable_parts((
            "suite", name, rvv, tuple(k.name for k in kernels),
            target_name, target_version, scalar_only, flavor, rollback,
        ))

    def _suite_disk_get(
        self, suite_key: tuple
    ) -> tuple[VectorizationReport, ...] | None:
        """Probe the store for a whole suite's reports in one read."""
        from repro.store.artifact import StoreWarning
        from repro.store.codecs import CodecError, decode_report

        payload = self._store.get(
            "compile", self._suite_store_key(suite_key)
        )
        if payload is None:
            return None
        try:
            encoded = payload["reports"]
            if not isinstance(encoded, list) or len(encoded) != len(
                suite_key[2]
            ):
                raise CodecError(
                    "suite report list does not match the kernel list"
                )
            return tuple(decode_report(entry) for entry in encoded)
        except (CodecError, KeyError, TypeError) as exc:
            warnings.warn(
                f"stored suite compile artifact is unusable ({exc}); "
                f"recompiling",
                StoreWarning, stacklevel=4,
            )
            return None

    def _suite_disk_put(
        self, suite_key: tuple,
        reports: tuple[VectorizationReport, ...],
    ) -> None:
        from repro.store.codecs import encode_report

        self._store.put(
            "compile", self._suite_store_key(suite_key),
            {"reports": [encode_report(report) for report in reports]},
        )

    def analyze(
        self,
        compiler: Compiler,
        kernel: Kernel,
        target: VectorISA,
        flavor: VectorFlavor = VectorFlavor.VLS,
        rollback: bool = False,
    ) -> VectorizationReport:
        """``analyze`` with memoization; same reports, same errors."""
        key = compile_key(compiler, kernel, target, flavor, rollback)
        with self._lock:
            report = self._entries.get(key)
            if report is not None:
                self._hits += 1
                return report
            if self._store is not None:
                report = self._disk_get(key)
                if report is not None:
                    self._disk_hits += 1
                    self._entries[key] = report
                    return report
            rec = telemetry.recorder()
            if rec.active:
                with rec.span(
                    "compile.analyze", kernel=kernel.name,
                    flavor=flavor.value, rollback=rollback,
                ):
                    report = analyze(
                        compiler, kernel, target, flavor=flavor,
                        rollback=rollback,
                    )
            else:
                report = analyze(
                    compiler, kernel, target, flavor=flavor,
                    rollback=rollback,
                )
            self._misses += 1
            self._entries[key] = report
            if self._store is not None:
                self._disk_put(key, report)
            return report

    def analyze_many(
        self,
        compiler: Compiler,
        kernels: list[Kernel],
        target: VectorISA,
        flavor: VectorFlavor = VectorFlavor.VLS,
        rollback: bool = False,
    ) -> list[VectorizationReport | None]:
        """Batched :meth:`analyze` for one configuration's kernel list.

        One lock hold serves the whole list — the
        per-kernel hit/miss accounting is identical to calling
        :meth:`analyze` in a loop. A kernel whose compilation *fails*
        yields ``None`` (instead of raising mid-batch) and leaves the
        counters untouched, exactly like the scalar path's uncached
        error; the caller re-runs it individually to surface the
        authoritative error.
        """
        out: list[VectorizationReport | None] = []
        rec = telemetry.recorder()
        traced = rec.active
        with self._lock:
            entries = self._entries
            for kernel in kernels:
                key = compile_key(compiler, kernel, target, flavor,
                                  rollback)
                report = entries.get(key)
                if report is not None:
                    self._hits += 1
                elif (
                    self._store is not None
                    and (report := self._disk_get(key)) is not None
                ):
                    self._disk_hits += 1
                    entries[key] = report
                else:
                    try:
                        if traced:
                            with rec.span(
                                "compile.analyze", kernel=kernel.name,
                                flavor=flavor.value, rollback=rollback,
                            ):
                                report = analyze(
                                    compiler, kernel, target,
                                    flavor=flavor, rollback=rollback,
                                )
                        else:
                            report = analyze(
                                compiler, kernel, target, flavor=flavor,
                                rollback=rollback,
                            )
                    except ReproError:
                        out.append(None)
                        continue
                    self._misses += 1
                    entries[key] = report
                    if self._store is not None:
                        self._disk_put(key, report)
                out.append(report)
        return out

    def analyze_suite(
        self,
        compiler: Compiler,
        kernels: tuple[Kernel, ...],
        target: VectorISA,
        flavor: VectorFlavor = VectorFlavor.VLS,
        rollback: bool = False,
    ) -> list[VectorizationReport | None]:
        """:meth:`analyze_many` with a suite-level composite fast path.

        A sweep resolves the *same* kernel tuple once per grid point;
        after the first full resolution the whole list is served from
        one composite lookup. A composite hit scores ``len(kernels)``
        hits — exactly what the per-key probes it replaces would have
        counted — so cache statistics are indistinguishable from
        looping :meth:`analyze`. Lists containing a failed compilation
        are never stored as composites (errors are not cached), so they
        re-resolve per kernel every time, like the scalar path.
        """
        suite_key = (
            compiler.name, compiler.rvv_version, kernels,
            target.name, target.version, target.is_scalar_only, flavor,
            rollback,
        )
        # Per-configuration site: the unconditional (possibly-null) span
        # here costs one context manager per grid point, not per kernel.
        sp = telemetry.recorder().span(
            "compile.resolve", kernels=len(kernels),
        )
        with sp:
            with self._lock:
                reports = self._suites.get(suite_key)
                if reports is not None:
                    self._hits += len(kernels)
                    sp.set(composite_hit=True)
                    return list(reports)
                if self._store is not None:
                    # Whole-suite disk probe: one artifact read restores
                    # the full report list (a fresh process's first grid
                    # point), counted as one disk hit per kernel — the
                    # same totals the per-kernel probes would score.
                    reports = self._suite_disk_get(suite_key)
                    if reports is not None:
                        self._disk_hits += len(kernels)
                        for kernel, report in zip(kernels, reports):
                            self._entries[
                                compile_key(compiler, kernel, target,
                                            flavor, rollback)
                            ] = report
                        self._suites[suite_key] = reports
                        sp.set(composite_hit=True)
                        return list(reports)
            out = self.analyze_many(
                compiler, list(kernels), target, flavor=flavor,
                rollback=rollback,
            )
            if all(report is not None for report in out):
                with self._lock:
                    self._suites[suite_key] = tuple(out)
                if self._store is not None:
                    self._suite_disk_put(suite_key, tuple(out))
            sp.set(composite_hit=False)
            return out

    @property
    def stats(self) -> CompileCacheStats:
        with self._lock:
            return CompileCacheStats(
                hits=self._hits,
                misses=self._misses,
                entries=len(self._entries),
                disk_hits=self._disk_hits,
            )

    def clear(self) -> None:
        """Drop the in-memory tiers (disk artifacts are untouched)."""
        with self._lock:
            self._entries.clear()
            self._suites.clear()
            self._hits = 0
            self._misses = 0
            self._disk_hits = 0
