"""Pre-populate an artifact store (the ``repro warm`` core).

Warming compiles the kernel catalog once and persists every report —
plus the suite's SoA lowering — so later processes (CI jobs, ``repro
serve`` cold starts, later sweeps) start near-warm from
disk. Warming is idempotent and incremental: artifacts already on disk
are restored (counted), not recompiled, so re-running ``repro warm``
after a partial run only fills the gaps.

Two entry points:

* :func:`warm_store` — standalone: builds a throwaway
  :class:`~repro.compiler.cache.CompileCache` over the store and drives
  the whole catalog through it. Used by the CLI.
* :func:`warm_caches` — in-process: warms an existing
  :class:`~repro.suite.memo.SuiteCaches` (typically a persistent one),
  so the calling process's *memory* tier ends up hot too. Used by
  ``repro serve`` start-up pre-warm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.compiler.cache import CompileCache
from repro.compiler.model import VectorFlavor
from repro.kernels.base import Kernel
from repro.kernels.registry import all_kernels
from repro.perfmodel.batch import lower_kernels, persist_lowering
from repro.suite.config import RunConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.machine.cpu import CPUModel
    from repro.store import ArtifactStore
    from repro.suite.memo import SuiteCaches

#: The combination every default sweep/serve request compiles with.
DEFAULT_COMBOS = ((VectorFlavor.VLS, False),)


@dataclass(frozen=True)
class WarmReport:
    """What one :func:`warm_store` call did for one machine."""

    cpu: str
    kernels: int
    combos: int
    compiled: int
    restored: int
    failed: int

    def render(self) -> str:
        out = (
            f"{self.cpu}: {self.kernels} kernels x {self.combos} "
            f"combo(s): {self.compiled} compiled, "
            f"{self.restored} already on disk"
        )
        if self.failed:
            out += (
                f", {self.failed} failed to compile "
                f"(errors are never cached)"
            )
        return out


def warm_store(
    store: "ArtifactStore",
    cpu: "CPUModel",
    kernels: Sequence[Kernel] | None = None,
    *,
    combos: Iterable[tuple[VectorFlavor, bool]] = DEFAULT_COMBOS,
    compiler: str | None = None,
) -> WarmReport:
    """Persist ``cpu``'s compile reports (and the SoA lowering).

    A kernel whose compilation fails is counted in ``failed`` and left
    uncached — errors re-raise identically on every call by design, so
    a warm store never masks them.
    """
    kernel_list = list(kernels) if kernels is not None else all_kernels()
    combo_list = list(combos)
    comp = RunConfig(compiler=compiler).resolve_compiler(cpu)
    cache = CompileCache(store=store)
    failed = 0
    for flavor, rollback in combo_list:
        # analyze_suite (not analyze_many) so warming also writes the
        # whole-suite composite artifact — the single read a fresh
        # process's first grid point restores all reports from.
        reports = cache.analyze_suite(
            comp, tuple(kernel_list), cpu.core.isa,
            flavor=flavor, rollback=rollback,
        )
        failed += sum(1 for report in reports if report is None)
    stats = cache.stats
    persist_lowering(tuple(kernel_list), store)
    return WarmReport(
        cpu=cpu.name,
        kernels=len(kernel_list),
        combos=len(combo_list),
        compiled=stats.misses,
        restored=stats.disk_hits,
        failed=failed,
    )


def warm_caches(
    caches: "SuiteCaches",
    cpu: "CPUModel",
    kernels: Sequence[Kernel] | None = None,
    config: RunConfig | None = None,
    combos: Iterable[tuple[VectorFlavor, bool]] | None = None,
) -> int:
    """Warm an existing cache bundle's memory tier for ``cpu``.

    Resolves the whole kernel list through the compile cache (restoring
    from disk where the cache is persistent) and lowers the suite SoA.
    ``combos`` warms extra (flavor, rollback) combinations beyond the
    config's own — the serve pre-warm uses this so flavored requests
    also start from hot caches. Returns the number of kernels
    successfully resolved, summed over combos.
    """
    kernel_list = list(kernels) if kernels is not None else all_kernels()
    cfg = config if config is not None else RunConfig()
    comp = cfg.resolve_compiler(cpu)
    combo_list = (
        list(combos) if combos is not None
        else [(cfg.flavor, cfg.rollback)]
    )
    resolved = 0
    if caches.compile is not None:
        for flavor, rollback in combo_list:
            reports = caches.compile.analyze_suite(
                comp, tuple(kernel_list), cpu.core.isa,
                flavor=flavor, rollback=rollback,
            )
            resolved += sum(
                1 for report in reports if report is not None
            )
    lower_kernels(tuple(kernel_list))
    return resolved
