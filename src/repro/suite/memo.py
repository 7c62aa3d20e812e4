"""Machine digests + per-sweep cache bookkeeping.

:func:`machine_digest` names a machine by its full description, so two
equal machines share cache entries while any re-tuned parameter changes
the name.

:class:`SuiteCaches` bundles the compile cache a sweep shares across
its grid points; :class:`CacheCounters` is the counters snapshot
surfaced on ``SuiteResult``/``SweepResult``. Predictions themselves are
never cached: every one is computed by the batch engine (or, on the
scalar, chaos and reference paths, by ``simulate_kernel``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING

from repro.compiler.cache import CompileCache
from repro.machine.cpu import CPUModel
from repro.util.rng import derive_seed

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store import ArtifactStore


@lru_cache(maxsize=128)
def machine_digest(cpu: CPUModel) -> int:
    """Stable 63-bit digest of a machine's full description.

    Derived from the canonical serialized form of the model
    (:func:`repro.machine.serialize.cpu_to_dict`, which renders the
    ISA's ``vectorizable`` frozenset in sorted order), so it is
    content-addressed *and* stable across processes: equal machines
    digest equally even under hash randomization, while any parameter
    change — a cache size, a thrash threshold — changes it. That
    cross-process stability is what lets two server instances compare
    their machines by digest (``GET /machines``). Cached per model
    object (the serialization walk is far pricier than a dataclass
    hash).
    """
    from repro.machine.serialize import cpu_to_dict

    canonical = json.dumps(
        cpu_to_dict(cpu), sort_keys=True, separators=(",", ":")
    )
    return derive_seed("machine-digest", canonical)


@dataclass(frozen=True)
class CacheCounters:
    """Hit/miss counters of a sweep's (or suite's) compile cache.

    This is the legacy ad-hoc view carried on
    ``SuiteResult.cache_stats`` / ``SweepResult.cache_stats``. When a
    telemetry session is active the same counters are re-exposed as
    ``cache.compile.*`` gauges on the metrics registry (:meth:`publish`);
    the two are published from one snapshot, so they always reconcile
    exactly.
    """

    compile_hits: int = 0
    compile_misses: int = 0
    compile_entries: int = 0
    compile_disk_hits: int = 0

    #: ``{metric name: CacheCounters field}`` — the telemetry names the
    #: counters publish under (see docs/OBSERVABILITY.md).
    METRIC_FIELDS = (
        ("cache.compile.hits", "compile_hits"),
        ("cache.compile.misses", "compile_misses"),
        ("cache.compile.entries", "compile_entries"),
        ("cache.compile.disk_hits", "compile_disk_hits"),
    )

    def publish(self, registry) -> None:
        """Expose these counters as ``cache.*`` gauges on a telemetry
        metrics registry (:class:`repro.telemetry.MetricsRegistry`).

        Gauges, not counters: each publish is a point-in-time snapshot
        (last write wins), mirroring the ``cache_stats`` semantics.
        """
        for metric_name, field_name in self.METRIC_FIELDS:
            registry.gauge(metric_name).set(getattr(self, field_name))

    def render(self) -> str:
        # Disk detail appears only when the persistent tier actually
        # restored something.
        out = (
            f"compile cache: {self.compile_misses} compiled, "
            f"{self.compile_hits} reused"
        )
        if self.compile_disk_hits:
            out += f"; disk: {self.compile_disk_hits} reports restored"
        return out


@dataclass
class SuiteCaches:
    """The cache layer shared across one sweep's grid points.

    ``compile`` may be ``None`` to disable it; ``SuiteCaches()`` with no
    arguments enables it (the default a sweep builds for itself).
    """

    compile: CompileCache | None = field(default_factory=CompileCache)

    @classmethod
    def disabled(cls) -> "SuiteCaches":
        """Caches object with the compile cache off — the pre-cache
        behaviour, used by the golden equivalence tests and the sweep
        benchmark."""
        return cls(compile=None)

    @classmethod
    def persistent(cls, store: "ArtifactStore") -> "SuiteCaches":
        """A compile cache backed by an on-disk artifact store."""
        return cls(compile=CompileCache(store=store))

    def stats(self) -> CacheCounters:
        if self.compile is None:
            return CacheCounters()
        stats = self.compile.stats
        return CacheCounters(
            compile_hits=stats.hits,
            compile_misses=stats.misses,
            compile_entries=stats.entries,
            compile_disk_hits=stats.disk_hits,
        )
