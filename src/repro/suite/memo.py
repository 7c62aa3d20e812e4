"""Content-addressed prediction memo + per-sweep cache bookkeeping.

``simulate_kernel`` is pure: its result is fully determined by the
machine description, the kernel, the placement, the element type, the
compilation report and the problem size. The :class:`PredictionMemo`
keys predictions on exactly that content — the machine enters as a
digest of its full description (:func:`machine_digest`), so two equal
machines share entries while any re-tuned parameter changes the key.
Everything configuration-level (digest, placement, dtype, compiler
identity) is interned once per suite run in a :class:`MemoKeyPrefix`
whose hash is computed once, so the per-kernel keys a cold sweep
hashes thousands of times stay cheap.

The memo is *optional* and conservative: the suite runner bypasses it
entirely while a chaos fault plan is installed (injected faults are
stateful per call and must not be replayed from a cache), so resilience
campaigns observe exactly the historical behaviour.

:class:`SuiteCaches` bundles the two cache layers a sweep shares across
its grid points; :class:`CacheCounters` is the counters snapshot surfaced
on ``SuiteResult``/``SweepResult``.
"""

from __future__ import annotations

import json
import threading
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from repro.compiler.cache import CompileCache
from repro.machine.cpu import CPUModel
from repro.perfmodel.execution import ExecutionResult
from repro.util.rng import derive_seed

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store import ArtifactStore

#: One prediction's identity: ``(prefix, kernel name, problem size)``.
#: The :class:`MemoKeyPrefix` carries everything configuration-level —
#: machine digest, placement, dtype, compiler identity — and the
#: compilation report is *implied*: vectorization analysis is
#: deterministic in (compiler, kernel, ISA, flavor, rollback), every
#: component of which the prefix or the kernel name pins.
PredictionKey = tuple["MemoKeyPrefix", str, int]


@lru_cache(maxsize=128)
def machine_digest(cpu: CPUModel) -> int:
    """Stable 63-bit digest of a machine's full description.

    Derived from the canonical serialized form of the model
    (:func:`repro.machine.serialize.cpu_to_dict`, which renders the
    ISA's ``vectorizable`` frozenset in sorted order), so it is
    content-addressed *and* stable across processes: equal machines
    digest equally even under hash randomization, while any parameter
    change — a cache size, a thrash threshold — changes it. That
    cross-process stability is what lets the persistent prediction
    tier (:class:`PredictionMemo` over an ``ArtifactStore``) share
    pages between runs. Cached per model object (the serialization
    walk is far pricier than a dataclass hash), which a cold sweep
    performs once per grid point.
    """
    from repro.machine.serialize import cpu_to_dict

    canonical = json.dumps(
        cpu_to_dict(cpu), sort_keys=True, separators=(",", ":")
    )
    return derive_seed("machine-digest", canonical)


class MemoKeyPrefix:
    """Configuration-level prefix of prediction-memo keys, hashed once.

    A cold sweep builds (and hashes) thousands of per-kernel memo keys;
    the expensive parts — the 64-entry placement tuple, enums, the
    machine digest — are identical within one suite run. Interning them
    here with a precomputed hash makes each per-kernel key a cheap
    ``(prefix, name, size)`` triple. Equality is by content, so prefixes
    built by different suite runs (or processes) over equal
    configurations address the same entries.
    """

    __slots__ = ("_parts", "_hash")

    def __init__(self, *parts) -> None:
        self._parts = parts
        self._hash = hash(parts)

    @property
    def parts(self) -> tuple:
        """The raw prefix parts — the persistent tier lowers these to
        a stable on-disk page key via ``jsonable_parts``."""
        return self._parts

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MemoKeyPrefix)
            and self._parts == other._parts
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MemoKeyPrefix{self._parts!r}"


@dataclass(frozen=True)
class CacheCounters:
    """Hit/miss counters of a sweep's (or suite's) cache layers.

    This is the legacy ad-hoc view carried on
    ``SuiteResult.cache_stats`` / ``SweepResult.cache_stats``. When a
    telemetry session is active the same counters are re-exposed as
    ``cache.compile.*`` / ``cache.predict.*`` gauges on the metrics
    registry (:meth:`publish`); the two are published from one snapshot,
    so they always reconcile exactly.
    """

    compile_hits: int = 0
    compile_misses: int = 0
    compile_entries: int = 0
    predict_hits: int = 0
    predict_misses: int = 0
    predict_entries: int = 0
    compile_disk_hits: int = 0
    predict_disk_hits: int = 0
    predict_evictions: int = 0

    #: ``{metric name: CacheCounters field}`` — the telemetry names the
    #: counters publish under (see docs/OBSERVABILITY.md).
    METRIC_FIELDS = (
        ("cache.compile.hits", "compile_hits"),
        ("cache.compile.misses", "compile_misses"),
        ("cache.compile.entries", "compile_entries"),
        ("cache.predict.hits", "predict_hits"),
        ("cache.predict.misses", "predict_misses"),
        ("cache.predict.entries", "predict_entries"),
        ("cache.compile.disk_hits", "compile_disk_hits"),
        ("cache.predict.disk_hits", "predict_disk_hits"),
        ("cache.predict.evictions", "predict_evictions"),
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
        # Disk/eviction detail appears only when the persistent tier
        # (or the LRU cap) actually did something, so the no-store
        # rendering is byte-identical to the historical one.
        out = (
            f"compile cache: {self.compile_misses} compiled, "
            f"{self.compile_hits} reused; prediction memo: "
            f"{self.predict_misses} computed, {self.predict_hits} reused"
        )
        if self.compile_disk_hits or self.predict_disk_hits:
            out += (
                f"; disk: {self.compile_disk_hits} reports "
                f"+ {self.predict_disk_hits} predictions restored"
            )
        if self.predict_evictions:
            out += f"; {self.predict_evictions} memo entries evicted"
        return out


class PredictionMemo:
    """Thread-safe content-addressed memo of kernel predictions.

    Lookups and stores take the lock; the prediction itself is computed
    outside it so serve's engine threads never serialize on the model.
    Two threads racing on one cold key may both compute it — the results
    are identical by purity, so the last store wins harmlessly (the
    miss counter then reflects computations performed, not unique keys).

    ``store`` attaches an optional persistent tier: predictions are
    grouped into one on-disk *page* per :class:`MemoKeyPrefix` (one
    configuration), so ``peek_many``/``put_many`` — which the batch
    engine calls once per configuration — cost at most one artifact
    read/write each. Disk hits are counted separately from memory hits.

    ``max_entries`` bounds the in-memory tier with LRU eviction so
    long-lived processes (``repro serve``) cannot grow without limit;
    evicted entries remain on disk when a store is attached.
    """

    def __init__(
        self,
        store: "ArtifactStore | None" = None,
        max_entries: int | None = None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(
                f"max_entries must be a positive integer or None, "
                f"got {max_entries!r}"
            )
        self._lock = threading.Lock()
        self._entries: dict[PredictionKey, ExecutionResult] = {}
        self._store = store
        self._max_entries = max_entries
        # Decoded per-prefix pages, loaded at most once per process and
        # mutated in place by write-throughs (read-merge-write).
        self._pages: dict[MemoKeyPrefix, dict[str, ExecutionResult]] = {}
        self._hits = 0
        self._misses = 0
        self._disk_hits = 0
        self._evictions = 0

    # -- persistent tier (all called with the lock held) -------------------

    def _page(
        self, prefix: MemoKeyPrefix
    ) -> dict[str, ExecutionResult]:
        """The decoded on-disk page for one configuration prefix."""
        page = self._pages.get(prefix)
        if page is None:
            page = self._load_page(prefix)
            self._pages[prefix] = page
        return page

    def _load_page(
        self, prefix: MemoKeyPrefix
    ) -> dict[str, ExecutionResult]:
        from repro.store.artifact import StoreWarning
        from repro.store.codecs import (
            CodecError,
            decode_prediction_page,
            jsonable_parts,
        )

        payload = self._store.get(
            "predict", jsonable_parts(prefix.parts)
        )
        if payload is None:
            return {}
        try:
            return decode_prediction_page(payload)
        except CodecError as exc:
            warnings.warn(
                f"stored prediction page is unusable ({exc}); "
                f"recomputing",
                StoreWarning, stacklevel=5,
            )
            return {}

    def _store_page(self, prefix: MemoKeyPrefix) -> None:
        from repro.store.codecs import (
            encode_prediction_page,
            jsonable_parts,
        )

        self._store.put(
            "predict",
            jsonable_parts(prefix.parts),
            encode_prediction_page(self._pages[prefix]),
        )

    def _disk_get(self, key: PredictionKey) -> ExecutionResult | None:
        from repro.store.codecs import page_slot

        return self._page(key[0]).get(page_slot(key[1], key[2]))

    def _write_through(
        self, key: PredictionKey, result: ExecutionResult
    ) -> None:
        """Merge one prediction into its page; caller flushes."""
        from repro.store.codecs import page_slot

        self._page(key[0])[page_slot(key[1], key[2])] = result

    # -- in-memory tier (called with the lock held) ------------------------

    def _insert(self, key: PredictionKey,
                result: ExecutionResult) -> None:
        entries = self._entries
        entries[key] = result
        if self._max_entries is not None:
            while len(entries) > self._max_entries:
                del entries[next(iter(entries))]
                self._evictions += 1

    def _touch(self, key: PredictionKey,
               result: ExecutionResult) -> None:
        """Move a hit entry to the LRU tail (no-op when unbounded —
        insertion order is irrelevant without a cap)."""
        if self._max_entries is not None:
            del self._entries[key]
            self._entries[key] = result

    # -- public API --------------------------------------------------------

    def get_or_compute(
        self,
        key: PredictionKey,
        compute: Callable[[], ExecutionResult],
    ) -> ExecutionResult:
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self._hits += 1
                self._touch(key, cached)
                return cached
            if self._store is not None:
                cached = self._disk_get(key)
                if cached is not None:
                    self._disk_hits += 1
                    self._insert(key, cached)
                    return cached
        result = compute()
        with self._lock:
            self._misses += 1
            self._insert(key, result)
            if self._store is not None:
                self._write_through(key, result)
                self._store_page(key[0])
        return result

    def peek(self, key: PredictionKey) -> ExecutionResult | None:
        """Cached result for ``key``, or ``None`` — counts a hit when
        present, counts nothing when absent.

        The batch engine's half of :meth:`get_or_compute`: it peeks every
        key first, batch-computes the misses in one vectorized pass, then
        :meth:`put`\\ s them back — the counters end up exactly as if each
        kernel had gone through ``get_or_compute`` individually."""
        with self._lock:
            return self._peek_locked(key)

    def _peek_locked(self, key: PredictionKey) -> ExecutionResult | None:
        cached = self._entries.get(key)
        if cached is not None:
            self._hits += 1
            self._touch(key, cached)
            return cached
        if self._store is not None:
            cached = self._disk_get(key)
            if cached is not None:
                self._disk_hits += 1
                self._insert(key, cached)
                return cached
        return None

    def put(self, key: PredictionKey, result: ExecutionResult) -> None:
        """Store a prediction computed elsewhere; counts a miss."""
        with self._lock:
            self._misses += 1
            self._insert(key, result)
            if self._store is not None:
                self._write_through(key, result)
                self._store_page(key[0])

    def peek_many(
        self, keys: Sequence[PredictionKey]
    ) -> list[ExecutionResult | None]:
        """Batched :meth:`peek`: one lock hold for a whole
        configuration's keys, same per-key counter accounting. With a
        store attached, all keys of one configuration share one page
        read (pages are cached after the first load) and the per-key
        disk probe is inlined — a store-restored sweep spends its time
        in dict lookups, not call frames."""
        with self._lock:
            if self._store is None:
                return [self._peek_locked(key) for key in keys]
            from repro.store.codecs import page_slot

            entries = self._entries
            out: list[ExecutionResult | None] = []
            hits = restored = 0
            for key in keys:
                cached = entries.get(key)
                if cached is not None:
                    hits += 1
                    self._touch(key, cached)
                    out.append(cached)
                    continue
                cached = self._page(key[0]).get(
                    page_slot(key[1], key[2])
                )
                if cached is not None:
                    restored += 1
                    self._insert(key, cached)
                out.append(cached)
            self._hits += hits
            self._disk_hits += restored
            return out

    def put_many(
        self,
        items: Iterable[tuple[PredictionKey, ExecutionResult]],
    ) -> None:
        """Batched :meth:`put` under one lock hold — one page write per
        configuration prefix touched, not one per prediction."""
        with self._lock:
            touched: set[MemoKeyPrefix] = set()
            for key, result in items:
                self._misses += 1
                self._insert(key, result)
                if self._store is not None:
                    self._write_through(key, result)
                    touched.add(key[0])
            for prefix in touched:
                self._store_page(prefix)

    @property
    def hits(self) -> int:
        with self._lock:
            return self._hits

    @property
    def misses(self) -> int:
        with self._lock:
            return self._misses

    @property
    def disk_hits(self) -> int:
        with self._lock:
            return self._disk_hits

    @property
    def evictions(self) -> int:
        with self._lock:
            return self._evictions

    @property
    def max_entries(self) -> int | None:
        return self._max_entries

    @property
    def store(self) -> "ArtifactStore | None":
        return self._store

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        """Drop the in-memory tiers (disk artifacts are untouched)."""
        with self._lock:
            self._entries.clear()
            self._pages.clear()
            self._hits = 0
            self._misses = 0
            self._disk_hits = 0
            self._evictions = 0


@dataclass
class SuiteCaches:
    """The cache layers shared across one sweep's grid points.

    Either layer may be ``None`` to disable it; ``SuiteCaches()`` with
    no arguments enables both (the default a sweep builds for itself).
    """

    compile: CompileCache | None = field(default_factory=CompileCache)
    predict: PredictionMemo | None = field(default_factory=PredictionMemo)

    @classmethod
    def disabled(cls) -> "SuiteCaches":
        """Caches object with both layers off — the pre-cache behaviour,
        used by the golden equivalence tests and the sweep benchmark."""
        return cls(compile=None, predict=None)

    @classmethod
    def persistent(
        cls,
        store: "ArtifactStore",
        memo_entry_cap: int | None = None,
    ) -> "SuiteCaches":
        """Both layers backed by one on-disk artifact store.

        ``memo_entry_cap`` additionally bounds the prediction memo's
        in-memory tier (LRU); evicted entries stay readable on disk.
        """
        return cls(
            compile=CompileCache(store=store),
            predict=PredictionMemo(
                store=store, max_entries=memo_entry_cap
            ),
        )

    @property
    def store(self) -> "ArtifactStore | None":
        """The artifact store backing either layer (``None`` when both
        are memory-only). The sweep driver locates the whole-sweep
        artifact tier through this."""
        if self.predict is not None and self.predict.store is not None:
            return self.predict.store
        if self.compile is not None:
            return self.compile.store
        return None

    def stats(self) -> CacheCounters:
        compile_stats = (
            self.compile.stats if self.compile is not None else None
        )
        return CacheCounters(
            compile_hits=compile_stats.hits if compile_stats else 0,
            compile_misses=compile_stats.misses if compile_stats else 0,
            compile_entries=compile_stats.entries if compile_stats else 0,
            predict_hits=self.predict.hits if self.predict else 0,
            predict_misses=self.predict.misses if self.predict else 0,
            predict_entries=len(self.predict) if self.predict else 0,
            compile_disk_hits=(
                compile_stats.disk_hits if compile_stats else 0
            ),
            predict_disk_hits=(
                self.predict.disk_hits if self.predict else 0
            ),
            predict_evictions=(
                self.predict.evictions if self.predict else 0
            ),
        )
