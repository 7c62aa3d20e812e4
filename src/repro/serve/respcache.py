"""Tiered response cache: repeated predictions for one dict lookup.

The engine (batch model, compile cache) makes a repeated request
*cheap*; this cache makes it *free*. Successful responses are
stored fully pre-serialized — body bytes plus a precomputed HTTP head —
keyed on the full identity of the request: endpoint, machine digest,
configuration digest and the kernel names. A hot-key hit costs one dict
lookup and one socket write; no JSON is rendered, no engine thread is
touched, and no admission slot is consumed.

Two tiers:

* **Memory** — an LRU dict bounded by entry count *and* total body
  bytes, so a long-lived server stays bounded no matter how diverse its
  traffic gets.
* **Disk (optional)** — the ``"responses"`` namespace of a
  :class:`repro.store.ArtifactStore`. Responses written by one process
  are readable by the next, so a restarted server answers hot keys
  sub-millisecond before the engine is even warm. All the store's
  degradation rules apply: a torn or stale artifact is a miss, never an
  error.

Correctness rules, in priority order:

1. **Byte-identical or absent.** Only deterministic 200 responses are
   cached, and only when the engine produced them first-try
   (``attempts == 1``): a response that embeds retry state would not
   match what an uncached request renders. Engine faults, shed
   responses and every other envelope are never cached.
2. **Keys are content-addressed and cross-process stable.** Digests are
   built from canonical JSON (:func:`repro.store.stable_digest` over
   sorted-key dicts), never ``hash()``, so two processes — or one
   process before and after a restart — address the same entries.
"""

from __future__ import annotations

import hashlib
import threading
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro import telemetry
from repro.machine.cpu import CPUModel
from repro.serve import http
from repro.suite.config import RunConfig
from repro.suite.memo import machine_digest
from repro.util.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store import ArtifactStore

#: A response's identity: JSON-scalar/tuple parts only, so the same
#: value is both the in-memory dict key and the on-disk artifact key.
ResponseKey = tuple

#: Store namespace holding persisted responses.
RESPONSES_NAMESPACE = "responses"

#: Version of the persisted response payload shape.
RESPONSE_PAYLOAD_VERSION = 1


def config_digest(config: RunConfig) -> str:
    """Stable hex digest of everything a ``RunConfig`` pins.

    Canonical JSON over every field (enums lowered to their labels), so
    equal configurations digest equally across processes while any
    changed knob — thread count, flavor, noise — changes the key.
    """
    from repro.store import stable_digest

    return stable_digest({
        "threads": config.threads,
        "precision": config.precision.label,
        "placement": config.placement.value,
        "vectorize": config.vectorize,
        "compiler": config.compiler,
        "flavor": config.flavor.value,
        "rollback": config.rollback,
        "runs": config.runs,
        "noise_sigma": config.noise_sigma,
        "size_scale": config.size_scale,
    })


def predict_key(
    cpu: CPUModel, config: RunConfig, kernel_name: str
) -> ResponseKey:
    """The response key of one ``/predict`` request."""
    return (
        "predict",
        str(machine_digest(cpu)),
        config_digest(config),
        (kernel_name,),
    )


def sweep_key(
    cpu: CPUModel,
    kernel_names: Iterable[str],
    threads: Iterable[int],
    placements: Iterable,
    precisions: Iterable,
) -> ResponseKey:
    """The response key of one ``/sweep`` request.

    Kernel and axis order is part of the key (not sorted away): the
    response body lists points in request order, so two orderings are
    two distinct — both byte-exact — cache entries.
    """
    from repro.store import stable_digest

    axes = stable_digest({
        "threads": list(threads),
        "placements": [p.value for p in placements],
        "precisions": [p.label for p in precisions],
    })
    return (
        "sweep",
        str(machine_digest(cpu)),
        axes,
        tuple(kernel_names),
    )


def explain_key(cpu: CPUModel, kernel_name: str) -> ResponseKey:
    """The response key of one ``/explain`` request."""
    return ("explain", str(machine_digest(cpu)), "-", (kernel_name,))


def response_etag(body: bytes) -> str:
    """The strong ``ETag`` of one response body.

    A content digest, so the same body — rendered fresh, served from
    memory, or recomposed from the disk tier — always validates against
    a client's ``If-None-Match``.
    """
    return f'"{hashlib.sha256(body).hexdigest()[:16]}"'


def etag_matches(if_none_match: str | None, etag: str) -> bool:
    """Does an ``If-None-Match`` header value revalidate ``etag``?"""
    if not if_none_match or not etag:
        return False
    candidates = [v.strip() for v in if_none_match.split(",")]
    return "*" in candidates or etag in candidates


@dataclass(frozen=True)
class CachedResponse:
    """One fully pre-serialized 200 response.

    The HTTP head (status line, Content-Type, precomputed
    Content-Length, Connection) is composed once at insert time in both
    keep-alive and close variants, so serving a hit is a single
    ``writer.write(head + body)`` — no rendering on the hot path.
    """

    body: bytes
    head_keep: bytes
    head_close: bytes
    content_type: str = "application/json"
    status: int = 200
    etag: str = ""

    @classmethod
    def for_body(
        cls,
        body: bytes,
        content_type: str = "application/json",
        status: int = 200,
    ) -> "CachedResponse":
        etag = response_etag(body)
        extra = {"ETag": etag}
        return cls(
            body=body,
            head_keep=http.compose_head(
                status, len(body), content_type=content_type,
                keep_alive=True, extra_headers=extra,
            ),
            head_close=http.compose_head(
                status, len(body), content_type=content_type,
                keep_alive=False, extra_headers=extra,
            ),
            content_type=content_type,
            status=status,
            etag=etag,
        )

    def head(self, keep_alive: bool) -> bytes:
        return self.head_keep if keep_alive else self.head_close

    def __len__(self) -> int:
        return len(self.body)


@dataclass(frozen=True)
class RespCacheStats:
    """Point-in-time counters of one :class:`ResponseCache`."""

    hits: int = 0
    misses: int = 0
    disk_hits: int = 0
    stores: int = 0
    evictions: int = 0
    entries: int = 0
    bytes: int = 0

    @property
    def hit_rate(self) -> float | None:
        """Combined (memory + disk) hit rate; ``None`` before any
        lookup."""
        total = self.hits + self.disk_hits + self.misses
        if not total:
            return None
        return (self.hits + self.disk_hits) / total


class ResponseCache:
    """LRU-bounded, optionally store-backed map of pre-serialized
    responses.

    Thread-safe (the serving loop is single-threaded today, but store
    I/O degradation warnings can surface from engine threads and the
    lock keeps the counters honest either way). ``max_entries=0``
    disables the cache entirely: every lookup misses, nothing is
    stored — the historical always-render behaviour.
    """

    def __init__(
        self,
        store: "ArtifactStore | None" = None,
        max_entries: int = 2048,
        max_bytes: int = 64 << 20,
    ) -> None:
        if max_entries < 0:
            raise ConfigError(
                f"max_entries must be >= 0, got {max_entries}"
            )
        if max_bytes < 1:
            raise ConfigError(f"max_bytes must be >= 1, got {max_bytes}")
        self._store = store
        self._max_entries = max_entries
        self._max_bytes = max_bytes
        self._lock = threading.Lock()
        self._entries: dict[ResponseKey, CachedResponse] = {}
        #: Machine digests whose persisted responses must not be
        #: served this process (see :meth:`invalidate`).
        self._invalidated: set[str] = set()
        self._bytes = 0
        self._hits = 0
        self._misses = 0
        self._disk_hits = 0
        self._stores = 0
        self._evictions = 0

    @property
    def enabled(self) -> bool:
        return self._max_entries > 0

    @property
    def store(self) -> "ArtifactStore | None":
        return self._store

    # -- lookups -----------------------------------------------------------

    def get(self, key: ResponseKey) -> CachedResponse | None:
        """The cached response for ``key``, or ``None``.

        Memory first (LRU touch), then the persistent tier; a disk hit
        is promoted into memory so the recompose cost is paid once per
        process.
        """
        if not self.enabled:
            return None
        reg = telemetry.metrics()
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                # LRU touch: move to the insertion-order tail.
                del self._entries[key]
                self._entries[key] = cached
                self._hits += 1
                reg.counter("serve.respcache.hits").inc()
                return cached
        cached = self._disk_get(key)
        if cached is not None:
            with self._lock:
                self._disk_hits += 1
                self._insert(key, cached)
            reg.counter("serve.respcache.disk_hits").inc()
            return cached
        with self._lock:
            self._misses += 1
        reg.counter("serve.respcache.misses").inc()
        return None

    def put(
        self,
        key: ResponseKey,
        body: bytes,
        content_type: str = "application/json",
    ) -> None:
        """Cache one successful response body (idempotent per key).

        Oversized bodies (larger than the whole byte budget) are never
        cached; everything else is written through to the persistent
        tier when one is attached.
        """
        if not self.enabled or len(body) > self._max_bytes:
            return
        cached = CachedResponse.for_body(body, content_type=content_type)
        with self._lock:
            if key in self._entries:
                return  # a concurrent waiter already stored it
            self._stores += 1
            self._insert(key, cached)
        telemetry.metrics().counter("serve.respcache.stores").inc()
        if self._store is not None:
            from repro.store import jsonable_parts

            self._store.put(
                RESPONSES_NAMESPACE,
                tuple(jsonable_parts(key)),
                {
                    "payload_version": RESPONSE_PAYLOAD_VERSION,
                    "status": cached.status,
                    "content_type": cached.content_type,
                    "body": body.decode("utf-8"),
                },
            )

    def invalidate(self, machine_digest_str: str) -> int:
        """Drop every cached response keyed on one machine digest.

        The ``POST /machines`` registration hook: the moment a machine
        document is (re-)registered, responses addressed by its digest
        are evicted from the memory tier and the digest is blocked from
        the disk tier for the rest of the process — a stale artifact
        persisted by an earlier run can never shadow the freshly
        registered machine. Returns the number of memory entries
        dropped; counted under ``serve.respcache.invalidated``.
        """
        with self._lock:
            victims = [
                key for key in self._entries
                if key[1] == machine_digest_str
            ]
            for key in victims:
                self._bytes -= len(self._entries.pop(key))
            self._invalidated.add(machine_digest_str)
        telemetry.metrics().counter(
            "serve.respcache.invalidated"
        ).inc(len(victims))
        return len(victims)

    # -- internals ---------------------------------------------------------

    def _insert(self, key: ResponseKey, cached: CachedResponse) -> None:
        # Caller holds the lock.
        entries = self._entries
        previous = entries.pop(key, None)
        if previous is not None:
            self._bytes -= len(previous)
        entries[key] = cached
        self._bytes += len(cached)
        evicted = 0
        while entries and (
            len(entries) > self._max_entries
            or self._bytes > self._max_bytes
        ):
            victim_key = next(iter(entries))
            if victim_key == key and len(entries) == 1:
                break  # never evict the entry just inserted
            self._bytes -= len(entries.pop(victim_key))
            evicted += 1
        if evicted:
            self._evictions += evicted
            telemetry.metrics().counter(
                "serve.respcache.evictions"
            ).inc(evicted)

    def _disk_get(self, key: ResponseKey) -> CachedResponse | None:
        if self._store is None:
            return None
        with self._lock:
            if len(key) > 1 and key[1] in self._invalidated:
                return None
        from repro.store import CodecError, StoreWarning, jsonable_parts

        try:
            payload = self._store.get(
                RESPONSES_NAMESPACE, tuple(jsonable_parts(key))
            )
        except CodecError:
            return None  # unstorable key shape: purely in-memory
        if payload is None:
            return None
        if payload.get("payload_version") != RESPONSE_PAYLOAD_VERSION:
            warnings.warn(
                f"stored response has payload_version "
                f"{payload.get('payload_version')!r}; this build reads "
                f"{RESPONSE_PAYLOAD_VERSION}; recomputing",
                StoreWarning, stacklevel=3,
            )
            return None
        body = payload.get("body")
        status = payload.get("status")
        content_type = payload.get("content_type")
        if (
            not isinstance(body, str)
            or status != 200
            or not isinstance(content_type, str)
        ):
            warnings.warn(
                "stored response payload is malformed; recomputing",
                StoreWarning, stacklevel=3,
            )
            return None
        return CachedResponse.for_body(
            body.encode("utf-8"), content_type=content_type
        )

    # -- reporting ---------------------------------------------------------

    def stats(self) -> RespCacheStats:
        with self._lock:
            return RespCacheStats(
                hits=self._hits,
                misses=self._misses,
                disk_hits=self._disk_hits,
                stores=self._stores,
                evictions=self._evictions,
                entries=len(self._entries),
                bytes=self._bytes,
            )

    def clear(self) -> None:
        """Drop the memory tier (disk artifacts are untouched)."""
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
