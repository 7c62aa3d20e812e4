"""Response cache: repeated predictions for one dict lookup.

The engine (batch model, compile cache) makes a repeated request
*cheap*; this cache makes it *free*. Successful responses are
stored fully pre-serialized — body bytes plus a precomputed HTTP head —
keyed on the full identity of the request: endpoint, machine digest,
configuration digest and the kernel names. A hot-key hit costs one dict
lookup and one socket write; no JSON is rendered, no engine thread is
touched, and no admission slot is consumed.

The cache lives in process memory: an LRU dict bounded by entry count
*and* total body bytes, so a long-lived server stays bounded no matter
how diverse its traffic gets. A restarted server starts empty and
refills from the engine.

Correctness rules, in priority order:

1. **Byte-identical or absent.** Only deterministic 200 responses are
   cached, and only when the engine produced them first-try
   (``attempts == 1``): a response that embeds retry state would not
   match what an uncached request renders. Engine faults, shed
   responses and every other envelope are never cached.
2. **Keys are content-addressed.** Digests are built from canonical
   JSON (:func:`repro.util.digest.stable_digest` over sorted-key
   dicts), never ``hash()``, so equal requests address one entry and
   any changed knob addresses another.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from typing import Iterable

from repro import telemetry
from repro.machine.cpu import CPUModel
from repro.serve import http
from repro.suite.config import RunConfig
from repro.suite.memo import machine_digest
from repro.util.digest import stable_digest
from repro.util.errors import ConfigError

#: A response's identity: endpoint, machine digest, request digest and
#: kernel names.
ResponseKey = tuple


def config_digest(config: RunConfig) -> str:
    """Stable hex digest of everything a ``RunConfig`` pins.

    Canonical JSON over every field (enums lowered to their labels), so
    equal configurations digest equally across processes while any
    changed knob — thread count, flavor, noise — changes the key.
    """
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

    A content digest, so the same body — rendered fresh or served from
    memory — always validates against a client's ``If-None-Match``.
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
    stores: int = 0
    evictions: int = 0
    entries: int = 0
    bytes: int = 0

    @property
    def hit_rate(self) -> float | None:
        """Hit rate; ``None`` before any lookup."""
        total = self.hits + self.misses
        if not total:
            return None
        return self.hits / total


class ResponseCache:
    """LRU-bounded map of pre-serialized responses.

    Thread-safe (the serving loop is single-threaded today; the lock
    keeps the counters honest either way). ``max_entries=0`` disables
    the cache entirely: every lookup misses, nothing is stored — the
    historical always-render behaviour.
    """

    def __init__(
        self,
        max_entries: int = 2048,
        max_bytes: int = 64 << 20,
    ) -> None:
        if max_entries < 0:
            raise ConfigError(
                f"max_entries must be >= 0, got {max_entries}"
            )
        if max_bytes < 1:
            raise ConfigError(f"max_bytes must be >= 1, got {max_bytes}")
        self._max_entries = max_entries
        self._max_bytes = max_bytes
        self._lock = threading.Lock()
        self._entries: dict[ResponseKey, CachedResponse] = {}
        self._bytes = 0
        self._hits = 0
        self._misses = 0
        self._stores = 0
        self._evictions = 0

    @property
    def enabled(self) -> bool:
        return self._max_entries > 0

    # -- lookups -----------------------------------------------------------

    def get(self, key: ResponseKey) -> CachedResponse | None:
        """The cached response for ``key`` (an LRU touch), or ``None``."""
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
        cached.
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

    def invalidate(self, machine_digest_str: str) -> int:
        """Drop every cached response keyed on one machine digest.

        The ``POST /machines`` registration hook: the moment a machine
        document is (re-)registered, responses addressed by its digest
        are evicted, so a stale response can never shadow the freshly
        registered machine. Returns the number of entries dropped;
        counted under ``serve.respcache.invalidated``.
        """
        with self._lock:
            victims = [
                key for key in self._entries
                if key[1] == machine_digest_str
            ]
            for key in victims:
                self._bytes -= len(self._entries.pop(key))
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

    # -- reporting ---------------------------------------------------------

    def stats(self) -> RespCacheStats:
        with self._lock:
            return RespCacheStats(
                hits=self._hits,
                misses=self._misses,
                stores=self._stores,
                evictions=self._evictions,
                entries=len(self._entries),
                bytes=self._bytes,
            )

    def clear(self) -> None:
        """Drop every cached response."""
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
