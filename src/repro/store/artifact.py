"""Content-addressed on-disk artifact store: the cold path's warm tier.

Warm sweeps are cheap in process, but every *fresh process* — a CI job
or a ``repro sweep --store`` run — pays the full per-kernel
``analyze()`` and SoA-lowering cost again because those artifacts live
only in process memory. The :class:`ArtifactStore` persists them: small
JSON artifacts addressed by a stable content digest of everything the
cached value depends on (compiler identity, kernel, target ISA,
configuration, or the lowering's trait scalars), so a second process
finds the first one's work on disk.

Design rules, in priority order:

1. **Never change results.** Artifacts are keyed on the full identity
   of the computation; on read the stored key is compared against the
   requested one, so even a digest collision degrades to recompute.
2. **Never crash the caller.** A torn file, a schema bump, a read-only
   directory, a concurrent writer — every failure mode degrades to
   "recompute" with a :class:`StoreWarning`, exactly like a cold cache.
3. **Crash-safe writes.** Artifacts are written to a uniquely-named
   temp file, fsynced, then moved into place with :func:`os.replace`
   (the idiom proven by :mod:`repro.resilience.checkpoint`), so a kill
   mid-write leaves the old artifact (or none), never a torn one.

Concurrent writers are safe by construction: both compute the same
bytes for the same key (the cached functions are pure), and
``os.replace`` is atomic, so the losing writer merely overwrites the
winning one with identical content.
"""

from __future__ import annotations

import json
import os
import threading
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.util.digest import stable_digest

#: Bump when the artifact file layout changes incompatibly. Readers
#: treat any other version as a miss (recompute), never an error.
STORE_SCHEMA_VERSION = 1

#: Namespaces the store recognises; one subdirectory per namespace.
KNOWN_NAMESPACES = ("compile", "soa")


class StoreWarning(UserWarning):
    """A store artifact was unusable (torn, stale schema, unwritable
    directory); the operation degraded to recompute."""


@dataclass(frozen=True)
class StoreStats:
    """One namespace's counters at a point in time."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    errors: int = 0
    #: Artifacts deleted by garbage collection (``prune_store``).
    evictions: int = 0


class ArtifactStore:
    """A directory of content-addressed, versioned JSON artifacts.

    One artifact per key: ``<root>/<namespace>/<digest>.json`` holding
    ``{"schema_version", "namespace", "key", "payload"}``. The ``key``
    echo makes every artifact self-describing and turns digest
    collisions into misses instead of wrong answers.

    Thread-safe: counters are lock-protected and writes are atomic; the
    I/O itself runs outside any lock so concurrent readers never
    serialize.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self._lock = threading.Lock()
        self._counts: dict[str, list[int]] = {}
        self._write_failed = False

    # -- key/path plumbing -------------------------------------------------

    def _path(self, namespace: str, key_parts: tuple) -> Path:
        return self.root / namespace / (
            stable_digest(list(key_parts)) + ".json"
        )

    @staticmethod
    def _canonical_key(key_parts: tuple) -> Any:
        """The key as it round-trips through JSON (tuples -> lists),
        so the on-disk echo compares equal to a fresh request."""
        return json.loads(json.dumps(list(key_parts)))

    def _count(self, namespace: str, slot: int, n: int = 1) -> None:
        with self._lock:
            counts = self._counts.setdefault(namespace, [0, 0, 0, 0, 0])
            counts[slot] += n

    def count_evictions(self, namespace: str, n: int = 1) -> None:
        """Record ``n`` garbage-collected artifacts (slot 4); the
        deletion itself is done by :func:`repro.store.prune_store`."""
        self._count(namespace, 4, n)

    # -- reads -------------------------------------------------------------

    def get(self, namespace: str, key_parts: tuple) -> dict | None:
        """The payload stored for ``key_parts``, or ``None``.

        Every failure mode — missing file, torn/truncated JSON, a
        different ``schema_version``, a key-echo mismatch — is a miss;
        the unusable ones additionally emit a :class:`StoreWarning`.
        """
        path = self._path(namespace, key_parts)
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            self._count(namespace, 1)
            return None
        except OSError as exc:
            self._warn(f"unreadable artifact {path}: {exc}")
            self._count(namespace, 3)
            return None
        try:
            record = json.loads(raw.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            self._warn(
                f"corrupt artifact {path} (torn write or tampering): "
                f"{exc}; recomputing"
            )
            self._count(namespace, 3)
            return None
        if not isinstance(record, dict):
            self._warn(f"artifact {path} is not an object; recomputing")
            self._count(namespace, 3)
            return None
        if record.get("schema_version") != STORE_SCHEMA_VERSION:
            self._warn(
                f"artifact {path} has schema_version "
                f"{record.get('schema_version')!r}; this build reads "
                f"{STORE_SCHEMA_VERSION}; recomputing"
            )
            self._count(namespace, 3)
            return None
        if record.get("key") != self._canonical_key(key_parts):
            self._warn(
                f"artifact {path} key echo does not match the request "
                f"(digest collision?); recomputing"
            )
            self._count(namespace, 3)
            return None
        payload = record.get("payload")
        if not isinstance(payload, dict):
            self._warn(f"artifact {path} has no payload; recomputing")
            self._count(namespace, 3)
            return None
        self._count(namespace, 0)
        return payload

    # -- writes ------------------------------------------------------------

    def put(self, namespace: str, key_parts: tuple,
            payload: dict) -> bool:
        """Persist ``payload`` under ``key_parts``, atomically.

        Returns ``False`` (after warning once per store) when the
        directory is unwritable — a read-only store serves reads
        forever and silently refuses writes, it never raises.
        """
        path = self._path(namespace, key_parts)
        record = {
            "schema_version": STORE_SCHEMA_VERSION,
            "namespace": namespace,
            "key": self._canonical_key(key_parts),
            "payload": payload,
        }
        # Unique temp name per writer: two processes filling the same
        # store must not scribble on one temp file.
        tmp = path.with_name(
            f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
        )
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            with tmp.open("w", encoding="utf-8") as fh:
                json.dump(record, fh, separators=(",", ":"))
                fh.write("\n")
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except OSError as exc:
            with self._lock:
                already = self._write_failed
                self._write_failed = True
            if not already:
                self._warn(
                    f"store {self.root} is not writable ({exc}); "
                    f"continuing without persisting artifacts"
                )
            self._count(namespace, 3)
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
            return False
        self._count(namespace, 2)
        return True

    # -- reporting ---------------------------------------------------------

    def stats(self) -> dict[str, StoreStats]:
        """``{namespace: StoreStats}`` for every namespace touched."""
        with self._lock:
            return {
                namespace: StoreStats(
                    hits=c[0], misses=c[1], puts=c[2], errors=c[3],
                    evictions=c[4],
                )
                for namespace, c in sorted(self._counts.items())
            }

    def artifact_count(self, namespace: str | None = None) -> int:
        """Artifacts currently on disk (one namespace, or all)."""
        namespaces = (
            (namespace,) if namespace is not None else KNOWN_NAMESPACES
        )
        total = 0
        for ns in namespaces:
            directory = self.root / ns
            if directory.is_dir():
                total += sum(
                    1 for p in directory.iterdir()
                    if p.suffix == ".json"
                )
        return total

    @staticmethod
    def _warn(message: str) -> None:
        warnings.warn(message, StoreWarning, stacklevel=3)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ArtifactStore({str(self.root)!r})"
