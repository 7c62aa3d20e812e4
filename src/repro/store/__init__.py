"""``repro.store`` — persistent artifacts for the cold path.

The package persists two artifact kinds a fresh process otherwise
recomputes — compilation reports and lowered-kernel SoA arrays — in a
content-addressed, versioned, crash-safe on-disk
:class:`ArtifactStore`. The compile cache
(:class:`repro.compiler.cache.CompileCache`) accepts a store as an
optional disk tier; :func:`repro.suite.memo.SuiteCaches.persistent`
attaches one, as ``repro sweep --store DIR`` does.

A process-wide *default store* hook exists for the one value that is
module-level rather than object-level (the batch engine's one lowering
of the suite, built by ``lower_kernels``): installing a default store
gives it a disk tier too. Everything else takes its store explicitly.
"""

from __future__ import annotations

import threading

from repro.store.artifact import (
    KNOWN_NAMESPACES,
    STORE_SCHEMA_VERSION,
    ArtifactStore,
    StoreStats,
    StoreWarning,
    stable_digest,
)
from repro.store.codecs import PAYLOAD_VERSION, CodecError, jsonable_parts
from repro.store.prune import NamespacePrune, PruneReport, prune_store

__all__ = [
    "ArtifactStore",
    "NamespacePrune",
    "PruneReport",
    "StoreStats",
    "StoreWarning",
    "CodecError",
    "STORE_SCHEMA_VERSION",
    "PAYLOAD_VERSION",
    "KNOWN_NAMESPACES",
    "prune_store",
    "stable_digest",
    "jsonable_parts",
    "default_store",
    "set_default_store",
]

_default_lock = threading.Lock()
_default_store: ArtifactStore | None = None


def set_default_store(store: ArtifactStore | None) -> ArtifactStore | None:
    """Install (or clear) the process-wide default store.

    Returns the previously installed store so scopes can restore it.
    Only module-level caches (the SoA lowering LRU) consult the
    default; the per-object cache layers take their store explicitly,
    so tests and libraries are unaffected unless they opt in.
    """
    global _default_store
    with _default_lock:
        previous = _default_store
        _default_store = store
    return previous


def default_store() -> ArtifactStore | None:
    """The process-wide default store, or ``None``."""
    return _default_store
