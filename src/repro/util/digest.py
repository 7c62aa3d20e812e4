"""Content digests that are stable across processes.

Persisted artifacts (:mod:`repro.store`) and the service's response
cache keys and ``ETag``\\ s (:mod:`repro.serve.respcache`) both address
content by :func:`stable_digest`. It lives here, apart from the store,
so a server that opens no store never imports one.
"""

from __future__ import annotations

import hashlib
import json


def stable_digest(*parts: object) -> str:
    """Hex content digest of arbitrary JSON-able key parts.

    BLAKE2 over the canonical JSON of each part (sorted keys, no
    whitespace), field-separated — stable across processes, Python
    versions and dict orderings, unlike ``hash``.
    """
    digest = hashlib.blake2b(digest_size=16)
    for part in parts:
        canonical = json.dumps(part, sort_keys=True, separators=(",", ":"))
        digest.update(canonical.encode("utf-8"))
        digest.update(b"\x1f")
    return digest.hexdigest()
