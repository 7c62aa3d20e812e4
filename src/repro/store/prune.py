"""Garbage collection for long-lived artifact stores.

A store directory shared by CI jobs and sweeps grows without bound:
every new compiler, flavor combo or kernel list adds artifacts, and
nothing ever deleted them. :func:`prune_store` bounds it two ways,
composable in one pass:

* **Age** (``max_age_s``): artifacts whose mtime is older than the
  horizon are deleted — stale machines and one-off configurations
  drain out on their own.
* **Size** (``max_bytes``): if the surviving artifacts still exceed the
  cap, the oldest are deleted globally (across namespaces) until the
  store fits — an LRU-by-mtime policy, since every read is a plain
  ``open`` and POSIX mtime tracks writes.

Deleting an artifact is always safe: the store's contract is that a
missing artifact is a miss, never an error, so a prune racing a reader
just costs that reader a recompute. Orphaned ``*.tmp`` files older than
a grace period (killed writers) are removed unconditionally.

``dry_run=True`` reports what *would* be deleted without touching the
directory or the eviction counters.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from pathlib import Path

from repro.store.artifact import (
    KNOWN_NAMESPACES,
    ArtifactStore,
    StoreWarning,
)
from repro.util.errors import ConfigError

#: Temp files younger than this may belong to a live writer; leave them.
TMP_GRACE_S = 600.0


@dataclass(frozen=True)
class NamespacePrune:
    """What one prune pass did inside one namespace."""

    namespace: str
    scanned: int
    deleted: int
    bytes_freed: int
    bytes_kept: int


@dataclass(frozen=True)
class PruneReport:
    """One :func:`prune_store` pass, namespace-by-namespace."""

    root: str
    dry_run: bool
    scanned: int
    deleted: int
    bytes_before: int
    bytes_after: int
    tmp_removed: int
    namespaces: tuple[NamespacePrune, ...]

    def render(self) -> str:
        verb = "would delete" if self.dry_run else "deleted"
        lines = [
            f"{self.root}: {verb} {self.deleted}/{self.scanned} "
            f"artifact(s), {self.bytes_before - self.bytes_after} of "
            f"{self.bytes_before} bytes"
            + (f", {self.tmp_removed} orphaned temp file(s)"
               if self.tmp_removed else "")
        ]
        for ns in self.namespaces:
            if not ns.scanned:
                continue
            lines.append(
                f"  {ns.namespace}: {verb} {ns.deleted}/{ns.scanned}, "
                f"{ns.bytes_kept} bytes kept"
            )
        return "\n".join(lines)


def prune_store(
    store: ArtifactStore,
    *,
    max_bytes: int | None = None,
    max_age_s: float | None = None,
    namespaces: tuple[str, ...] | None = None,
    dry_run: bool = False,
    now: float | None = None,
) -> PruneReport:
    """Garbage-collect ``store``; returns what was (or would be) done.

    At least one of ``max_bytes`` / ``max_age_s`` must be given. The
    size cap applies across the selected namespaces as a whole, oldest
    artifacts first. Deletions are counted on the store's per-namespace
    :class:`~repro.store.StoreStats` eviction counters (not in dry-run
    mode); a file that vanishes or refuses deletion mid-pass is warned
    about and skipped, never fatal.
    """
    if max_bytes is None and max_age_s is None:
        raise ConfigError(
            "prune_store needs max_bytes and/or max_age_s "
            "(otherwise there is nothing to enforce)"
        )
    if max_bytes is not None and max_bytes < 0:
        raise ConfigError(f"max_bytes must be >= 0, got {max_bytes}")
    if max_age_s is not None and max_age_s < 0:
        raise ConfigError(f"max_age_s must be >= 0, got {max_age_s}")
    selected = namespaces if namespaces is not None else KNOWN_NAMESPACES
    for ns in selected:
        if "/" in ns or ns in ("", ".", ".."):
            raise ConfigError(f"invalid namespace {ns!r}")
    if now is None:
        now = time.time()

    # Inventory: (mtime, size, path, namespace) per artifact.
    entries: list[tuple[float, int, Path, str]] = []
    tmp_removed = 0
    for ns in selected:
        directory = store.root / ns
        if not directory.is_dir():
            continue
        for path in directory.iterdir():
            try:
                stat = path.stat()
            except OSError:
                continue  # vanished mid-scan: someone else's prune
            if path.name.endswith(".tmp"):
                if now - stat.st_mtime > TMP_GRACE_S:
                    tmp_removed += 1
                    if not dry_run:
                        _unlink(path)
                continue
            if path.suffix != ".json":
                continue
            entries.append((stat.st_mtime, stat.st_size, path, ns))

    bytes_before = sum(size for _, size, _, _ in entries)
    doomed: list[tuple[float, int, Path, str]] = []
    survivors: list[tuple[float, int, Path, str]] = []
    if max_age_s is not None:
        horizon = now - max_age_s
        for entry in entries:
            (doomed if entry[0] < horizon else survivors).append(entry)
    else:
        survivors = list(entries)
    if max_bytes is not None:
        survivors.sort()  # oldest mtime first
        excess = sum(size for _, size, _, _ in survivors) - max_bytes
        while excess > 0 and survivors:
            entry = survivors.pop(0)
            doomed.append(entry)
            excess -= entry[1]

    per_ns: dict[str, list[int]] = {
        ns: [0, 0, 0] for ns in selected  # scanned, deleted, freed
    }
    for _, size, _, ns in entries:
        per_ns[ns][0] += 1
    deleted_bytes = 0
    deleted = 0
    for _, size, path, ns in doomed:
        if not dry_run and not _unlink(path):
            continue
        deleted += 1
        deleted_bytes += size
        per_ns[ns][1] += 1
        per_ns[ns][2] += size
        if not dry_run:
            store.count_evictions(ns)

    kept_bytes: dict[str, int] = {ns: 0 for ns in selected}
    for _, size, _, ns in survivors:
        kept_bytes[ns] += size
    return PruneReport(
        root=str(store.root),
        dry_run=dry_run,
        scanned=len(entries),
        deleted=deleted,
        bytes_before=bytes_before,
        bytes_after=bytes_before - deleted_bytes,
        tmp_removed=tmp_removed,
        namespaces=tuple(
            NamespacePrune(
                namespace=ns,
                scanned=per_ns[ns][0],
                deleted=per_ns[ns][1],
                bytes_freed=per_ns[ns][2],
                bytes_kept=kept_bytes[ns],
            )
            for ns in selected
        ),
    )


def _unlink(path: Path) -> bool:
    try:
        path.unlink()
    except FileNotFoundError:
        return False  # a concurrent prune got there first
    except OSError as exc:
        warnings.warn(
            f"prune could not delete {path}: {exc}; skipping",
            StoreWarning, stacklevel=2,
        )
        return False
    return True
