"""JSONL sweep checkpoints: persist completed points, resume mid-grid.

A killed 64-core sweep should not recompute the 500 points it already
finished. The checkpoint is a line-oriented JSON file: one header line
carrying an integrity stamp (format version + a hash of the sweep grid),
then one line per completed point. Appends are flushed per point, so a
kill mid-grid loses at most the point in flight; a torn trailing line
(killed mid-write) is detected and ignored on load.

The grid hash ties a checkpoint to one exact sweep (machine, kernels,
axes, runs, noise). Resuming with a different grid is an error, not a
silent mix of incompatible numbers.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

from repro.suite.config import RunConfig
from repro.util.errors import CheckpointError, ReproError

#: Bump when the line format changes incompatibly.
CHECKPOINT_VERSION = 1

#: Fields that identify one sweep point inside a checkpoint.
POINT_FIELDS = ("threads", "placement", "precision", "kernel")

PointKey = tuple[int | str, str, str, str]


def thread_key(threads: object) -> int | str:
    """A thread count as :class:`~repro.suite.config.RunConfig` stores
    it, or its ``repr`` when ``RunConfig`` rejects it.

    So ``np.int64(4)`` keys as ``4``, while ``4.0``, ``'4'`` and
    ``4.5`` never match a point or grid of ``4`` (the plain sweep
    rejects them), and ``'x'`` keys without raising.
    """
    if type(threads) is int and threads >= 1:
        return threads  # what RunConfig stores, without building one
    try:
        return RunConfig(threads=threads).threads
    except ReproError:
        return repr(threads)


def point_key(
    threads: object, placement: str, precision: str, kernel: str
) -> PointKey:
    return (thread_key(threads), placement, precision, kernel.upper())


class SweepCheckpoint:
    """One sweep's checkpoint file, opened for resume + append."""

    def __init__(self, path: str | Path, grid_hash: int):
        self.path = Path(path)
        self.grid_hash = int(grid_hash)
        self.completed: dict[PointKey, dict[str, Any]] = {}
        if self.path.exists():
            self._load()
        else:
            self._write_header()

    # -- reading ----------------------------------------------------------

    def _load(self) -> None:
        raw = self.path.read_bytes()
        lines = raw.splitlines()
        if not lines:
            self._write_header()
            return
        header = self._parse_header(
            lines[0].decode("utf-8", errors="replace")
        )
        if header.get("version") != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint {self.path} has format version "
                f"{header.get('version')!r}; this build writes "
                f"{CHECKPOINT_VERSION}"
            )
        if header.get("grid_hash") != self.grid_hash:
            raise CheckpointError(
                f"checkpoint {self.path} belongs to a different sweep "
                f"(grid hash {header.get('grid_hash')} != "
                f"{self.grid_hash}); delete it or rerun the original grid"
            )
        torn = False
        for lineno, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                if lineno == len(lines):
                    # Torn final line from a mid-write kill: recompute
                    # that one point instead of failing the resume.
                    torn = True
                    break
                raise CheckpointError(
                    f"checkpoint {self.path} is corrupt at line {lineno}"
                )
            if not all(f in record for f in POINT_FIELDS):
                if lineno == len(lines):
                    # A final line can also be torn *within* valid JSON
                    # (e.g. flushed through a page boundary): parseable
                    # but missing fields. Same remedy — recompute it.
                    torn = True
                    break
                raise CheckpointError(
                    f"checkpoint {self.path} line {lineno} is missing "
                    f"point fields {POINT_FIELDS}"
                )
            self.completed[point_key(
                record["threads"], record["placement"],
                record["precision"], record["kernel"],
            )] = record
        if torn:
            self._truncate_torn_tail(raw, lines[-1])

    def _truncate_torn_tail(self, raw: bytes, last_line: bytes) -> None:
        """Cut the torn final line off the file, durably.

        Tolerating the torn line in memory is not enough: left on disk
        it would be *appended onto* by the next :meth:`record` (merging
        two records into one corrupt interior line) or, if it ended in a
        newline, become an interior bad line that hard-fails the next
        resume. Truncation heals the file so appends stay line-atomic.
        """
        tail = len(last_line)
        if raw.endswith(b"\r\n"):
            tail += 2
        elif raw.endswith(b"\n"):
            tail += 1
        with self.path.open("r+b") as fh:
            fh.truncate(len(raw) - tail)
            fh.flush()
            os.fsync(fh.fileno())

    def _parse_header(self, line: str) -> dict[str, Any]:
        try:
            header = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CheckpointError(
                f"checkpoint {self.path} has an unreadable header: {exc}"
            ) from exc
        if not isinstance(header, dict) or "grid_hash" not in header:
            raise CheckpointError(
                f"checkpoint {self.path} header is not a sweep "
                "checkpoint stamp"
            )
        return header

    # -- writing ----------------------------------------------------------

    def _write_header(self) -> None:
        """Create the checkpoint with its header stamp, atomically.

        The header is written to a temp file, fsynced, then moved into
        place with :func:`os.replace` — so a kill during creation leaves
        either no checkpoint or a complete header, never a torn one that
        would poison every later resume.
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(self.path.name + ".tmp")
        with tmp.open("w") as fh:
            fh.write(json.dumps({
                "version": CHECKPOINT_VERSION,
                "grid_hash": self.grid_hash,
            }) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)

    def record(self, point: dict[str, Any]) -> None:
        """Append one completed point, flushed *and fsynced* to disk —
        a power loss after ``record`` returns cannot lose the point,
        and a kill mid-``record`` tears at most this one line (which
        resume detects and recomputes)."""
        missing = [f for f in POINT_FIELDS if f not in point]
        if missing:
            raise CheckpointError(
                f"checkpoint point is missing fields {missing}"
            )
        key = point_key(
            point["threads"], point["placement"],
            point["precision"], point["kernel"],
        )
        if key in self.completed:
            return
        self.completed[key] = dict(point)
        with self.path.open("a") as fh:
            fh.write(json.dumps(point) + "\n")
            fh.flush()
            os.fsync(fh.fileno())

    def has(self, key: PointKey) -> bool:
        return key in self.completed

    def __len__(self) -> int:
        return len(self.completed)
