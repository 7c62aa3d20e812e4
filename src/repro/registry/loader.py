"""Registry file discovery and parsing.

A registry root is a directory with one subdirectory per document kind
(``machines/``, ``kernels/``, ``compilers/``, ``faults/``,
``placements/``), each holding ``*.json`` and/or ``*.toml`` documents.
JSON is the primary format (it is what :mod:`repro.machine.serialize`
round-trips byte-identically); TOML is accepted for hand-written
documents where Python ships :mod:`tomllib` (3.11+) — the dependency is
gated, never installed, and imported only when a ``.toml`` document is
read.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Sequence

from repro.registry.schema import KINDS, RegistryDoc, parse_document
from repro.util.errors import ConfigError

SUFFIXES = (".json", ".toml")


def iter_kind_paths(
    roots: Sequence[Path], kind: str
) -> list[tuple[Path, Path]]:
    """All ``(root, document path)`` pairs for ``kind``, in root order
    then name order — later roots override earlier ones by name."""
    if kind not in KINDS:
        raise ConfigError(
            f"unknown registry kind {kind!r}; known: {list(KINDS)}"
        )
    pairs: list[tuple[Path, Path]] = []
    for root in roots:
        folder = Path(root) / kind
        if not folder.is_dir():
            continue
        for path in sorted(folder.iterdir()):
            if path.suffix in SUFFIXES and path.is_file():
                pairs.append((Path(root), path))
    return pairs


def read_document_data(path: Path) -> object:
    """Parse one document file into plain Python data."""
    if path.suffix == ".toml":
        try:
            import tomllib
        except ImportError:  # pragma: no cover - Python 3.10
            raise ConfigError(
                f"cannot read {path}: TOML documents need Python 3.11+ "
                "(tomllib); rewrite the document as JSON"
            ) from None
        try:
            return tomllib.loads(path.read_text(encoding="utf-8"))
        except tomllib.TOMLDecodeError as exc:
            raise ConfigError(f"registry document {path}: {exc}") from exc
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"registry document {path} is not valid JSON: {exc}"
        ) from exc


def load_file(path: Path, kind: str | None = None) -> RegistryDoc:
    """Read + envelope-check one document file."""
    target = Path(path)
    if not target.exists():
        raise ConfigError(f"registry document {target} does not exist")
    return parse_document(
        read_document_data(target), source=str(target), kind=kind
    )


def load_documents(
    roots: Iterable[Path], kind: str
) -> dict[str, RegistryDoc]:
    """All documents of ``kind`` across ``roots``, keyed by name.

    A name that appears in several roots resolves to the *last* root's
    document (user ``--registry-path`` directories layer over the
    shipped data). Within one root, duplicate names are an error.
    """
    docs: dict[str, RegistryDoc] = {}
    seen_in_root: dict[Path, set[str]] = {}
    for root, path in iter_kind_paths(list(roots), kind):
        rdoc = load_file(path, kind=kind)
        seen = seen_in_root.setdefault(root, set())
        if rdoc.name in seen:
            raise ConfigError(
                f"registry root {root}: duplicate {kind} document "
                f"name {rdoc.name!r} (second copy at {path})"
            )
        seen.add(rdoc.name)
        docs[rdoc.name] = rdoc
    return docs
