"""The ``--store`` disk tier of the suite compile cache.

``analyze`` is a pure function of (compiler, kernel, target ISA, vector
flavour, rollback), so its one in-process cache is
:func:`~repro.compiler.vectorizer.analyze_suite`'s table of per-kernel
rows per compile configuration. A :class:`CompileCache` adds what the
tables cannot: one artifact per compiled suite in an
:class:`~repro.store.ArtifactStore`, so a second process restores a
suite's reports in one read instead of compiling them (``repro sweep
--store DIR``), and the restored reports become the table's rows. An
unusable artifact degrades to a recompute with a
:class:`~repro.store.StoreWarning`.
"""

from __future__ import annotations

import warnings
from typing import TYPE_CHECKING

from repro.compiler.model import Compiler, VectorFlavor
from repro.compiler.vectorizer import (
    VectorizationReport,
    analyze_suite,
    intern_reports,
)
from repro.kernels.base import Kernel
from repro.machine.vector import VectorISA

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store import ArtifactStore


class CompileCache:
    """Store-backed :func:`~repro.compiler.vectorizer.analyze_suite`.

    Holds no memory state: each call reads the suite's artifact and
    interns its reports into the compile table
    (:func:`~repro.compiler.vectorizer.intern_reports`), and on a miss
    compiles through the table and writes the artifact when every
    kernel compiled (a failed compilation is re-raised per kernel by
    the caller, never stored).
    """

    def __init__(self, store: "ArtifactStore") -> None:
        self._store = store

    def analyze_suite(
        self,
        compiler: Compiler,
        kernels: tuple[Kernel, ...],
        target: VectorISA,
        flavor: VectorFlavor = VectorFlavor.VLS,
        rollback: bool = False,
    ) -> tuple[VectorizationReport | None, ...]:
        """``analyze_suite``'s reports, restored from the store when it
        holds them."""
        from repro.store.artifact import StoreWarning
        from repro.store.codecs import (
            CodecError,
            decode_report,
            encode_report,
            jsonable_parts,
        )

        # Kernels enter by their (unique, registry-pinned) names; the
        # target by every field ``analyze`` reads.
        key = jsonable_parts((
            "suite", compiler.name, compiler.rvv_version,
            tuple(kernel.name for kernel in kernels), target.name,
            target.version, target.is_scalar_only, flavor, rollback,
        ))
        payload = self._store.get("compile", key)
        if payload is not None:
            try:
                encoded = payload["reports"]
                if not isinstance(encoded, list) or len(encoded) != len(
                    kernels
                ):
                    raise CodecError(
                        "suite report list does not match the kernel list"
                    )
                decoded = tuple(decode_report(entry) for entry in encoded)
            except (CodecError, KeyError, TypeError) as exc:
                warnings.warn(
                    f"stored suite compile artifact is unusable ({exc}); "
                    f"recompiling",
                    StoreWarning, stacklevel=3,
                )
            else:
                return intern_reports(
                    compiler, kernels, target, flavor, rollback, decoded
                )
        reports = analyze_suite(compiler, kernels, target, flavor, rollback)
        if all(report is not None for report in reports):
            self._store.put(
                "compile", key,
                {"reports": [encode_report(report) for report in reports]},
            )
        return reports
