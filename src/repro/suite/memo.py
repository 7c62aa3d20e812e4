"""Machine digests + the store tier of a run's compile reports.

:func:`machine_digest` names a machine by its full description, so two
equal machines share cache entries while any re-tuned parameter changes
the name.

:class:`SuiteCaches` carries the optional ``--store`` tier of compile
reports through ``run_suite`` and ``sweep``. Predictions themselves are
never cached: every one is computed by the batch engine (or, on the
scalar, chaos and reference paths, by ``simulate_kernel``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

from repro.compiler.cache import CompileCache
from repro.machine.cpu import CPUModel
from repro.util.rng import derive_seed

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store import ArtifactStore


@lru_cache(maxsize=128)
def machine_digest(cpu: CPUModel) -> int:
    """Stable 63-bit digest of a machine's full description.

    Derived from the canonical serialized form of the model
    (:func:`repro.machine.serialize.cpu_to_dict`, which renders the
    ISA's ``vectorizable`` frozenset in sorted order), so it is
    content-addressed *and* stable across processes: equal machines
    digest equally even under hash randomization, while any parameter
    change — a cache size, a thrash threshold — changes it. That
    cross-process stability is what lets two server instances compare
    their machines by digest (``GET /machines``). Cached per model
    object (the serialization walk is far pricier than a dataclass
    hash).
    """
    from repro.machine.serialize import cpu_to_dict

    canonical = json.dumps(
        cpu_to_dict(cpu), sort_keys=True, separators=(",", ":")
    )
    return derive_seed("machine-digest", canonical)


@dataclass
class SuiteCaches:
    """The ``--store`` disk tier a run resolves its compile reports
    through.

    ``SuiteCaches()`` has none: reports resolve through the
    in-process compile table
    (:func:`~repro.compiler.vectorizer.analyze_suite`) alone, as they
    do with no ``caches`` at all.
    """

    compile: CompileCache | None = None

    @classmethod
    def persistent(cls, store: "ArtifactStore") -> "SuiteCaches":
        """Compile reports read from and written to ``store``."""
        return cls(compile=CompileCache(store))
