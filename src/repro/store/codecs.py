"""Bit-exact JSON codecs for the artifacts the store persists.

Two artifact kinds:

* ``compile`` — a :class:`VectorizationReport` (the result of
  :func:`repro.compiler.vectorizer.analyze`);
* ``soa`` — a :class:`~repro.perfmodel.batch.KernelSoA` lowering of a
  kernel tuple.

Bit-identity matters more than compactness here: every float travels
through ``json`` as its ``repr``, which Python guarantees to round-trip
finite doubles exactly, so a decoded artifact equals the recomputed
value field for field — the property the store's never-change-results
rule rests on (and the round-trip tests pin).

Decoders are defensive: any malformed payload raises
:class:`CodecError`, which the cache layers translate into a
recompute-with-warning, never a crash.
"""

from __future__ import annotations

import enum
import math
from typing import Any

from repro.compiler.model import VectorFlavor
from repro.compiler.vectorizer import VectorizationReport
from repro.util.errors import ReproError

#: Bump when a codec's payload shape changes incompatibly (independent
#: of the file-level ``STORE_SCHEMA_VERSION``: one covers the envelope,
#: this covers the values inside it).
PAYLOAD_VERSION = 1


class CodecError(ReproError):
    """A store payload did not decode into a valid artifact."""


def jsonable_parts(parts: tuple) -> list:
    """Lower arbitrary cache-key parts to canonical JSON-able values.

    Enums become ``[ClassName, value]`` pairs (class-qualified so two
    enums sharing a value can never collide), tuples become lists
    (recursively); ints, floats, strings, bools and ``None`` pass
    through. Anything else is a programming error — keys must be built
    from these types only, or they would not be stable across
    processes.
    """
    out: list = []
    for part in parts:
        if isinstance(part, enum.Enum):
            out.append([type(part).__name__, part.value])
        elif isinstance(part, tuple):
            out.append(jsonable_parts(part))
        elif part is None or isinstance(part, (bool, int, float, str)):
            out.append(part)
        else:
            raise CodecError(
                f"cache key part {part!r} ({type(part).__name__}) is "
                f"not storable; keys must be built from enums, tuples "
                f"and JSON scalars"
            )
    return out


# -- VectorizationReport -------------------------------------------------


def encode_report(report: VectorizationReport) -> dict:
    return {
        "payload_version": PAYLOAD_VERSION,
        "vectorized": report.vectorized,
        "vector_path_executed": report.vector_path_executed,
        "flavor": report.flavor.value if report.flavor else None,
        "efficiency": report.efficiency,
        "reason": report.reason,
    }


def decode_report(payload: dict) -> VectorizationReport:
    _require_version(payload, "compile report")
    try:
        flavor = payload["flavor"]
        report = VectorizationReport(
            vectorized=bool(payload["vectorized"]),
            vector_path_executed=bool(payload["vector_path_executed"]),
            flavor=VectorFlavor(flavor) if flavor is not None else None,
            efficiency=_finite_float(payload["efficiency"], "efficiency"),
            reason=str(payload["reason"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CodecError(f"malformed compile report payload: {exc}")
    return report


# -- KernelSoA -----------------------------------------------------------


def encode_soa(soa) -> dict:
    """Lower a :class:`~repro.perfmodel.batch.KernelSoA` to arrays of
    JSON scalars (bools stay bools, floats stay exact via repr)."""
    return {
        "payload_version": PAYLOAD_VERSION,
        "kernels": [k.name for k in soa.kernels],
        "arrays": {
            name: [
                bool(v) if name == "gather" else float(v)
                for v in getattr(soa, name)
            ]
            for name in SOA_ARRAY_FIELDS
        },
    }


#: The array fields of ``KernelSoA`` in declaration order.
SOA_ARRAY_FIELDS = (
    "flops_per_iter", "reads_per_iter", "writes_per_iter",
    "footprint_elems", "traffic_scale", "parallel_fraction",
    "regions_per_rep", "reps", "gather", "default_sizes",
)


def decode_soa(payload: dict, kernels: tuple):
    """Rebuild a ``KernelSoA`` for ``kernels`` from a stored payload.

    The caller supplies the live kernel objects (registry singletons);
    the payload supplies the arrays. Name order must match exactly —
    a reordered or renamed catalog is a :class:`CodecError` (and the
    key digest would normally have changed anyway).
    """
    from repro.perfmodel.batch import KernelSoA, _frozen

    _require_version(payload, "SoA lowering")
    names = payload.get("kernels")
    if names != [k.name for k in kernels]:
        raise CodecError("SoA payload kernel names do not match request")
    arrays = payload.get("arrays")
    if not isinstance(arrays, dict):
        raise CodecError("SoA payload has no arrays object")
    decoded: dict[str, Any] = {}
    for name in SOA_ARRAY_FIELDS:
        values = arrays.get(name)
        if not isinstance(values, list) or len(values) != len(kernels):
            raise CodecError(f"SoA array {name!r} is missing or mis-sized")
        if name == "gather":
            decoded[name] = _frozen([bool(v) for v in values], dtype=bool)
        else:
            decoded[name] = _frozen(
                [_finite_float(v, name) for v in values]
            )
    return KernelSoA(kernels=kernels, **decoded)


# -- shared helpers ------------------------------------------------------


def _finite_float(value: Any, field: str) -> float:
    try:
        out = float(value)
    except (TypeError, ValueError) as exc:
        raise CodecError(f"{field} is not a number: {exc}")
    if not math.isfinite(out):
        raise CodecError(f"{field} is not finite ({out})")
    return out


def _require_version(payload: dict, kind: str) -> None:
    if payload.get("payload_version") != PAYLOAD_VERSION:
        raise CodecError(
            f"{kind} payload has version "
            f"{payload.get('payload_version')!r}; this build reads "
            f"{PAYLOAD_VERSION}"
        )
