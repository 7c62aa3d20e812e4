"""Codec round-trips are bit-exact; malformed payloads raise CodecError."""

import enum
import json

import pytest

from repro.compiler.model import XUANTIE_GCC_8_4
from repro.compiler.vectorizer import analyze
from repro.kernels.registry import all_kernels, get_kernel
from repro.machine.vector import rvv_0_7_1
from repro.perfmodel.batch import lower_kernels
from repro.store import CodecError, jsonable_parts
from repro.store.codecs import (
    decode_report,
    decode_soa,
    encode_report,
    encode_soa,
)


def _json_round_trip(payload):
    """What the store actually does to a payload between put and get."""
    return json.loads(json.dumps(payload))


class TestReportCodec:
    def test_round_trip_every_kernel(self):
        isa = rvv_0_7_1()
        for kernel in all_kernels():
            report = analyze(XUANTIE_GCC_8_4, kernel, isa)
            payload = _json_round_trip(encode_report(report))
            assert decode_report(payload) == report

    def test_version_mismatch_raises(self):
        report = analyze(XUANTIE_GCC_8_4, get_kernel("TRIAD"), rvv_0_7_1())
        payload = encode_report(report)
        payload["payload_version"] = 99
        with pytest.raises(CodecError, match="version"):
            decode_report(payload)

    def test_missing_field_raises(self):
        report = analyze(XUANTIE_GCC_8_4, get_kernel("TRIAD"), rvv_0_7_1())
        payload = encode_report(report)
        del payload["efficiency"]
        with pytest.raises(CodecError):
            decode_report(payload)


class TestSoaCodec:
    def test_round_trip_matches_fresh_lowering(self):
        from repro.store.codecs import SOA_ARRAY_FIELDS

        kernels = tuple(all_kernels()[:5])
        soa = lower_kernels(kernels)
        payload = _json_round_trip(encode_soa(soa))
        decoded = decode_soa(payload, kernels)
        assert decoded.kernels == soa.kernels
        for name in SOA_ARRAY_FIELDS:
            # NumPy equality is elementwise; exact (floats restore
            # bit-for-bit through repr), so plain == must hold per slot.
            assert (getattr(decoded, name) == getattr(soa, name)).all()

    def test_kernel_name_mismatch_raises(self):
        kernels = tuple(all_kernels()[:3])
        payload = encode_soa(lower_kernels(kernels))
        with pytest.raises(CodecError, match="kernel names"):
            decode_soa(payload, tuple(reversed(kernels)))

    def test_missized_array_raises(self):
        kernels = tuple(all_kernels()[:3])
        payload = encode_soa(lower_kernels(kernels))
        payload["arrays"]["reps"] = payload["arrays"]["reps"][:-1]
        with pytest.raises(CodecError, match="reps"):
            decode_soa(payload, kernels)


class TestJsonableParts:
    def test_enums_are_class_qualified(self):
        class A(enum.Enum):
            X = 1

        class B(enum.Enum):
            X = 1

        assert jsonable_parts((A.X,)) != jsonable_parts((B.X,))

    def test_nested_tuples_lower_to_lists(self):
        assert jsonable_parts((("a", (1, 2.5)), None, True)) == [
            ["a", [1, 2.5]], None, True
        ]

    def test_unstorable_part_raises(self):
        with pytest.raises(CodecError, match="not storable"):
            jsonable_parts((object(),))
