"""The store's compile tier: one artifact per compiled suite.

A store-backed sweep writes its suite's reports as one ``compile/``
artifact; a later process restores them in one read and compiles
nothing. An unusable artifact warns and recomputes, to the same CSV as
a sweep without a store. Counts of ``analyze()`` calls start from a
empty compile table (the ``compile_counts`` fixture).
"""

import json
import warnings
from dataclasses import replace

import pytest

from repro.compiler.model import XUANTIE_GCC_8_4, VectorFlavor
from repro.compiler.vectorizer import analyze
from repro.kernels.registry import clear_tables, get_kernel
from repro.store import ArtifactStore, StoreWarning
from repro.store.codecs import encode_report, jsonable_parts
from repro.suite.config import Placement, Precision
from repro.suite.memo import SuiteCaches
from repro.suite.sweep import sweep

KERNELS = ("TRIAD", "GEMM", "DOT", "COPY", "PI_REDUCE", "JACOBI_2D")
GRID = dict(
    threads=(1, 8, 32),
    placements=(Placement.BLOCK, Placement.CYCLIC),
    precisions=(Precision.FP32, Precision.FP64),
)


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


def _sweep(cpu, store=None):
    return sweep(
        cpu, [get_kernel(name) for name in KERNELS],
        caches=None if store is None else SuiteCaches.persistent(store),
        **GRID,
    )


def _compile_artifacts(store):
    return sorted((store.root / "compile").glob("*.json"))


def _rewrite_payload(path, edit):
    record = json.loads(path.read_text())
    edit(record["payload"])
    path.write_text(json.dumps(record))


class TestOneArtifactPerSuite:
    def test_sweep_writes_one_composite(self, sg2042, store):
        result = _sweep(sg2042, store)
        assert result == _sweep(sg2042)
        (path,) = _compile_artifacts(store)
        payload = json.loads(path.read_text())["payload"]
        assert len(payload["reports"]) == len(KERNELS)
        assert store.stats()["compile"].puts == 1

    def test_fresh_process_restores_in_one_read(self, sg2042, store,
                                                compile_counts):
        first = _sweep(sg2042, store)
        compiled = compile_counts["analyze"]
        compile_counts["analyze_suite"] = 0
        # A new handle over the same directory: fresh read counters, and
        # the tables emptied as a new process's are.
        clear_tables()
        reader = ArtifactStore(store.root)
        restored = _sweep(sg2042, reader)
        assert restored == first
        assert restored.to_csv() == first.to_csv()
        assert compiled == len(KERNELS)
        assert compile_counts["analyze"] == compiled
        assert compile_counts["analyze_suite"] == 0
        stats = reader.stats()["compile"]
        assert (stats.hits, stats.misses, stats.errors) == (1, 0, 0)
        assert stats.puts == 0


class TestUnusableArtifacts:
    def test_wrong_length_warns_and_recomputes(self, sg2042, store):
        _sweep(sg2042, store)
        (path,) = _compile_artifacts(store)
        _rewrite_payload(
            path, lambda payload: payload["reports"].pop()
        )
        with pytest.warns(StoreWarning, match="suite compile artifact"):
            recovered = _sweep(sg2042, ArtifactStore(store.root))
        assert recovered.to_csv() == _sweep(sg2042).to_csv()

    def test_corrupt_report_warns_and_recomputes(self, sg2042, store):
        _sweep(sg2042, store)
        (path,) = _compile_artifacts(store)

        def corrupt(payload):
            payload["reports"][0]["efficiency"] = "very"

        _rewrite_payload(path, corrupt)
        with pytest.warns(StoreWarning, match="unusable"):
            recovered = _sweep(sg2042, ArtifactStore(store.root))
        assert recovered.to_csv() == _sweep(sg2042).to_csv()

    def test_per_kernel_artifacts_are_never_read(self, sg2042, store):
        """An artifact in the old per-kernel layout, with a wrong
        efficiency, changes nothing: only suite artifacts are read."""
        kernel = get_kernel("TRIAD")
        isa = sg2042.core.isa
        report = analyze(XUANTIE_GCC_8_4, kernel, isa)
        store.put(
            "compile",
            jsonable_parts((
                XUANTIE_GCC_8_4.name, XUANTIE_GCC_8_4.rvv_version,
                kernel.name, isa.name, isa.version, isa.is_scalar_only,
                VectorFlavor.VLS, False,
            )),
            encode_report(replace(report, efficiency=report.efficiency
                                  / 4)),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", StoreWarning)
            stored = _sweep(sg2042, ArtifactStore(store.root))
        assert stored.to_csv() == _sweep(sg2042).to_csv()
        assert len(_compile_artifacts(store)) == 2
