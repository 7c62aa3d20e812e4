"""The whole-sweep artifact tier: one read restores a full grid.

The fastest warm tier: a failure-free sweep persists its complete
point list as one ``sweep`` artifact, and an identical later sweep
(same machine, kernels, axes, runs, noise, engine) restores it whole —
bit-identically, with ``restored=True`` provenance — instead of
recomputing. Anything that could perturb replay (checkpoints, chaos
plans, reference mode) bypasses the tier, and a damaged artifact
degrades to a warned recompute.
"""

import json
from dataclasses import replace

import pytest

from repro.kernels.registry import get_kernel
from repro.perfmodel import reference_mode
from repro.resilience import chaos
from repro.resilience.faults import FaultPlan
from repro.store import ArtifactStore, StoreWarning
from repro.store.warm import warm_store
from repro.suite.config import Placement, Precision
from repro.suite.memo import CacheCounters, SuiteCaches
from repro.suite.sweep import SweepFailure, SweepResult, sweep

KERNELS = (get_kernel("TRIAD"), get_kernel("GEMM"))
GRID = dict(
    threads=(1, 8),
    placements=(Placement.BLOCK, Placement.CYCLIC),
    precisions=(Precision.FP32,),
)


def _sweep(store, cpu, **overrides):
    kwargs = dict(GRID, caches=SuiteCaches.persistent(store))
    kwargs.update(overrides)
    return sweep(cpu, kernels=KERNELS, **kwargs)


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


@pytest.fixture(scope="module")
def reference(sg2042):
    """The uncached scalar answer every warm path must reproduce."""
    return sweep(sg2042, kernels=KERNELS,
                 caches=SuiteCaches.disabled(), engine="scalar", **GRID)


def _artifact(store):
    files = list((store.root / "sweep").glob("*.json"))
    assert len(files) == 1
    return files[0]


class TestRestore:
    def test_priming_sweep_computes_and_persists(self, store, sg2042):
        result = _sweep(store, cpu=sg2042)
        assert not result.restored
        assert store.artifact_count("sweep") == 1

    def test_second_sweep_restores_bit_identically(
        self, store, sg2042, reference
    ):
        _sweep(store, cpu=sg2042)
        restored = _sweep(store, cpu=sg2042)
        assert restored.restored
        assert restored == reference  # points compare; provenance not
        assert [p.seconds for p in restored.points] == [
            p.seconds for p in reference.points
        ]

    def test_restored_counters_are_honest_zeros(self, store, sg2042):
        _sweep(store, cpu=sg2042)
        restored = _sweep(store, cpu=sg2042)
        # The caches were never consulted, and the counters say so.
        assert restored.cache_stats == CacheCounters()
        assert store.stats()["sweep"].hits == 1

    def test_restore_works_across_engines(self, store, sg2042, reference):
        _sweep(store, cpu=sg2042, engine="scalar")
        # Same grid, same engine: restored. The engine is part of the
        # key, so the batch request computes its own artifact instead
        # of trusting the scalar one's provenance.
        assert _sweep(store, cpu=sg2042, engine="scalar").restored
        batch = _sweep(store, cpu=sg2042, engine="batch")
        assert not batch.restored
        assert batch == reference

    def test_restored_flag_is_excluded_from_equality(
        self, store, sg2042
    ):
        result = _sweep(store, cpu=sg2042)
        assert replace(result, restored=True) == result

    def test_memory_only_caches_never_probe_the_tier(self, sg2042):
        result = sweep(sg2042, kernels=KERNELS, **GRID)
        assert not result.restored


class TestGridSensitivity:
    def test_subgrid_falls_back_to_the_page_tier(
        self, store, sg2042, reference
    ):
        warm_store(store, sg2042, KERNELS)
        _sweep(store, cpu=sg2042)
        sub = dict(GRID, threads=(8,))
        caches = SuiteCaches.persistent(store)
        result = sweep(sg2042, kernels=KERNELS, caches=caches, **sub)
        assert not result.restored  # different grid, different key
        assert result.points == tuple(
            p for p in reference.points if p.threads == 8
        )
        stats = caches.stats()
        assert stats.compile_misses == 0
        assert stats.predict_misses == 0
        assert stats.predict_disk_hits > 0

    def test_runs_and_noise_are_part_of_the_key(self, store, sg2042):
        _sweep(store, cpu=sg2042)
        noisy = _sweep(store, cpu=sg2042, runs=3, noise_sigma=0.05)
        assert not noisy.restored
        assert store.artifact_count("sweep") == 2


class TestDegradation:
    def test_torn_artifact_recomputes_bit_identically(
        self, store, sg2042, reference
    ):
        _sweep(store, cpu=sg2042)
        path = _artifact(store)
        path.write_text(path.read_text()[:40])
        with pytest.warns(StoreWarning, match="corrupt artifact"):
            result = _sweep(store, cpu=sg2042)
        assert not result.restored
        assert result == reference
        # The recompute re-persisted a good artifact; the tier heals.
        assert _sweep(store, cpu=sg2042).restored

    def test_wrong_point_count_recomputes_with_warning(
        self, store, sg2042, reference
    ):
        _sweep(store, cpu=sg2042)
        path = _artifact(store)
        record = json.loads(path.read_text())
        record["payload"]["points"].pop()
        path.write_text(json.dumps(record))
        with pytest.warns(StoreWarning, match="sweep result is unusable"):
            result = _sweep(store, cpu=sg2042)
        assert not result.restored
        assert result == reference

    def test_garbled_seconds_recomputes_with_warning(
        self, store, sg2042, reference
    ):
        _sweep(store, cpu=sg2042)
        path = _artifact(store)
        record = json.loads(path.read_text())
        record["payload"]["points"][0][4] = "fast"
        path.write_text(json.dumps(record))
        with pytest.warns(StoreWarning, match="unusable"):
            result = _sweep(store, cpu=sg2042)
        assert result == reference


class TestGuards:
    def test_checkpointed_sweeps_bypass_the_tier(
        self, store, sg2042, tmp_path
    ):
        ckpt = tmp_path / "sweep.ckpt"
        _sweep(store, cpu=sg2042, checkpoint=ckpt)
        # Replays must come from the checkpoint protocol, not the store.
        assert store.artifact_count("sweep") == 0
        resumed = _sweep(store, cpu=sg2042, checkpoint=ckpt)
        assert not resumed.restored

    def test_chaos_plans_bypass_the_tier(self, store, sg2042):
        _sweep(store, cpu=sg2042)  # primed
        with chaos.inject_faults(FaultPlan(seed=7)):
            result = _sweep(store, cpu=sg2042)
        assert not result.restored

    def test_reference_mode_bypasses_the_tier(self, store, sg2042):
        _sweep(store, cpu=sg2042)  # primed
        with reference_mode():
            result = _sweep(store, cpu=sg2042)
        assert not result.restored

    def test_failed_sweeps_are_never_persisted(self, store, sg2042):
        from repro.suite.sweep import _persist_sweep, _sweep_store_key

        key = _sweep_store_key(
            sg2042, KERNELS, (1,), (Placement.BLOCK,),
            (Precision.FP32,), 1, 0.0, "batch",
        )
        failed = SweepResult(
            points=(),
            failures=(SweepFailure(
                cpu="sg2042", threads=1, placement=Placement.BLOCK,
                precision=Precision.FP32, kernel="TRIAD",
                error_type="SimulationError", message="boom",
                attempts=1,
            ),),
        )
        _persist_sweep(store, key, failed)
        assert store.artifact_count("sweep") == 0
