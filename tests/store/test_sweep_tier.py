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

import numpy as np
import pytest

from repro.kernels.registry import get_kernel
from repro.perfmodel import reference_mode
from repro.resilience import chaos
from repro.resilience.faults import FaultPlan
from repro.resilience.retry import FailurePolicy
from repro.store import KNOWN_NAMESPACES, ArtifactStore, StoreWarning
from repro.store.prune import prune_store
from repro.store.warm import warm_store
from repro.suite.config import Placement, Precision
from repro.suite.memo import CacheCounters, SuiteCaches
from repro.suite.sweep import SweepFailure, SweepResult, sweep
from repro.util.errors import ConfigError

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

    def test_fresh_handle_restores_without_writing(self, store, sg2042):
        _sweep(store, cpu=sg2042)
        # A second process: a new store handle, so its counters start
        # clean. The restore reads one artifact and writes nothing.
        reader = ArtifactStore(store.root)
        assert _sweep(reader, cpu=sg2042).restored
        stats = reader.stats()
        assert stats["sweep"].hits == 1
        assert all(ns.puts == 0 for ns in stats.values())


class TestGridSensitivity:
    def test_subgrid_restores_every_report_and_recomputes(
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
        assert stats.compile_disk_hits == len(KERNELS)

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


class TestLegacyPredictPages:
    """Older versions kept a ``predict/`` namespace of per-configuration
    prediction pages. No sweep writes one now, and a store that still
    holds one is never read: the sweep computes every prediction.
    ``store prune`` leaves the page alone unless the namespace is
    named."""

    ARGS = ["sweep", "--cpu", "sg2042", "--kernels", "TRIAD",
            "--threads", "8", "--placements", "block",
            "--precisions", "fp64", "--csv"]

    @staticmethod
    def _write_page(root, cpu):
        """The page the older version wrote for ``ARGS``'s one
        configuration, in its envelope, with a wrong time in it."""
        from repro.openmp.affinity import assign_cores
        from repro.store import STORE_SCHEMA_VERSION, jsonable_parts
        from repro.store.artifact import stable_digest
        from repro.suite.config import RunConfig
        from repro.suite.memo import machine_digest

        config = RunConfig(threads=8, placement=Placement.BLOCK)
        key = json.loads(json.dumps(jsonable_parts((
            machine_digest(cpu),
            assign_cores(cpu.topology, 8, Placement.BLOCK),
            config.precision, config.resolve_compiler(cpu).name,
            config.flavor, config.rollback, True,
        ))))
        size = get_kernel("TRIAD").default_size
        path = root / "predict" / (stable_digest(key) + ".json")
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({
            "schema_version": STORE_SCHEMA_VERSION,
            "namespace": "predict",
            "key": key,
            "payload": {"payload_version": 1, "entries": {
                f"TRIAD|{size}": {
                    "seconds": 1.0, "seconds_per_rep": 0.5,
                    "serving_level": "L1", "bound": "compute",
                    "vector_executed": True,
                },
            }},
        }))
        return path

    def test_sweep_ignores_the_page_and_prune_runs_over_it(
        self, tmp_path, sg2042, capsys, recwarn, monkeypatch
    ):
        import repro.store
        from repro.cli import main

        # ``sweep --store`` installs the process default store; put the
        # old one back afterwards.
        monkeypatch.setattr(repro.store, "_default_store", None)
        root = tmp_path / "store"
        page = self._write_page(root, sg2042)
        assert main(self.ARGS) == 0
        plain = capsys.readouterr().out
        assert main([*self.ARGS, "--store", str(root)]) == 0
        assert capsys.readouterr().out == plain
        assert not [w for w in recwarn.list
                    if issubclass(w.category, StoreWarning)]
        assert main(["store", "prune", "--store", str(root),
                     "--max-age-days", "1"]) == 0
        assert page.is_file()  # an unknown namespace is left alone

    def test_store_sweeps_write_no_page(self, store, sg2042):
        warm_store(store, sg2042, KERNELS)
        _sweep(store, cpu=sg2042)
        _sweep(store, cpu=sg2042, threads=(8,))  # a sub-grid, computed
        assert "predict" not in KNOWN_NAMESPACES
        assert "predict" not in store.stats()
        assert not (store.root / "predict").exists()

    def test_prune_deletes_the_page_when_named(self, tmp_path, sg2042):
        store = ArtifactStore(tmp_path / "store")
        page = self._write_page(store.root, sg2042)
        report = prune_store(store, max_bytes=0, namespaces=("predict",))
        assert report.deleted == 1
        assert not page.exists()


class TestRejectedArguments:
    """The tier engages only for thread counts, ``runs`` and
    ``noise_sigma`` that :class:`RunConfig` accepts, keyed on the
    values it stores: a value the plain sweep rejects must not restore
    the stored sweep of a value it accepts."""

    #: (stored grid, asked grid): each asked grid holds one value
    #: ``RunConfig`` rejects, whose conversion equals the stored one.
    CASES = {
        "runs=2.0": (dict(threads=(4,), runs=2),
                     dict(threads=(4,), runs=2.0)),
        "threads=[4.0]": (dict(threads=(4,)), dict(threads=[4.0])),
        "noise_sigma=True": (dict(threads=(4, 8), noise_sigma=1.0),
                             dict(threads=(4, 8), noise_sigma=True)),
        "threads=[4.0, 8]": (dict(threads=(4, 8)),
                             dict(threads=[4.0, 8])),
        "threads=['4']": (dict(threads=(4,)), dict(threads=["4"])),
    }

    @staticmethod
    def _outcome(call):
        """A sweep's result, or the error it raised."""
        try:
            return call()
        except ConfigError as exc:
            return exc

    @pytest.mark.parametrize(
        "policy", [FailurePolicy.ABORT, FailurePolicy.SKIP]
    )
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_store_answers_like_no_store(self, store, sg2042, case, policy):
        stored, asked = self.CASES[case]
        assert not _sweep(store, cpu=sg2042, **stored).restored
        assert _sweep(store, cpu=sg2042, **stored).restored
        before = store.stats()["sweep"]

        plain = self._outcome(lambda: sweep(
            sg2042, kernels=KERNELS, **dict(GRID, **asked), policy=policy,
        ))
        attached = self._outcome(lambda: _sweep(
            store, cpu=sg2042, **asked, policy=policy,
        ))
        if policy is FailurePolicy.ABORT:
            assert isinstance(plain, ConfigError)
            assert type(attached) is type(plain)
            assert str(attached) == str(plain)
        else:
            assert plain.failures
            assert any(f.kernel == "*" for f in plain.failures)
            assert attached == plain
            assert attached.failures == plain.failures
            assert not attached.restored
        # Neither a lookup nor a write in the sweep namespace.
        assert store.stats()["sweep"] == before
        assert store.artifact_count("sweep") == 1

    def test_numpy_thread_counts_still_restore(self, store, sg2042):
        _sweep(store, cpu=sg2042, threads=(4, 8))
        restored = _sweep(store, cpu=sg2042, threads=[np.int64(4), 8])
        assert restored.restored
        assert restored == _sweep(store, cpu=sg2042, threads=(4, 8))
