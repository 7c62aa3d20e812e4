"""Store-backed sweeps: the store holds compile reports and lowerings.

A sweep over a store restores its compile reports (and, with a default
store installed, its SoA lowering) from disk and computes every
prediction; no whole-sweep result is persisted or read. So a
store-backed sweep answers exactly like a sweep without a store — for
every grid, on every path — and artifacts an older build left in the
``sweep`` and ``responses`` namespaces are never read.
"""

import json
import os
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest

from repro.kernels.registry import clear_tables, get_kernel
from repro.perfmodel import reference_mode
from repro.resilience import chaos
from repro.resilience.faults import FaultPlan, FaultRule
from repro.resilience.retry import FailurePolicy
from repro.store import KNOWN_NAMESPACES, ArtifactStore, StoreWarning
from repro.store.prune import prune_store
from repro.suite.config import Placement, Precision
from repro.suite.memo import SuiteCaches
from repro.suite.sweep import sweep
from repro.util.errors import ConfigError

_SRC = str(Path(__file__).resolve().parents[2] / "src")

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
    """The storeless scalar answer every warm path must reproduce."""
    with reference_mode():
        return sweep(sg2042, kernels=KERNELS, **GRID)


def _path(mode: str):
    """The context a ``mode`` sweep runs in: the batch engine, or the
    scalar model under ``reference_mode()``."""
    return reference_mode() if mode == "scalar" else nullcontext()


def _envelope(root, namespace, key, payload):
    """Write one artifact in the store's envelope, by hand: what an
    older build left behind in a namespace this one no longer reads."""
    from repro.store import STORE_SCHEMA_VERSION
    from repro.store.artifact import stable_digest

    key = json.loads(json.dumps(key))
    path = root / namespace / (stable_digest(key) + ".json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({
        "schema_version": STORE_SCHEMA_VERSION,
        "namespace": namespace,
        "key": key,
        "payload": payload,
    }))
    return path


class TestGridSensitivity:
    def test_subgrid_restores_every_report_and_recomputes(
        self, store, sg2042, reference, compile_counts
    ):
        _sweep(store, cpu=sg2042)  # fills the store
        clear_tables()
        compiled = compile_counts["analyze"]
        sub = dict(GRID, threads=(8,))
        reader = ArtifactStore(store.root)
        result = _sweep(reader, cpu=sg2042, **sub)
        assert result.points == tuple(
            p for p in reference.points if p.threads == 8
        )
        assert compile_counts["analyze"] == compiled
        stats = reader.stats()["compile"]
        assert (stats.hits, stats.misses, stats.puts) == (1, 0, 0)


class TestEveryPathAnswersLikeNoStore:
    """No path of a store-backed sweep may answer differently from the
    same sweep without a store: a repeat, a checkpointed, a chaos and a
    reference-mode sweep all compute their grid."""

    @pytest.mark.parametrize("mode", ["batch", "scalar"])
    def test_repeat_sweep_recomputes(self, store, sg2042, reference,
                                     mode, compile_counts):
        with _path(mode):
            first = _sweep(store, cpu=sg2042)
        clear_tables()
        compiled = compile_counts["analyze"]
        reader = ArtifactStore(store.root)
        with _path(mode):
            second = _sweep(reader, cpu=sg2042)
        assert first == second == reference
        assert [p.seconds for p in second.points] == [
            p.seconds for p in reference.points
        ]
        # Every compile report came from disk; every prediction was
        # computed.
        assert compile_counts["analyze"] == compiled
        stats = reader.stats()["compile"]
        assert stats.hits >= 1
        assert (stats.misses, stats.puts) == (0, 0)

    def test_checkpointed_sweep(self, store, sg2042, reference, tmp_path):
        ckpt = tmp_path / "sweep.jsonl"
        assert _sweep(store, cpu=sg2042, checkpoint=ckpt) == reference
        assert _sweep(store, cpu=sg2042, checkpoint=ckpt) == reference

    def test_chaos_sweep(self, store, sg2042):
        plan = FaultPlan(seed=7, rules=(
            FaultRule(site="run", probability=1.0, kernels=("GEMM",)),
        ))
        _sweep(store, cpu=sg2042)  # fills the store
        outcomes = []
        for caches in (SuiteCaches.persistent(store), None):
            with chaos.inject_faults(plan):
                outcomes.append(sweep(
                    sg2042, kernels=KERNELS, caches=caches,
                    policy=FailurePolicy.SKIP, **GRID,
                ))
        attached, plain = outcomes
        assert attached == plain
        assert {f.kernel for f in attached.failures} == {"GEMM"}

    def test_reference_mode_sweep(self, store, sg2042, reference):
        _sweep(store, cpu=sg2042)  # fills the store
        with reference_mode():
            assert _sweep(store, cpu=sg2042) == reference


class TestNoSweepArtifacts:
    @pytest.mark.parametrize("mode", ["batch", "scalar"])
    def test_store_sweeps_create_no_sweep_directory(self, store, sg2042,
                                                    mode):
        with _path(mode):
            _sweep(store, cpu=sg2042)
            _sweep(store, cpu=sg2042)
        assert store.artifact_count("compile") > 0
        assert not (store.root / "sweep").exists()
        assert set(store.stats()) == {"compile"}

    def test_known_namespaces_are_compile_and_soa(self):
        assert KNOWN_NAMESPACES == ("compile", "soa")

    def test_second_process_restores_every_report_and_writes_nothing(
        self, tmp_path
    ):
        root = tmp_path / "store"
        argv = [
            sys.executable, "-m", "repro", "sweep", "--kernels",
            "TRIAD,GEMM,DOT", "--threads", "1,8", "--placements",
            "block", "--precisions", "fp64", "--csv", "--store",
            str(root),
        ]
        runs = []
        for name in ("first", "second"):
            stats_path = tmp_path / f"{name}.json"
            proc = subprocess.run(
                [*argv, "--stats-out", str(stats_path)],
                capture_output=True, text=True,
                env=dict(os.environ, PYTHONPATH=_SRC),
            )
            assert proc.returncode == 0, proc.stderr
            runs.append((proc.stdout, json.loads(stats_path.read_text())))
        (first_csv, first), (second_csv, second) = runs
        assert second_csv == first_csv
        assert first["store"]["compile"]["puts"] == 1
        assert second["store"]["compile"]["hits"] == 1
        assert "cache_stats" not in second
        assert "restored" not in second
        assert set(second["store"]) == {"compile", "soa"}
        assert all(ns["puts"] == 0 for ns in second["store"].values())
        assert second["store"]["soa"]["hits"] == 1


class TestLegacySweepArtifacts:
    """Older versions persisted whole sweeps in a ``sweep/`` namespace
    and serve's responses in ``responses/``. Neither is read now, and
    ``store prune`` deletes them only when the namespaces are named."""

    ARGS = ["sweep", "--cpu", "sg2042", "--kernels", "TRIAD,GEMM",
            "--threads", "8", "--placements", "block",
            "--precisions", "fp64", "--csv"]

    @staticmethod
    def _write_sweep(root, cpu):
        """The whole-sweep artifact an older build wrote for
        ``ARGS``'s grid, in its envelope, with a wrong time in it."""
        from repro.suite.memo import machine_digest

        key = ["sweep-result", machine_digest(cpu), ["TRIAD", "GEMM"],
               [8], ["block"], ["fp64"], 1, 0.0, "batch"]
        return _envelope(root, "sweep", key, {
            "payload_version": 1, "cpu": cpu.name,
            "points": [[8, "block", "fp64", "TRIAD", 1.0],
                       [8, "block", "fp64", "GEMM", 2.0]],
        })

    @staticmethod
    def _write_response(root):
        key = ["predict", "1", "d", ["TRIAD"]]
        return _envelope(root, "responses", key, {
            "payload_version": 1, "status": 200,
            "content_type": "application/json", "body": "{}",
        })

    def test_sweep_ignores_an_older_builds_sweep_artifact(
        self, tmp_path, sg2042, capsys, recwarn
    ):
        from repro.cli import main

        root = tmp_path / "store"
        artifact = self._write_sweep(root, sg2042)
        assert main(self.ARGS) == 0
        plain = capsys.readouterr().out
        assert ",1.000000000" not in plain
        assert main([*self.ARGS, "--store", str(root)]) == 0
        assert capsys.readouterr().out == plain
        assert not [w for w in recwarn.list
                    if issubclass(w.category, StoreWarning)]
        assert artifact.is_file()  # left as it was

    def test_prune_leaves_leftovers_unless_named(self, tmp_path, sg2042,
                                                 capsys):
        from repro.cli import main

        root = tmp_path / "store"
        _sweep(ArtifactStore(root), cpu=sg2042)
        leftovers = [self._write_sweep(root, sg2042),
                     self._write_response(root)]
        assert main(["store", "prune", "--store", str(root),
                     "--max-mb", "0"]) == 0
        assert "compile: deleted" in capsys.readouterr().out
        assert all(path.is_file() for path in leftovers)
        assert ArtifactStore(root).artifact_count() == 0

    def test_prune_deletes_both_leftover_namespaces_when_named(
        self, tmp_path, sg2042, capsys
    ):
        from repro.cli import main

        root = tmp_path / "store"
        leftovers = [self._write_sweep(root, sg2042),
                     self._write_response(root)]
        assert main(["store", "prune", "--store", str(root),
                     "--namespaces", "sweep,responses",
                     "--max-mb", "0"]) == 0
        out = capsys.readouterr().out
        assert "deleted 2/2 artifact(s)" in out
        assert "sweep: deleted 1/1" in out
        assert "responses: deleted 1/1" in out
        assert not any(path.exists() for path in leftovers)


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
        from repro.store import jsonable_parts
        from repro.suite.config import RunConfig
        from repro.suite.memo import machine_digest

        config = RunConfig(threads=8, placement=Placement.BLOCK)
        key = jsonable_parts((
            machine_digest(cpu),
            assign_cores(cpu.topology, 8, Placement.BLOCK),
            config.precision, config.resolve_compiler(cpu).name,
            config.flavor, config.rollback, True,
        ))
        size = get_kernel("TRIAD").default_size
        return _envelope(root, "predict", key, {
            "payload_version": 1, "entries": {
                f"TRIAD|{size}": {
                    "seconds": 1.0, "seconds_per_rep": 0.5,
                    "serving_level": "L1", "bound": "compute",
                    "vector_executed": True,
                },
            },
        })

    def test_sweep_ignores_the_page_and_prune_runs_over_it(
        self, tmp_path, sg2042, capsys, recwarn
    ):
        from repro.cli import main

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
    """A value the plain sweep rejects (a thread count, ``runs`` or
    ``noise_sigma`` that :class:`RunConfig` refuses) is rejected the
    same way over a store that holds the sweep of the value it
    converts to."""

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
        _sweep(store, cpu=sg2042, **stored)
        _sweep(store, cpu=sg2042, **stored)

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
        assert not (store.root / "sweep").exists()

    def test_numpy_thread_counts_still_restore(self, store, sg2042):
        _sweep(store, cpu=sg2042, threads=(4, 8))
        reader = ArtifactStore(store.root)
        restored = _sweep(reader, cpu=sg2042,
                          threads=[np.int64(4), 8])
        assert reader.stats()["compile"].hits == 1
        assert restored == _sweep(store, cpu=sg2042, threads=(4, 8))
