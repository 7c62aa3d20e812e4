"""Checkpoint/resume: integrity header, torn lines, mid-grid resume
without recomputation, and seed-identical resumed results."""

import json

import numpy as np
import pytest

from repro.kernels.registry import get_kernel
from repro.resilience.checkpoint import (
    CHECKPOINT_VERSION,
    SweepCheckpoint,
    point_key,
)
from repro.resilience.retry import FailurePolicy
from repro.suite.config import Placement, Precision
from repro.suite import sweep as sweep_mod
from repro.suite.sweep import sweep
from repro.util.errors import CheckpointError, ConfigError


KERNELS = ("TRIAD", "GEMM", "DOT")
GRID = dict(
    threads=(1, 8),
    placements=(Placement.CLUSTER,),
    precisions=(Precision.FP32,),
)


def grid_kernels():
    return [get_kernel(name) for name in KERNELS]


def run_grid(cpu, **kwargs):
    return sweep(cpu, grid_kernels(), **GRID, **kwargs)


class TestSweepCheckpointFile:
    def test_creates_header(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        SweepCheckpoint(path, grid_hash=123)
        header = json.loads(path.read_text().splitlines()[0])
        assert header == {
            "version": CHECKPOINT_VERSION, "grid_hash": 123,
        }

    def test_record_and_reload(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        ck = SweepCheckpoint(path, grid_hash=1)
        ck.record({"threads": 1, "placement": "cluster",
                   "precision": "fp32", "kernel": "TRIAD",
                   "seconds": 0.5})
        again = SweepCheckpoint(path, grid_hash=1)
        assert len(again) == 1
        assert again.has(point_key(1, "cluster", "fp32", "TRIAD"))

    def test_mismatched_grid_hash_rejected(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        SweepCheckpoint(path, grid_hash=1)
        with pytest.raises(CheckpointError, match="different sweep"):
            SweepCheckpoint(path, grid_hash=2)

    def test_unreadable_header_rejected(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        path.write_text("not json at all\n")
        with pytest.raises(CheckpointError, match="header"):
            SweepCheckpoint(path, grid_hash=1)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        path.write_text(json.dumps(
            {"version": 999, "grid_hash": 1}
        ) + "\n")
        with pytest.raises(CheckpointError, match="version"):
            SweepCheckpoint(path, grid_hash=1)

    def test_torn_final_line_tolerated(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        ck = SweepCheckpoint(path, grid_hash=1)
        ck.record({"threads": 1, "placement": "cluster",
                   "precision": "fp32", "kernel": "TRIAD",
                   "seconds": 0.5})
        with path.open("a") as fh:
            fh.write('{"threads": 8, "placement": "clu')  # kill mid-write
        again = SweepCheckpoint(path, grid_hash=1)
        assert len(again) == 1

    def test_corrupt_interior_line_rejected(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        SweepCheckpoint(path, grid_hash=1)
        lines = path.read_text()
        path.write_text(lines + "garbage\n" + json.dumps({
            "threads": 1, "placement": "cluster", "precision": "fp32",
            "kernel": "TRIAD", "seconds": 0.5,
        }) + "\n")
        with pytest.raises(CheckpointError, match="corrupt"):
            SweepCheckpoint(path, grid_hash=1)

    def test_missing_point_fields_rejected(self, tmp_path):
        ck = SweepCheckpoint(tmp_path / "ck.jsonl", grid_hash=1)
        with pytest.raises(CheckpointError, match="missing"):
            ck.record({"threads": 1, "seconds": 0.5})

    def test_duplicate_record_is_idempotent(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        ck = SweepCheckpoint(path, grid_hash=1)
        point = {"threads": 1, "placement": "cluster",
                 "precision": "fp32", "kernel": "TRIAD", "seconds": 0.5}
        ck.record(point)
        ck.record(point)
        assert len(path.read_text().splitlines()) == 2  # header + 1


class TestSweepResume:
    def test_full_run_writes_all_points(self, sg2042, tmp_path):
        path = tmp_path / "sweep.jsonl"
        result = run_grid(sg2042, checkpoint=path)
        assert len(result.points) == 6
        assert len(path.read_text().splitlines()) == 7  # header + 6

    def test_resume_skips_completed_points(
        self, sg2042, tmp_path, monkeypatch
    ):
        path = tmp_path / "sweep.jsonl"
        full = run_grid(sg2042, checkpoint=path)

        # Simulate a kill after 4 completed points: drop the last 2.
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:5]) + "\n")

        ran: list[str] = []
        real_run_suite = sweep_mod.run_suite

        def counting_run_suite(cpu, config, kernels=None, **kwargs):
            ran.extend(k.name for k in kernels)
            return real_run_suite(cpu, config, kernels=kernels, **kwargs)

        monkeypatch.setattr(sweep_mod, "run_suite", counting_run_suite)
        resumed = run_grid(sg2042, checkpoint=path)
        assert len(ran) == 2  # only the dropped points recompute
        assert [(p.kernel, p.threads, p.seconds) for p in resumed.points] \
            == [(p.kernel, p.threads, p.seconds) for p in full.points]

    def test_fully_checkpointed_sweep_runs_nothing(
        self, sg2042, tmp_path, monkeypatch
    ):
        path = tmp_path / "sweep.jsonl"
        full = run_grid(sg2042, checkpoint=path)

        def exploding_run_suite(*args, **kwargs):
            raise AssertionError("should not recompute anything")

        monkeypatch.setattr(sweep_mod, "run_suite", exploding_run_suite)
        resumed = run_grid(sg2042, checkpoint=path)
        assert [p.seconds for p in resumed.points] \
            == [p.seconds for p in full.points]

    def test_resumed_numbers_match_uncheckpointed_run(
        self, sg2042, tmp_path
    ):
        path = tmp_path / "sweep.jsonl"
        run_grid(sg2042, checkpoint=path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:3]) + "\n")
        resumed = run_grid(sg2042, checkpoint=path)
        plain = run_grid(sg2042)
        assert [(p.kernel, p.seconds) for p in resumed.points] \
            == [(p.kernel, p.seconds) for p in plain.points]

    def test_different_grid_rejects_checkpoint(self, sg2042, tmp_path):
        path = tmp_path / "sweep.jsonl"
        run_grid(sg2042, checkpoint=path)
        with pytest.raises(CheckpointError, match="different sweep"):
            sweep(
                sg2042, grid_kernels(),
                threads=(1, 32),  # different axis
                placements=(Placement.CLUSTER,),
                precisions=(Precision.FP32,),
                checkpoint=path,
            )

    def test_failed_kernels_are_not_checkpointed(self, sg2042, tmp_path):
        from repro.resilience import chaos
        from repro.resilience.faults import transient_plan
        from repro.resilience.retry import FailurePolicy

        path = tmp_path / "sweep.jsonl"
        always = transient_plan(seed=1, probability=1.0)
        with chaos.inject_faults(always):
            run_grid(sg2042, checkpoint=path,
                     policy=FailurePolicy.SKIP)
        assert len(path.read_text().splitlines()) == 1  # header only
        # Resume without the faults: everything recomputes cleanly.
        resumed = run_grid(sg2042, checkpoint=path)
        assert len(resumed.points) == 6


class TestRejectedThreadCounts:
    """Checkpoints key thread counts on the values ``RunConfig`` stores
    (and on the ``repr`` of values it rejects), so a thread count the
    plain sweep rejects never resumes, or writes, the checkpoint of one
    it accepts."""

    KERNELS = ("TRIAD", "GEMM")
    #: Rejected by ``RunConfig``; each but ``'x'`` converts to 4 by int().
    REJECTED = [4.0, "4", 4.5, "x"]
    POLICIES = [FailurePolicy.ABORT, FailurePolicy.SKIP]

    def _sweep(self, cpu, threads, **kwargs):
        kernels = [get_kernel(name) for name in self.KERNELS]
        return sweep(cpu, kernels, threads=threads, **kwargs)

    @staticmethod
    def _outcome(call):
        """A sweep's result, or the error it raised."""
        try:
            return call()
        except ConfigError as exc:
            return exc

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("threads", REJECTED, ids=repr)
    def test_no_resume_over_an_accepted_grid(
        self, sg2042, tmp_path, threads, policy
    ):
        path = tmp_path / "sweep.jsonl"
        self._sweep(sg2042, [4], checkpoint=path)
        before = path.read_bytes()
        with pytest.raises(CheckpointError, match="different sweep"):
            self._sweep(sg2042, [threads], checkpoint=path, policy=policy)
        assert path.read_bytes() == before

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("threads", REJECTED, ids=repr)
    def test_fresh_checkpoint_answers_like_no_checkpoint(
        self, sg2042, tmp_path, threads, policy
    ):
        path = tmp_path / "sweep.jsonl"
        plain = self._outcome(
            lambda: self._sweep(sg2042, [threads], policy=policy)
        )
        checkpointed = self._outcome(lambda: self._sweep(
            sg2042, [threads], policy=policy, checkpoint=path,
        ))
        if policy is FailurePolicy.ABORT:
            assert isinstance(plain, ConfigError)
            assert type(checkpointed) is type(plain)
            assert str(checkpointed) == str(plain)
        else:
            assert [f.kernel for f in plain.failures] == ["*"]
            assert checkpointed.points == plain.points == ()
            assert checkpointed.failures == plain.failures
        assert len(path.read_text().splitlines()) == 1  # header only

    @pytest.mark.parametrize("policy", POLICIES)
    def test_numpy_thread_count_resumes(
        self, sg2042, tmp_path, monkeypatch, policy
    ):
        path = tmp_path / "sweep.jsonl"
        first = self._sweep(sg2042, [4], checkpoint=path)

        def exploding_run_suite(*args, **kwargs):
            raise AssertionError("should not recompute anything")

        monkeypatch.setattr(sweep_mod, "run_suite", exploding_run_suite)
        resumed = self._sweep(
            sg2042, [np.int64(4)], checkpoint=path, policy=policy
        )
        assert [(p.kernel, p.seconds) for p in resumed.points] \
            == [(p.kernel, p.seconds) for p in first.points]
        assert len(resumed.points) == 2

    def test_numpy_thread_count_records_plain_ints(
        self, sg2042, tmp_path
    ):
        path = tmp_path / "sweep.jsonl"
        self._sweep(sg2042, [np.int64(4)], checkpoint=path)
        records = [json.loads(line)
                   for line in path.read_text().splitlines()[1:]]
        assert [r["threads"] for r in records] == [4, 4]
        resumed = self._sweep(sg2042, [4], checkpoint=path)
        assert len(resumed.points) == 2


class TestCrashSafety:
    def test_header_written_atomically_no_temp_left(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        SweepCheckpoint(path, grid_hash=1)
        assert path.exists()
        assert not (tmp_path / "ck.jsonl.tmp").exists()

    def test_valid_json_final_line_missing_fields_tolerated(
        self, tmp_path
    ):
        """A final line can tear *within* valid JSON (flushed through a
        page boundary): parseable but missing point fields. Resume must
        recompute that point, not fail."""
        path = tmp_path / "ck.jsonl"
        ck = SweepCheckpoint(path, grid_hash=1)
        ck.record({"threads": 1, "placement": "cluster",
                   "precision": "fp32", "kernel": "TRIAD",
                   "seconds": 0.5})
        with path.open("a") as fh:
            fh.write('{"threads": 8}\n')
        again = SweepCheckpoint(path, grid_hash=1)
        assert len(again) == 1
        assert again.has(point_key(1, "cluster", "fp32", "TRIAD"))

    def test_interior_line_missing_fields_still_rejected(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        SweepCheckpoint(path, grid_hash=1)
        good = json.dumps({"threads": 1, "placement": "cluster",
                           "precision": "fp32", "kernel": "TRIAD",
                           "seconds": 0.5})
        with path.open("a") as fh:
            fh.write('{"threads": 8}\n')
            fh.write(good + "\n")
        with pytest.raises(CheckpointError, match="missing"):
            SweepCheckpoint(path, grid_hash=1)

    def test_resume_after_torn_tail_recomputes_only_that_point(
        self, sg2042, tmp_path
    ):
        path = tmp_path / "sweep.jsonl"
        clean = run_grid(sg2042)
        run_grid(sg2042, checkpoint=path)
        # Simulate a mid-write kill: tear the final record.
        lines = path.read_text().splitlines()
        torn = "\n".join(lines[:-1]) + "\n" + lines[-1][: len(lines[-1]) // 2]
        path.write_text(torn)
        resumed = run_grid(sg2042, checkpoint=path)
        assert [
            (p.kernel, p.threads, p.seconds) for p in resumed.points
        ] == [
            (p.kernel, p.threads, p.seconds) for p in clean.points
        ]
        # The file healed: every line after the header is complete JSON.
        for line in path.read_text().splitlines()[1:]:
            json.loads(line)

    def test_record_survives_reload_after_every_append(self, tmp_path):
        """Each record() is durable on its own: reloading after every
        single append sees everything written so far."""
        path = tmp_path / "ck.jsonl"
        ck = SweepCheckpoint(path, grid_hash=1)
        for index, kernel in enumerate(("TRIAD", "GEMM", "DOT")):
            ck.record({"threads": 1, "placement": "cluster",
                       "precision": "fp32", "kernel": kernel,
                       "seconds": float(index)})
            assert len(SweepCheckpoint(path, grid_hash=1)) == index + 1
