"""CLI robustness: fault-plan/policy/checkpoint flags, clean top-level
error handling with exit code 2, and --debug re-raising."""

import json

import pytest

from repro.cli import main
from repro.resilience.faults import transient_plan
from repro.util.errors import ConfigError


@pytest.fixture
def always_fail_plan(tmp_path):
    path = tmp_path / "plan.json"
    path.write_text(transient_plan(seed=1, probability=1.0).to_json())
    return str(path)


@pytest.fixture
def transient_plan_file(tmp_path):
    path = tmp_path / "plan.json"
    path.write_text(
        transient_plan(seed=2042, probability=0.3,
                       max_failures=2).to_json()
    )
    return str(path)


class TestTopLevelErrors:
    def test_repro_error_exits_2_with_one_line(self, capsys):
        rc = main(["run", "--cpu", "sg2042", "--compiler", "clang-16"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_debug_reraises(self):
        with pytest.raises(ConfigError):
            main(["--debug", "run", "--cpu", "sg2042",
                  "--compiler", "clang-16"])

    def test_debug_does_not_change_success(self, capsys):
        assert main(["--debug", "list"]) == 0


class TestRunFlags:
    def test_skip_policy_prints_failure_summary(
        self, capsys, always_fail_plan
    ):
        rc = main(["run", "--cpu", "sg2042", "--threads", "2",
                   "--fault-plan", always_fail_plan,
                   "--on-failure", "skip"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "64 failed" in out
        assert "injected" in out

    def test_retry_policy_recovers_transients(
        self, capsys, transient_plan_file
    ):
        rc = main(["run", "--cpu", "sg2042", "--threads", "2",
                   "--fault-plan", transient_plan_file,
                   "--on-failure", "retry", "--retries", "4"])
        assert rc == 0
        assert "failed" not in capsys.readouterr().out

    def test_abort_policy_surfaces_fault(self, capsys, always_fail_plan):
        rc = main(["run", "--cpu", "sg2042",
                   "--fault-plan", always_fail_plan])
        assert rc == 2
        assert "injected fault" in capsys.readouterr().err

    def test_missing_fault_plan_file(self, capsys):
        rc = main(["run", "--fault-plan", "/nope/plan.json"])
        assert rc == 2
        assert "not found" in capsys.readouterr().err


class TestSweepFlags:
    def test_checkpoint_written_and_resumed(self, capsys, tmp_path,
                                            compile_counts):
        ckpt = str(tmp_path / "sweep.jsonl")
        args = ["sweep", "--kernels", "TRIAD,DOT", "--threads", "1,8",
                "--placements", "cluster", "--precisions", "fp32",
                "--checkpoint", ckpt]
        assert main(args) == 0
        first = capsys.readouterr().out
        lines = (tmp_path / "sweep.jsonl").read_text().splitlines()
        assert len(lines) == 5  # header + 4 points
        assert compile_counts["analyze_suite"] == 1
        assert main(args) == 0  # full resume, no recompute
        resumed = capsys.readouterr().out
        assert resumed == first
        # Every point came from the checkpoint: nothing was resolved.
        assert compile_counts["analyze_suite"] == 1

    def test_checkpoint_grid_mismatch_is_clean_error(
        self, capsys, tmp_path
    ):
        ckpt = str(tmp_path / "sweep.jsonl")
        base = ["sweep", "--kernels", "TRIAD", "--placements", "cluster",
                "--precisions", "fp32", "--checkpoint", ckpt]
        assert main(base + ["--threads", "1"]) == 0
        capsys.readouterr()
        assert main(base + ["--threads", "1,8"]) == 2
        assert "different sweep" in capsys.readouterr().err

    def test_sweep_skip_policy_lists_failures(
        self, capsys, always_fail_plan
    ):
        rc = main(["sweep", "--kernels", "TRIAD,DOT", "--threads", "1",
                   "--placements", "cluster", "--precisions", "fp32",
                   "--fault-plan", always_fail_plan,
                   "--on-failure", "skip"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "2 failure(s)" in out

    def test_checkpoint_header_carries_grid_hash(self, tmp_path):
        ckpt = tmp_path / "sweep.jsonl"
        main(["sweep", "--kernels", "TRIAD", "--threads", "1",
              "--placements", "cluster", "--precisions", "fp32",
              "--checkpoint", str(ckpt)])
        header = json.loads(ckpt.read_text().splitlines()[0])
        assert set(header) == {"version", "grid_hash"}
