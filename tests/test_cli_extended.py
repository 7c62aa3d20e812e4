"""CLI tests for the analysis/measure/sweep/chart surfaces."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.resilience.faults import transient_plan

_SRC = str(Path(__file__).resolve().parents[1] / "src")


class TestAnalyze:
    def test_roofline(self, capsys):
        assert main(["analyze", "roofline", "--cpu", "sg2042",
                     "--precision", "fp32"]) == 0
        out = capsys.readouterr().out
        assert "ridge" in out
        assert "GEMM" in out

    def test_bottleneck(self, capsys):
        assert main(["analyze", "bottleneck", "--cpu", "sg2042",
                     "--threads", "32"]) == 0
        out = capsys.readouterr().out
        assert "bottleneck attribution" in out

    def test_unknown_cpu(self, capsys):
        assert main(["analyze", "roofline", "--cpu", "m68k"]) == 2

    def test_mode_required(self):
        with pytest.raises(SystemExit):
            main(["analyze", "everything"])


class TestMeasure:
    def test_stream_class(self, capsys):
        assert main(["measure", "--kernel-class", "stream",
                     "--size", "2000"]) == 0
        out = capsys.readouterr().out
        assert "TRIAD" in out and "GB/s" in out

    def test_fp32(self, capsys):
        assert main(["measure", "--kernel-class", "basic",
                     "--size", "1000", "--precision", "fp32"]) == 0


class TestSweep:
    def test_table_output(self, capsys):
        assert main(["sweep", "--kernels", "TRIAD",
                     "--threads", "1,8", "--placements", "cluster",
                     "--precisions", "fp32"]) == 0
        out = capsys.readouterr().out
        assert "best overall" in out

    def test_csv_output(self, capsys):
        assert main(["sweep", "--kernels", "TRIAD",
                     "--threads", "1", "--placements", "block",
                     "--precisions", "fp64", "--csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("cpu,threads")

    def test_unknown_cpu(self, capsys):
        assert main(["sweep", "--cpu", "z80"]) == 2

    def test_unknown_kernel_surfaces_error(self, capsys):
        assert main(["sweep", "--kernels", "BOGUS"]) == 2
        assert "unknown kernel" in capsys.readouterr().err

    def test_csv_output_with_failures_stays_csv(self, capsys, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text(transient_plan(seed=3, probability=0.5).to_json())
        assert main(["sweep", "--kernels", "TRIAD,GEMM,DOT,COPY",
                     "--threads", "1,8", "--placements", "block",
                     "--precisions", "fp64", "--csv",
                     "--fault-plan", str(plan),
                     "--on-failure", "skip"]) == 0
        captured = capsys.readouterr()
        rows = list(csv.reader(io.StringIO(captured.out)))
        assert rows[0] == ["cpu", "threads", "placement", "precision",
                           "kernel", "seconds"]
        assert len(rows) > 1
        assert all(len(row) == 6 for row in rows)
        assert "failure(s):" in captured.err
        assert "failure(s):" not in captured.out

    def test_repeated_threads_run_once(self, capsys):
        args = ["sweep", "--kernels", "TRIAD,GEMM", "--placements",
                "block", "--precisions", "fp64"]
        assert main([*args, "--threads", "8,16,16"]) == 0
        repeated = capsys.readouterr().out
        assert main([*args, "--threads", "8,16"]) == 0
        assert repeated == capsys.readouterr().out
        assert "best overall: 16 threads" in repeated

    def test_profile_writes_report_to_stderr(self, capsys):
        assert main(["sweep", "--kernels", "TRIAD", "--threads", "1",
                     "--placements", "block", "--precisions", "fp64",
                     "--profile"]) == 0
        captured = capsys.readouterr()
        assert "cumulative" in captured.err
        assert "sweep" in captured.err

    def test_profile_out_writes_file(self, capsys, tmp_path):
        out_file = tmp_path / "profile.txt"
        assert main(["sweep", "--kernels", "TRIAD", "--threads", "1",
                     "--placements", "block", "--precisions", "fp64",
                     "--profile", "--profile-out", str(out_file)]) == 0
        captured = capsys.readouterr()
        assert "profile written" in captured.err
        text = out_file.read_text()
        assert "cumulative" in text

    def test_profile_out_implies_profile(self, capsys, tmp_path):
        out_file = tmp_path / "profile.txt"
        assert main(["sweep", "--kernels", "TRIAD", "--threads", "1",
                     "--placements", "block", "--precisions", "fp64",
                     "--profile-out", str(out_file)]) == 0
        assert "profile written" in capsys.readouterr().err
        assert "cumulative" in out_file.read_text()


class TestGridFlags:
    """``sweep`` and ``trace sweep`` parse one set of grid flags."""

    @pytest.mark.parametrize("command", [["sweep"], ["trace", "sweep"]])
    def test_non_integer_threads_is_one_error_line(self, command,
                                                   tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *command, "--kernels", "TRIAD",
             "--threads", "1,x"],
            capture_output=True, text=True, cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=_SRC),
        )
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "--threads" in lines[0]
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command", [["sweep"], ["trace", "sweep"]])
    @pytest.mark.parametrize("flag, value", [
        ("--threads", "0"), ("--placements", "foo"),
    ])
    def test_bad_grid_value_is_one_error_line(self, command, flag, value,
                                              capsys):
        assert main([*command, "--kernels", "TRIAD", "--threads", "1",
                     flag, value]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")

    @pytest.mark.parametrize("argv", [
        ["sweep", "--workers", "2"],
        ["sweep", "--hosts", "2"],
        ["trace", "sweep", "--workers-mode", "thread"],
    ])
    def test_dispatch_flags_are_unrecognized(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["sweep", "--engine", "scalar"],
        ["trace", "sweep", "--engine", "batch"],
    ])
    def test_engine_is_unrecognized(self, argv, capsys):
        # Parse only: were the flag accepted, main() would run the
        # command.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert (
            "unrecognized arguments: --engine"
            in capsys.readouterr().err
        )

    @pytest.mark.parametrize("argv", [
        ["sweep", "--memo-cap", "10"],
        ["serve", "--memo-cap", "10"],
    ])
    def test_memo_cap_is_unrecognized(self, argv, capsys):
        # Parse only: were the flag accepted, main() would run the
        # command (serve would start serving).
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["serve", "--batch-window-ms", "2"],
        ["serve", "--max-batch", "64"],
        ["serve", "--no-adaptive-window"],
        ["serve", "--min-window-ms", "0"],
    ])
    def test_batching_flags_are_unrecognized(self, argv, capsys):
        # Parse only: were a flag accepted, main() would start serving.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["serve", "--store", "DIR"],
        ["serve", "--no-prewarm"],
        ["serve", "--prewarm-cpu", "sg2042"],
        ["serve", "--prewarm-flavors", "vla"],
        ["serve", "--prewarm-rollback"],
    ])
    def test_serve_store_flags_are_unrecognized(self, argv, capsys):
        # Parse only, for the same reason.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["warm"],
        ["warm", "--store", "DIR"],
        ["warm", "--store", "DIR", "--cpu", "all", "--rollback"],
    ])
    def test_warm_is_an_invalid_choice(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "invalid choice: 'warm'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["sweep", "--no-cache"],
        ["sweep", "--no-cache", "--store", "DIR"],
    ])
    def test_no_cache_is_unrecognized(self, argv, capsys):
        # Parse only: were the flag accepted, main() would run a sweep.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert (
            "unrecognized arguments: --no-cache"
            in capsys.readouterr().err
        )

    def test_help_lists_no_warm_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "sweep" in out and "store" in out
        assert "warm" not in out

    def test_trace_sweep_accepts_all_kernels(self, capsys, tmp_path):
        assert main(["trace", "sweep", "--kernels", "all",
                     "--threads", "1", "--placements", "block",
                     "--trace-out", str(tmp_path / "trace.json")]) == 0
        assert "sweep" in capsys.readouterr().out


class TestSweepStatsOut:
    ARGS = ["sweep", "--cpu", "sg2042", "--kernels", "TRIAD,GEMM",
            "--threads", "1,8", "--placements", "block",
            "--precisions", "fp64"]

    def test_record_holds_no_cache_stats(self, tmp_path, capsys):
        path = tmp_path / "stats.json"
        assert main([*self.ARGS, "--stats-out", str(path)]) == 0
        record = json.loads(path.read_text())
        assert set(record) == {"failures", "points", "seconds", "store"}
        assert (record["points"], record["store"]) == (4, None)
        assert "compile cache" not in capsys.readouterr().out

    def test_store_counts_stay_per_namespace(self, tmp_path):
        path = tmp_path / "stats.json"
        assert main([*self.ARGS, "--store", str(tmp_path / "store"),
                     "--stats-out", str(path)]) == 0
        record = json.loads(path.read_text())
        assert "cache_stats" not in record
        compile_counts = record["store"]["compile"]
        assert (compile_counts["hits"], compile_counts["puts"]) == (0, 1)
        assert set(record["store"]) <= {"compile", "soa"}


class TestChartFlag:
    def test_figure_with_chart(self, capsys):
        assert main(["experiment", "figure1", "--fast", "--chart"]) == 0
        out = capsys.readouterr().out
        assert "bars: times faster/slower" in out

    def test_table_with_chart_flag_is_harmless(self, capsys):
        assert main(["experiment", "table4", "--fast", "--chart"]) == 0


class TestMachineFile:
    def test_run_with_custom_machine(self, capsys, tmp_path):
        from repro.machine import catalog
        from repro.machine.serialize import cpu_to_dict, save_cpu
        from repro.machine.serialize import cpu_from_dict

        data = cpu_to_dict(catalog.sg2042())
        data["name"] = "Custom-920"
        path = tmp_path / "custom.json"
        save_cpu(cpu_from_dict(data), path)
        assert main(["run", "--machine-file", str(path)]) == 0
        assert "Custom-920" in capsys.readouterr().out

    def test_missing_machine_file(self, capsys):
        assert main(["run", "--machine-file", "/nope.json"]) == 2
        assert "does not exist" in capsys.readouterr().err


class TestExplain:
    def test_explain_triad(self, capsys):
        assert main(["explain", "TRIAD"]) == 0
        out = capsys.readouterr().out
        assert "characterization:" in out
        assert "  GCC 8.4 (XuanTie): vectorized" in out
        assert "roofline" in out

    def test_explain_case_insensitive(self, capsys):
        assert main(["explain", "gemm"]) == 0
        assert "GEMM" in capsys.readouterr().out

    def test_explain_unknown_kernel(self, capsys):
        assert main(["explain", "BOGUS"]) == 2

    def test_explain_unknown_cpu(self, capsys):
        assert main(["explain", "TRIAD", "--cpu", "z80"]) == 2

    def test_explain_on_the_sg2044(self, capsys):
        # Its RVV 1.0 compiles with Clang 16 directly, no rollback.
        assert main(["explain", "TRIAD", "--cpu", "sophon_sg2044"]) == 0
        out = capsys.readouterr().out
        assert "compilation on the XuanTie C930 (RVV v1.0):" in out
        assert "  Clang 16: vectorized" in out
        assert "compilation failed" not in out
        assert "predicted times on Sophon SG2044:" in out

    def test_explain_on_amd_rome(self, capsys):
        # The compiler its predicted times use, not the C920's.
        assert main(["explain", "TRIAD", "--cpu", "amd_rome"]) == 0
        out = capsys.readouterr().out
        assert "compilation on the Zen 2 (AVX2):\n  GCC 11.2: " in out
        assert "XuanTie" not in out


class TestExtensionExperiments:
    def test_yardsticks(self, capsys):
        assert main(["experiment", "extension_yardsticks"]) == 0
        out = capsys.readouterr().out
        assert "Rmax" in out
        assert "Sophon SG2042" in out


class TestSensitivityCli:
    def test_sensitivity_mode(self, capsys):
        assert main(["analyze", "sensitivity", "--threads", "32",
                     "--placement", "cluster",
                     "--precision", "fp32"]) == 0
        out = capsys.readouterr().out
        assert "parameter sensitivity" in out
        assert "elasticity" in out


class TestStorePrune:
    def _populate(self, tmp_path):
        import os

        from repro.store import ArtifactStore

        store = ArtifactStore(tmp_path / "store")
        store.put("compile", ("old",), {"v": 1})
        store.put("compile", ("new",), {"v": 2})
        old = store._path("compile", ("old",))
        ancient = old.stat().st_mtime - 10 * 86400
        os.utime(old, (ancient, ancient))
        return store

    def test_dry_run_reports_without_deleting(self, tmp_path, capsys):
        store = self._populate(tmp_path)
        assert main(["store", "prune", "--store", str(store.root),
                     "--max-age-days", "1", "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "would delete 1/2" in out
        assert store.get("compile", ("old",)) is not None

    def test_prune_deletes_by_age(self, tmp_path, capsys):
        store = self._populate(tmp_path)
        assert main(["store", "prune", "--store", str(store.root),
                     "--max-age-days", "1"]) == 0
        out = capsys.readouterr().out
        assert "deleted 1/2" in out
        assert store.get("compile", ("old",)) is None
        assert store.get("compile", ("new",)) is not None

    def test_prune_size_cap(self, tmp_path, capsys):
        store = self._populate(tmp_path)
        assert main(["store", "prune", "--store", str(store.root),
                     "--max-mb", "0"]) == 0
        assert "deleted 2/2" in capsys.readouterr().out

    def test_prune_requires_a_cap(self, tmp_path, capsys):
        store = self._populate(tmp_path)
        assert main(["store", "prune",
                     "--store", str(store.root)]) == 2
        assert "max_bytes" in capsys.readouterr().err
