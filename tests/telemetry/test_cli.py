"""CLI surface: ``trace`` subcommand, ``--telemetry`` flags, the
``--profile-out`` implication warning, and artifact schemas."""

import json


from repro.cli import main
from repro.kernels.registry import clear_tables
from tests.telemetry.schema import (
    PIPELINE_PHASES,
    validate_chrome_trace,
    validate_jsonl,
    validate_metrics_dump,
)

SWEEP_ARGS = ["--kernels", "TRIAD,DAXPY", "--threads", "1,4",
              "--placements", "cyclic", "--precisions", "fp32"]


class TestTraceCommand:
    def test_trace_sweep_writes_chrome_trace(self, tmp_path, capsys):
        # A fresh process's compile tables: the sweep compiles its
        # kernels,
        # so the trace holds ``compile.analyze`` spans.
        clear_tables()
        trace = tmp_path / "trace.json"
        rc = main(["trace", "sweep", *SWEEP_ARGS,
                   "--trace-out", str(trace)])
        assert rc == 0
        captured = capsys.readouterr()
        assert f"trace written to {trace}" in captured.err
        assert "telemetry:" in captured.out        # summary printed
        events = validate_chrome_trace(json.loads(trace.read_text()))
        names = {e["name"] for e in events}
        assert PIPELINE_PHASES <= names

    def test_trace_sweep_jsonl_and_metrics(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.txt"
        rc = main(["trace", "sweep", *SWEEP_ARGS,
                   "--trace-out", str(trace),
                   "--metrics-out", str(metrics)])
        assert rc == 0
        spans = validate_jsonl(trace.read_text())
        assert {s["name"] for s in spans} >= {"sweep", "suite.run"}
        tables = validate_metrics_dump(metrics.read_text())
        assert tables["counter"]["sweep.runs"] == "1"
        assert not [name for name in tables["gauge"]
                    if name.startswith("cache.compile.")]

    def test_trace_experiment(self, tmp_path, capsys):
        trace = tmp_path / "exp.json"
        rc = main(["trace", "table2", "--fast",
                   "--trace-out", str(trace)])
        assert rc == 0
        events = validate_chrome_trace(json.loads(trace.read_text()))
        assert events

    def test_trace_unknown_target(self, tmp_path, capsys):
        rc = main(["trace", "nonsense",
                   "--trace-out", str(tmp_path / "t.json")])
        assert rc == 2
        assert "unknown trace target" in capsys.readouterr().err

    def test_trace_unknown_machine(self, tmp_path, capsys):
        rc = main(["trace", "sweep", "--cpu", "z80",
                   "--trace-out", str(tmp_path / "t.json")])
        assert rc == 2


class TestTelemetryFlags:
    def test_sweep_telemetry_prints_summary(self, capsys):
        rc = main(["sweep", *SWEEP_ARGS, "--telemetry"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "telemetry:" in out
        assert "sweep.points" in out

    def test_sweep_without_telemetry_has_no_summary(self, capsys):
        rc = main(["sweep", *SWEEP_ARGS])
        assert rc == 0
        assert "telemetry:" not in capsys.readouterr().out

    def test_trace_out_implies_telemetry(self, tmp_path, capsys):
        trace = tmp_path / "sweep.jsonl"
        rc = main(["sweep", *SWEEP_ARGS, "--trace-out", str(trace)])
        assert rc == 0
        captured = capsys.readouterr()
        assert "telemetry:" in captured.out
        validate_jsonl(trace.read_text())

    def test_run_telemetry(self, capsys):
        rc = main(["run", "--cpu", "sg2042", "--threads", "4",
                   "--telemetry"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "counter suite.kernel_runs = 64" in out

    def test_run_metrics_out(self, tmp_path, capsys):
        metrics = tmp_path / "run-metrics.txt"
        rc = main(["run", "--cpu", "sg2042", "--threads", "1",
                   "--metrics-out", str(metrics)])
        assert rc == 0
        tables = validate_metrics_dump(metrics.read_text())
        assert tables["counter"]["suite.runs"] == "1"

    def test_explain_telemetry_appends_digest(self, capsys):
        rc = main(["explain", "TRIAD", "--telemetry"])
        assert rc == 0
        assert "telemetry:" in capsys.readouterr().out


class TestProfileOutImplication:
    def test_profile_out_alone_profiles_and_warns(self, tmp_path,
                                                  capsys):
        out = tmp_path / "profile.txt"
        rc = main(["sweep", "--kernels", "TRIAD", "--threads", "1",
                   "--placements", "cyclic", "--precisions", "fp32",
                   "--profile-out", str(out)])
        assert rc == 0
        err = capsys.readouterr().err
        assert "--profile is implied" in err      # the warning names it
        assert f"profile written to {out}" in err
        assert "cumulative" in out.read_text()    # pstats report

    def test_profile_with_out_does_not_warn(self, tmp_path, capsys):
        out = tmp_path / "profile.txt"
        rc = main(["sweep", "--kernels", "TRIAD", "--threads", "1",
                   "--placements", "cyclic", "--precisions", "fp32",
                   "--profile", "--profile-out", str(out)])
        assert rc == 0
        assert "implied" not in capsys.readouterr().err
