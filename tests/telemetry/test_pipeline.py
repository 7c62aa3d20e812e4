"""Integration: the instrumented pipeline under a telemetry session.

Pins the acceptance criteria: a traced sweep covers the
compile and predict (and, under chaos, retry) phases, traced results
stay bit-identical to untraced ones, and with telemetry off the results
carry no summary at all.
"""


from repro import telemetry
from repro.kernels.registry import all_kernels, clear_tables
from repro.machine import catalog
from repro.perfmodel.placement import reference_mode
from repro.resilience import chaos, transient_plan
from repro.resilience.retry import FailurePolicy, RetrySpec
from repro.suite.config import Placement, Precision, RunConfig
from repro.suite.runner import run_suite
from repro.suite.sweep import sweep

CPU = catalog.sg2042()
KERNELS = all_kernels()[:8]
GRID = dict(
    threads=(1, 8),
    placements=(Placement.BLOCK, Placement.CYCLIC),
    precisions=(Precision.FP32,),
)


class TestSuiteTelemetry:
    def test_off_by_default(self):
        result = run_suite(CPU, RunConfig(threads=4), kernels=KERNELS)
        assert result.telemetry is None

    def test_traced_suite_summary(self):
        # The suite folds: one batch pass, no per-kernel span. Under
        # reference mode its per-kernel loop records one kernel.run per
        # kernel; both are counted the same way.
        with telemetry.telemetry_session():
            result = run_suite(CPU, RunConfig(threads=4),
                               kernels=KERNELS)
        with telemetry.telemetry_session(), reference_mode():
            looped = run_suite(CPU, RunConfig(threads=4),
                               kernels=KERNELS)
        summary = result.telemetry
        assert summary is not None
        assert summary.phase_counts["suite.run"] == 1
        assert summary.phase_counts["predict.batch"] == 1
        assert "kernel.run" not in summary.phase_counts
        assert looped.telemetry.phase_counts["kernel.run"] == len(KERNELS)
        for summary in (result.telemetry, looped.telemetry):
            assert summary.counters["suite.runs"] == 1
            assert summary.counters["suite.kernel_runs"] == len(KERNELS)
            assert summary.dropped_spans == 0

    def test_traced_suite_bit_identical(self):
        plain = run_suite(CPU, RunConfig(threads=4), kernels=KERNELS)
        with telemetry.telemetry_session():
            traced = run_suite(CPU, RunConfig(threads=4),
                               kernels=KERNELS)
        assert traced == plain  # telemetry/cache_stats excluded from eq

    def test_render_mentions_phases(self):
        with telemetry.telemetry_session():
            result = run_suite(CPU, RunConfig(threads=1),
                               kernels=KERNELS)
        text = result.telemetry.render()
        assert "suite.run" in text
        assert "span(s)" in text


class TestSweepTelemetry:
    def test_off_by_default(self):
        result = sweep(CPU, KERNELS, **GRID)
        assert result.telemetry is None

    def test_phase_coverage(self):
        # From empty compile tables, so the sweep compiles its kernels.
        # The grid folds, so kernel.run is recorded only where the
        # per-kernel loop runs: here under reference mode.
        clear_tables()
        with telemetry.telemetry_session() as (rec, _):
            result = sweep(CPU, KERNELS, **GRID)
        names = {r.name for r in rec.records()}
        assert {"sweep", "sweep.prefetch", "suite.run",
                "compile.resolve", "compile.analyze",
                "predict.grid"} <= names
        assert "kernel.run" not in names
        assert result.telemetry.phase_counts["sweep"] == 1
        with telemetry.telemetry_session() as (rec, _), reference_mode():
            sweep(CPU, KERNELS, **GRID)
        assert {"kernel.run", "predict.scalar"} <= {
            r.name for r in rec.records()
        }

    def test_span_tree_roots_at_sweep(self):
        with telemetry.telemetry_session() as (rec, _):
            sweep(CPU, KERNELS, **GRID)
        records = rec.records()
        by_id = {r.span_id: r for r in records}
        (root,) = [r for r in records if r.name == "sweep"]
        assert root.parent_id is None
        for r in records:
            if r.name in ("sweep.prefetch", "suite.run"):
                assert by_id[r.parent_id].name == "sweep"

    def test_no_cache_gauges(self):
        with telemetry.telemetry_session() as (rec, _):
            result = sweep(CPU, KERNELS, **GRID)
        assert not [name for name in result.telemetry.gauges
                    if name.startswith("cache.")]
        assert "memo.peek" not in {r.name for r in rec.records()}

    def test_sweep_counters(self):
        with telemetry.telemetry_session():
            result = sweep(CPU, KERNELS, **GRID)
        counters = result.telemetry.counters
        assert counters["sweep.runs"] == 1
        assert counters["sweep.points"] == len(result.points)
        assert counters["suite.runs"] == 4  # grid points
        assert "sweep.failures" not in counters
        # Every cell is predicted once, the colliding t=1 placements
        # included.
        assert counters["engine.batch.predictions"] == len(result.points)

    def test_traced_sweep_bit_identical(self):
        plain = sweep(CPU, KERNELS, **GRID)
        with telemetry.telemetry_session():
            traced = sweep(CPU, KERNELS, **GRID)
        assert traced == plain

    def test_reference_mode_records_scalar_predictions(self):
        with telemetry.telemetry_session(), reference_mode():
            result = sweep(CPU, KERNELS, **GRID)
        assert "predict.scalar" in result.telemetry.phase_counts
        assert "predict.grid" not in result.telemetry.phase_counts


class TestRetryTelemetry:
    def test_retry_phases_and_counters_under_chaos(self):
        plan = transient_plan(seed=2042, probability=0.2,
                              max_failures=2)
        with telemetry.telemetry_session():
            with chaos.inject_faults(plan):
                result = sweep(
                    CPU, KERNELS, policy=FailurePolicy.RETRY,
                    retry=RetrySpec(max_retries=3), **GRID,
                )
        summary = result.telemetry
        assert summary.phase_counts.get("retry", 0) >= 1
        assert summary.phase_counts.get("retry.attempt", 0) >= 1
        assert summary.counters.get("retry.attempts", 0) >= 1

    def test_exhausted_counter(self):
        always = transient_plan(seed=1, probability=1.0)
        with telemetry.telemetry_session():
            with chaos.inject_faults(always):
                result = sweep(
                    CPU, KERNELS[:2], policy=FailurePolicy.RETRY,
                    retry=RetrySpec(max_retries=1), threads=(1,),
                )
        assert result.failures
        summary = result.telemetry
        assert summary.counters["retry.exhausted"] >= 1
        assert summary.counters["sweep.failures"] == len(result.failures)


class TestSummaryShape:
    def test_phase_seconds_are_inclusive(self):
        with telemetry.telemetry_session():
            result = sweep(CPU, KERNELS, **GRID)
        summary = result.telemetry
        # The root sweep span contains everything, so its inclusive time
        # dominates any child phase.
        assert summary.phase_seconds["sweep"] >= max(
            v for k, v in summary.phase_seconds.items() if k != "sweep"
        )

    def test_summary_is_picklable(self):
        import pickle

        with telemetry.telemetry_session():
            result = sweep(CPU, KERNELS, **GRID)
        clone = pickle.loads(pickle.dumps(result.telemetry))
        assert clone.counters == result.telemetry.counters

    def test_report_helper_renders(self):
        from repro.suite.report import telemetry_summary

        plain = sweep(CPU, KERNELS, **GRID)
        assert "telemetry: off" in telemetry_summary(plain)
        with telemetry.telemetry_session():
            traced = sweep(CPU, KERNELS, **GRID)
        assert "span(s)" in telemetry_summary(traced)
