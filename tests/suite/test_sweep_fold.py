"""The sweep's row fold, its result table and its CSV rendering.

A sweep turns each grid point's row of predicted seconds straight into
that point's ``SweepRow``, by the rule ``run_suite``'s bulk fold uses,
without calling ``run_suite``, without building an ``ExecutionResult``
and without building a ``SweepPoint``, traced or checkpointed alike.
These tests count the calls, spans and objects that remain and pin the
fold against the paths that still go through ``run_suite``: chaos and
reference-mode sweeps, the per-kernel loop with the batch predictions
(``per_kernel_loop``), and the points the fold gives up on. They also
pin ``SweepResult.to_csv`` to ``render_csv`` over the same points.
"""

import asyncio
import json
import math
import random
import struct
import sys
import threading
import time
from dataclasses import replace

import pytest

import repro.perfmodel.batch as batch_mod
import repro.suite.runner as runner_mod
import repro.suite.sweep as sweep_mod
from repro.kernels.registry import get_kernel, suite
from repro.machine import catalog
from repro.perfmodel.placement import reference_mode
from repro.resilience import chaos
from repro.resilience.faults import transient_plan
from repro.resilience.retry import FailurePolicy
from repro.suite.config import Placement, Precision
from repro.suite.sweep import SweepFailure, SweepPoint, SweepResult, sweep
from repro.telemetry import telemetry_session
from repro.util.errors import ConfigError
from repro.util.tables import render_csv
from tests.serve.helpers import http_request
from tests.suite.test_sweep_pins import PINNED, _checkpointed, _digest

KERNELS = [get_kernel(name) for name in (
    "TRIAD", "GEMM", "DOT", "COPY", "PI_REDUCE", "JACOBI_2D",
)]
PLACEMENTS = (Placement.BLOCK, Placement.CYCLIC)
PRECISIONS = (Precision.FP32, Precision.FP64)
MACHINES = sorted(catalog.all_cpus())


def _threads(cpu) -> tuple[int, ...]:
    return (1, cpu.topology.num_cores)


@pytest.fixture
def run_suite_calls(monkeypatch):
    """The configs of every grid point the sweep runs through the
    per-kernel loop (``_run_loop``), the path ``run_suite`` takes when
    its fold gives up."""
    calls = []
    real = sweep_mod._run_loop

    def counting(cpu, config, *args, **kwargs):
        calls.append(config)
        return real(cpu, config, *args, **kwargs)

    monkeypatch.setattr(sweep_mod, "_run_loop", counting)
    return calls


def _grid_sweep(cpu, **kwargs):
    return sweep(
        cpu, KERNELS, threads=_threads(cpu), placements=PLACEMENTS,
        precisions=PRECISIONS, **kwargs,
    )


def _reference_sweep(cpu, **kwargs):
    """:func:`_grid_sweep` through ``simulate_kernel``, kernel by
    kernel, with its per-core scan."""
    with reference_mode():
        return _grid_sweep(cpu, **kwargs)


class TestFoldSkipsRunSuite:
    def test_untraced_batch_sweep_makes_no_run_suite_call(
        self, sg2042, run_suite_calls
    ):
        result = _grid_sweep(sg2042)
        assert len(result.points) == 2 * 2 * 2 * len(KERNELS)
        assert run_suite_calls == []

    def test_noisy_sweep_folds_too(self, sg2042, run_suite_calls):
        _grid_sweep(sg2042, runs=5, noise_sigma=0.05)
        assert run_suite_calls == []

    @pytest.mark.parametrize("gives_up", [False, True])
    def test_traced_sweep_runs_each_grid_point(
        self, sg2042, run_suite_calls, per_kernel_loop, gives_up
    ):
        # Each grid point runs once, with one suite.run span: as a fold,
        # with no run_suite call, or, where the fold gives up, through
        # run_suite alone.
        with telemetry_session() as (rec, _):
            if gives_up:
                with per_kernel_loop():
                    _grid_sweep(sg2042)
            else:
                _grid_sweep(sg2042)
        names = [record.name for record in rec.records()]
        assert names.count("suite.run") == 2 * 2 * 2
        assert len(run_suite_calls) == (2 * 2 * 2 if gives_up else 0)

    @pytest.mark.parametrize("mode", ["reference", "chaos"])
    def test_other_paths_run_each_grid_point(
        self, sg2042, run_suite_calls, mode
    ):
        if mode == "reference":
            with reference_mode():
                _grid_sweep(sg2042)
        else:
            with chaos.inject_faults(transient_plan(7, 0.0)):
                _grid_sweep(sg2042)
        assert len(run_suite_calls) == 2 * 2 * 2

    def test_checkpointed_sweep_runs_each_grid_point(
        self, sg2042, run_suite_calls, tmp_path
    ):
        # Each grid point folds and records its kernels, one attempt
        # each, without a run_suite call.
        path = tmp_path / "sweep.jsonl"
        _grid_sweep(sg2042, checkpoint=path)
        records = [
            json.loads(line) for line in path.read_text().splitlines()[1:]
        ]
        assert len(records) == 2 * 2 * 2 * len(KERNELS)
        assert {record["attempts"] for record in records} == {1}
        assert run_suite_calls == []

    def test_traced_full_grid_folds_every_point(
        self, sg2042, run_suite_calls
    ):
        kernels = suite()
        grid = dict(
            threads=(1, 2, 4, 8, 16, 32, 64), placements=tuple(Placement),
            precisions=(Precision.FP32, Precision.FP64),
        )
        plain = sweep(sg2042, kernels, **grid)
        with telemetry_session() as (rec, _):
            traced = sweep(sg2042, kernels, **grid)
        names = [record.name for record in rec.records()]
        assert len(kernels) == 64 and len(traced.rows) == 42
        assert run_suite_calls == []
        assert names.count("kernel.run") == 0
        assert names.count("suite.run") == 42
        assert traced.telemetry.counters["suite.runs"] == 42
        assert traced.telemetry.counters["suite.kernel_runs"] == 42 * 64
        assert traced.to_csv() == plain.to_csv()

    def test_traced_checkpoint_resume_gives_the_pinned_bytes(
        self, run_suite_calls
    ):
        with telemetry_session() as (rec, _):
            fresh = _checkpointed(resume=False)
            resumed = _checkpointed(resume=True)
        assert _digest(fresh) == PINNED["checkpointed"]
        assert _digest(resumed) == PINNED["checkpoint-resumed"]
        assert "kernel.run" not in {record.name for record in rec.records()}
        assert run_suite_calls == []


@pytest.fixture
def built_rows(monkeypatch):
    """One entry per list of ``ExecutionResult``\\ s the batch engine
    builds (its length, the kernels of one configuration)."""
    built = []
    real = batch_mod._execution_results

    def counting(*args, **kwargs):
        out = real(*args, **kwargs)
        built.append(len(out))
        return out

    monkeypatch.setattr(batch_mod, "_execution_results", counting)
    return built


class TestFoldBuildsNoResults:
    """The fold reads a grid point's seconds from the ``predict_grid``
    arrays; ``ExecutionResult``\\ s are built only for the grid points
    that go through ``run_suite``."""

    @pytest.mark.parametrize("runs,noise_sigma", [(1, 0.0), (5, 0.05)])
    def test_untraced_sweep_builds_none(
        self, sg2042, built_rows, runs, noise_sigma
    ):
        result = _grid_sweep(sg2042, runs=runs, noise_sigma=noise_sigma)
        assert len(result.points) == 2 * 2 * 2 * len(KERNELS)
        assert built_rows == []

    def test_traced_sweep_builds_each_grid_point(
        self, sg2042, built_rows, run_suite_calls
    ):
        # Each grid point's row is built from the predict_grid arrays,
        # traced as untraced: no ExecutionResult in between.
        with telemetry_session():
            result = _grid_sweep(sg2042)
        assert len(result.rows) == 2 * 2 * 2
        assert run_suite_calls == []
        assert built_rows == []

    def test_fallback_point_builds_only_its_own(
        self, sg2042, built_rows, run_suite_calls, monkeypatch
    ):
        real = runner_mod.predict_grid

        def abstaining(cpu, kernels, *args, **kwargs):
            out = real(cpu, kernels, *args, **kwargs)
            out.invalid[2, 0] = True
            return out

        expected = _reference_sweep(sg2042)
        monkeypatch.setattr(runner_mod, "predict_grid", abstaining)
        run_suite_calls.clear()
        result = _grid_sweep(sg2042)
        assert result.points == expected.points
        assert len(run_suite_calls) == 1
        assert built_rows == [len(KERNELS)]


@pytest.fixture
def built_points(monkeypatch):
    """Every ``SweepPoint`` built: one entry per ``__init__`` call, and
    one per point of each table-to-points build (``_points_of``)."""
    built = []
    real_init = SweepPoint.__init__
    real_points_of = sweep_mod._points_of

    def counting_init(self, *args, **kwargs):
        built.append("init")
        real_init(self, *args, **kwargs)

    def counting_points_of(rows):
        points = real_points_of(rows)
        built.extend(["rows"] * len(points))
        return points

    monkeypatch.setattr(SweepPoint, "__init__", counting_init)
    monkeypatch.setattr(sweep_mod, "_points_of", counting_points_of)
    return built


def _post_sweep(body: dict) -> dict:
    """One ``/sweep`` request to an in-process server; its JSON body."""
    from repro.serve.server import PredictionServer, ServeConfig

    async def main():
        server = PredictionServer(ServeConfig(port=0, drain_timeout_s=2.0))
        await server.start()
        try:
            return await http_request(server.port, "POST", "/sweep", body)
        finally:
            await server.drain()

    status, _, reply = asyncio.run(main())
    assert status == 200
    return reply


class TestRowsBuildNoPoints:
    """The CSV and ``/sweep`` paths read the result's rows; a
    ``SweepPoint`` is built only when ``.points`` is read, once."""

    @pytest.mark.parametrize("runs,noise_sigma", [(1, 0.0), (5, 0.05)])
    def test_untraced_sweep_and_csv_build_none(
        self, sg2042, built_points, per_kernel_loop, runs, noise_sigma
    ):
        result = _grid_sweep(sg2042, runs=runs, noise_sigma=noise_sigma)
        csv = result.to_csv()
        assert result.point_count == 2 * 2 * 2 * len(KERNELS)
        assert built_points == []
        # Reading the points builds each one once, equal to the points
        # the per-kernel loop builds.
        with per_kernel_loop():
            expected = _grid_sweep(
                sg2042, runs=runs, noise_sigma=noise_sigma
            ).points
        built_points.clear()
        assert result.points == expected
        assert len(built_points) == result.point_count
        assert result.points is result.points
        assert len(built_points) == result.point_count
        assert csv == _render_csv(result.points)

    def test_sweep_request_builds_none(self, built_points):
        body = _post_sweep({
            "kernels": ["TRIAD", "DAXPY", "GEMM"], "threads": [1, 8],
            "placements": ["block", "cyclic"], "precisions": ["fp32"],
            "deadline_ms": 30000,
        })
        assert len(body["points"]) == 3 * 2 * 2
        assert built_points == []

    def test_concurrent_readers_build_the_points_once(
        self, sg2042, monkeypatch
    ):
        results = [
            _grid_sweep(sg2042, runs=runs, noise_sigma=0.05)
            for runs in (1, 2, 3)
        ]
        built = []
        real = sweep_mod._points_of

        def slow(rows):
            built.append(rows)
            time.sleep(0.01)  # the other readers arrive while it builds
            return real(rows)

        monkeypatch.setattr(sweep_mod, "_points_of", slow)
        barrier = threading.Barrier(8)
        seen = [[] for _ in results]

        def read():
            barrier.wait(timeout=30)
            for result, out in zip(results, seen):
                out.append(result.points)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            readers = [
                threading.Thread(target=read, daemon=True)
                for _ in range(8)
            ]
            for reader in readers:
                reader.start()
            for reader in readers:
                reader.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(reader.is_alive() for reader in readers)
        assert len(built) == len(results)
        for result, out in zip(results, seen):
            assert len(out) == 8
            assert all(points is out[0] for points in out)
            assert len(out[0]) == result.point_count

    def test_result_from_points_holds_them(self, sg2042):
        folded = _grid_sweep(sg2042)
        points = folded.points
        rebuilt = SweepResult(points=points, failures=())
        assert rebuilt.points is points
        assert rebuilt == folded and hash(rebuilt) == hash(folded)
        assert rebuilt.rows == folded.rows
        assert rebuilt.to_csv() == folded.to_csv()
        assert rebuilt != SweepResult(points=points[:-1], failures=())
        assert rebuilt != SweepResult(
            points=points, failures=(SweepFailure(
                cpu="sg2042", threads=1, placement=Placement.BLOCK,
                precision=Precision.FP32, kernel="*",
                error_type="ConfigError", message="x", attempts=1,
            ),),
        )
        with pytest.raises(ConfigError, match="no points"):
            SweepResult(points=(), failures=())

    def test_interleaved_points_make_one_row_per_run(self, sg2042):
        points = _grid_sweep(sg2042).points
        shuffled = points[::3] + points[1::3] + points[2::3]
        result = SweepResult(points=shuffled)
        assert result.points is shuffled
        assert result.point_count == len(shuffled)
        runs = 1 + sum(
            (a.cpu, a.threads, a.placement, a.precision)
            != (b.cpu, b.threads, b.placement, b.precision)
            for a, b in zip(shuffled, shuffled[1:])
        )
        assert len(result.rows) == runs
        assert [
            (row.cpu, row.threads, row.placement, row.precision, kernel,
             seconds)
            for row in result.rows
            for kernel, seconds in zip(row.kernels, row.seconds)
        ] == [
            (p.cpu, p.threads, p.placement, p.precision, p.kernel,
             p.seconds)
            for p in shuffled
        ]
        assert result.best_overall() == _grid_sweep(sg2042).best_overall()


class TestFoldEquivalence:
    """Folded points equal the per-point ``run_suite`` paths', bit for
    bit, with the same failures and cache counters."""

    @pytest.mark.parametrize("runs,noise_sigma", [
        (1, 0.0), (1, 0.05), (5, 0.0), (5, 0.05),
    ])
    @pytest.mark.parametrize("machine", MACHINES)
    def test_fold_equals_run_suite_paths(
        self, machine, runs, noise_sigma, per_kernel_loop
    ):
        cpu = catalog.all_cpus()[machine]
        folded = _grid_sweep(cpu, runs=runs, noise_sigma=noise_sigma)
        with per_kernel_loop():
            looped = _grid_sweep(cpu, runs=runs, noise_sigma=noise_sigma)
        with telemetry_session():
            traced = _grid_sweep(cpu, runs=runs, noise_sigma=noise_sigma)
        reference = _reference_sweep(
            cpu, runs=runs, noise_sigma=noise_sigma
        )
        for other in (looped, traced, reference):
            assert other.points == folded.points
            assert other.failures == folded.failures
        assert [p.seconds for p in folded.points] == [
            p.seconds for p in reference.points
        ]


class TestFallbackPoints:
    def test_invalid_thread_count_fails_only_its_point(
        self, sg2042, run_suite_calls, per_kernel_loop
    ):
        grid = dict(
            threads=(1, 999, 8), placements=(Placement.BLOCK,),
            precisions=(Precision.FP32,), policy=FailurePolicy.SKIP,
        )
        result = sweep(sg2042, KERNELS, **grid)
        assert [(f.threads, f.kernel) for f in result.failures] == [
            (999, "*")
        ]
        assert [p.threads for p in result.points] == (
            [1] * len(KERNELS) + [8] * len(KERNELS)
        )
        # Only the invalid point reached run_suite; the others folded.
        assert [c.threads for c in run_suite_calls] == [999]
        with per_kernel_loop():
            looped = sweep(sg2042, KERNELS, **grid)
        with telemetry_session():
            traced = sweep(sg2042, KERNELS, **grid)
        for other in (looped, traced):
            assert other.points == result.points
            assert other.failures == result.failures

    def test_invalid_machine_fails_every_point(
        self, sg2042, run_suite_calls, monkeypatch
    ):
        # Construction validates a CPUModel, so stand in for a machine
        # that went bad later at the validator the sweep's machine check
        # and run_suite both call.
        def invalid(cpu):
            raise ConfigError(f"machine description {cpu.name!r} is bad")

        monkeypatch.setattr(runner_mod, "validate_cpu", invalid)
        result = sweep(
            sg2042, KERNELS, threads=(1, 8), placements=(Placement.BLOCK,),
            precisions=(Precision.FP32,), policy=FailurePolicy.SKIP,
        )
        assert result.points == ()
        assert [(f.threads, f.kernel, f.error_type)
                for f in result.failures] == [
            (1, "*", "ConfigError"), (8, "*", "ConfigError"),
        ]
        assert len(run_suite_calls) == 2

    def test_batch_abstention_takes_the_scalar_prediction(
        self, sg2042, run_suite_calls, monkeypatch
    ):
        grid = dict(
            threads=(1, 8), placements=(Placement.CYCLIC,),
            precisions=(Precision.FP64,),
        )
        with reference_mode():
            expected = sweep(sg2042, KERNELS, **grid)
        real = runner_mod.predict_grid
        abstained = []

        def abstaining(cpu, kernels, *args, **kwargs):
            out = real(cpu, kernels, *args, **kwargs)
            names = [kernel.name for kernel in kernels]
            out.invalid[0, names.index("GEMM")] = True
            abstained.append(out)
            return out

        monkeypatch.setattr(runner_mod, "predict_grid", abstaining)
        run_suite_calls.clear()
        result = sweep(sg2042, KERNELS, **grid)
        assert len(abstained) == 1
        assert result.points == expected.points
        assert result.failures == ()
        # The abstaining point went through run_suite; the other folded.
        assert [c.threads for c in run_suite_calls] == [1]

    def test_kernel_dropped_by_the_prefetch_runs_its_points(
        self, sg2042, run_suite_calls, built_rows, monkeypatch
    ):
        # The prefetch's compile lookup loses GEMM, as a failed
        # compilation would: each row then covers only part of its
        # point's kernels, so no point folds, and run_suite compiles
        # GEMM itself.
        grid = dict(
            threads=(1, 8), placements=(Placement.CYCLIC,),
            precisions=(Precision.FP64,),
        )
        with reference_mode():
            expected = sweep(sg2042, KERNELS, **grid)
        real = runner_mod.analyze_suite

        def dropping(compiler, kernels, *args, **kwargs):
            entries = real(compiler, kernels, *args, **kwargs)
            return [
                None if kernel.name == "GEMM" else entry
                for kernel, entry in zip(kernels, entries)
            ]

        monkeypatch.setattr(runner_mod, "analyze_suite", dropping)
        run_suite_calls.clear()
        result = sweep(sg2042, KERNELS, **grid)
        assert result.points == expected.points
        assert result.failures == ()
        assert [c.threads for c in run_suite_calls] == [1, 8]
        assert built_rows == [len(KERNELS) - 1] * 2

    @pytest.mark.parametrize("bad_seconds", [0.0, -1.0, math.inf, math.nan])
    def test_unusable_time_fails_only_its_kernel(
        self, sg2042, run_suite_calls, monkeypatch, bad_seconds
    ):
        real = runner_mod.predict_grid

        def corrupting(cpu, kernels, *args, **kwargs):
            out = real(cpu, kernels, *args, **kwargs)
            i = [kernel.name for kernel in kernels].index("GEMM")
            # A time the batch engine's validity mask would have
            # caught: where noise scales the row, the fold's own guard
            # must catch it too.
            out.seconds[1, i] = bad_seconds
            return out

        monkeypatch.setattr(runner_mod, "predict_grid", corrupting)
        result = sweep(
            sg2042, KERNELS, threads=(1, 8), placements=(Placement.CYCLIC,),
            precisions=(Precision.FP64,), runs=5, noise_sigma=0.02,
            policy=FailurePolicy.SKIP,
        )
        assert [(f.threads, f.kernel, f.error_type)
                for f in result.failures] == [(8, "GEMM", "SimulationError")]
        assert [p.threads for p in result.points if p.kernel == "GEMM"] == [1]
        assert len(result.points) == 2 * len(KERNELS) - 1
        assert [c.threads for c in run_suite_calls] == [8]


    def test_cell_the_mask_rejects_takes_the_per_kernel_loop(
        self, sg2042, run_suite_calls
    ):
        # An infinite fork-join cost makes every multithreaded time
        # infinite: the batch engine's mask rejects those cells, so a
        # noise-free row folds only where no cell is rejected, and the
        # rejected point's kernels raise the scalar model's error.
        cpu = replace(sg2042, fork_join_ns=math.inf)
        grid = dict(
            threads=(1, 8), placements=(Placement.CYCLIC,),
            precisions=(Precision.FP64,), policy=FailurePolicy.SKIP,
        )
        result = sweep(cpu, KERNELS, **grid)
        assert [(f.threads, f.kernel, f.error_type, f.message)
                for f in result.failures] == [
            (8, kernel.name, "SimulationError",
             "predicted time must be finite")
            for kernel in KERNELS
        ]
        assert [p.threads for p in result.points] == [1] * len(KERNELS)
        assert [c.threads for c in run_suite_calls] == [8]
        with reference_mode():
            expected = sweep(cpu, KERNELS, **grid)
        assert (result.points, result.failures) == (
            expected.points, expected.failures,
        )


def _render_csv(points) -> str:
    """``render_csv`` over a sweep's rows: the reference rendering."""
    return render_csv(
        ("cpu", "threads", "placement", "precision", "kernel", "seconds"),
        [
            (p.cpu, p.threads, p.placement.value, p.precision.label,
             p.kernel, f"{p.seconds:.9f}")
            for p in points
        ],
    )


class TestCsv:
    def test_multi_point_grid(self, sg2042):
        result = _grid_sweep(sg2042, runs=5, noise_sigma=0.05)
        assert len(result.points) > 1
        assert result.to_csv() == _render_csv(result.points)

    def test_grid_with_failures(self, sg2042):
        with chaos.inject_faults(transient_plan(11, 0.3)):
            result = _grid_sweep(sg2042, policy=FailurePolicy.SKIP)
        assert result.failures and result.points
        assert result.to_csv() == _render_csv(result.points)

    def test_checkpoint_resumed_grid(self, sg2042, tmp_path):
        path = tmp_path / "sweep.jsonl"
        full = _grid_sweep(sg2042, checkpoint=path)
        # A kill part-way through: keep the header and the first records.
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:10]) + "\n")
        resumed = _grid_sweep(sg2042, checkpoint=path)
        assert resumed == full
        assert resumed.to_csv() == _render_csv(resumed.points)
        assert resumed.to_csv() == full.to_csv()

    def test_failures_only_result_renders_the_header(self, sg2042):
        result = sweep(
            sg2042, KERNELS, threads=(999,), policy=FailurePolicy.SKIP,
        )
        assert result.points == () and result.failures
        assert result.to_csv() == _render_csv(())
        assert result.to_csv() == (
            "cpu,threads,placement,precision,kernel,seconds"
        )

    def test_comma_in_machine_name_raises(self, sg2042):
        cpu = replace(sg2042, name="Sophon, SG2042")
        result = sweep(cpu, KERNELS[:2], threads=(1, 4))
        with pytest.raises(ConfigError, match="Sophon, SG2042"):
            result.to_csv()

    def test_comma_in_kernel_name_raises(self, sg2042):
        point = sweep(sg2042, KERNELS[:1]).points[0]
        result = SweepResult(
            points=(point, replace(point, kernel="TRIAD,2")),
            failures=(),
        )
        with pytest.raises(ConfigError, match="TRIAD,2"):
            result.to_csv()

    def test_percent_format_prints_the_format_spec_digits(self):
        # to_csv formats a row's seconds with one ``%`` operation; the
        # digits must be the ``{:.9f}`` ones render_csv's rows use.
        rng = random.Random(2042)
        values = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324,
                  1.7976931348623157e308, 5e-10, 1.5e-9, 2.5e-9, 1, True]
        for _ in range(10_000):
            values.append(struct.unpack(
                "<d", struct.pack("<Q", rng.getrandbits(64))
            )[0])
            values.append(rng.random() * 10.0 ** rng.randint(-12, 6))
        assert [("%.9f" % v) for v in values] == [
            f"{v:.9f}" for v in values
        ]

    def test_percent_signs_render_literally(self, sg2042):
        point = sweep(sg2042, KERNELS[:2]).points[0]
        points = (
            replace(point, cpu="SG2042 @ 100%"),
            replace(point, cpu="SG2042 @ 100%", kernel="TRIAD%s"),
            replace(point, kernel="%.9f%%"),
        )
        result = SweepResult(points=points, failures=())
        assert result.to_csv() == _render_csv(points)

    def test_interleaved_points_render_like_render_csv(self, sg2042):
        points = _grid_sweep(sg2042).points
        shuffled = points[::3] + points[1::3] + points[2::3]
        result = SweepResult(
            points=shuffled,
            failures=(SweepFailure(
                cpu="sg2042", threads=1, placement=Placement.BLOCK,
                precision=Precision.FP32, kernel="*",
                error_type="ConfigError", message="x", attempts=1,
            ),),
        )
        assert result.to_csv() == _render_csv(shuffled)
