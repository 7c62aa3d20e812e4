"""Sweep utility tests."""

import os
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import pytest

from repro import telemetry
from repro.kernels.registry import clear_tables, get_kernel
from repro.store import ArtifactStore, StoreWarning
from repro.suite.config import Placement, Precision
from repro.suite.memo import SuiteCaches
from repro.suite.sweep import SweepResult, sweep
from repro.util.errors import ConfigError

_SRC = str(Path(__file__).resolve().parents[2] / "src")


@pytest.fixture(scope="module")
def small_sweep(sg2042):
    return sweep(
        sg2042,
        kernels=[get_kernel("TRIAD"), get_kernel("GEMM")],
        threads=(1, 8, 32),
        placements=(Placement.CYCLIC, Placement.CLUSTER),
        precisions=(Precision.FP32,),
    )


class TestSweep:
    def test_grid_size(self, small_sweep):
        # 2 kernels x 3 thread counts x 2 placements x 1 precision.
        assert len(small_sweep.points) == 12

    def test_filtered(self, small_sweep):
        points = small_sweep.filtered(threads=8,
                                      placement=Placement.CYCLIC)
        assert len(points) == 2

    def test_best_for_kernel_is_min(self, small_sweep):
        best = small_sweep.best_for_kernel("TRIAD")
        all_triad = small_sweep.filtered(kernel="TRIAD")
        assert best.seconds == min(p.seconds for p in all_triad)

    def test_best_for_kernel_case_insensitive(self, small_sweep):
        assert small_sweep.best_for_kernel("triad").kernel == "TRIAD"

    def test_filtered_kernel_case_insensitive(self, sg2042, small_sweep):
        # filtered() normalizes like best_for_kernel: the registry
        # stores names upper-case, so lower-case criteria must match.
        lower = small_sweep.filtered(kernel="triad")
        upper = small_sweep.filtered(kernel="TRIAD")
        assert lower == upper
        assert len(lower) == 6
        # A kernel keeps the name it ran under: a TRIAD copy renamed
        # out of upper case is found by that name, and by its case.
        renamed = type(get_kernel("TRIAD"))()
        renamed.name = "triad_v2"
        result = sweep(sg2042, [renamed, get_kernel("DOT")], threads=(1, 4))
        points = result.filtered(kernel="triad_v2")
        assert [(p.kernel, p.threads) for p in points] == [
            ("triad_v2", 1), ("triad_v2", 4),
        ]
        assert result.filtered(kernel="TRIAD_V2") == points
        assert result.best_for_kernel("triad_v2") in points

    def test_filtered_kernel_normalization_composes(self, small_sweep):
        points = small_sweep.filtered(kernel="gemm", threads=8)
        assert [p.kernel for p in points] == ["GEMM", "GEMM"]

    def test_best_overall_shape(self, small_sweep):
        threads, placement, precision = small_sweep.best_overall()
        assert threads in (1, 8, 32)
        assert placement in (Placement.CYCLIC, Placement.CLUSTER)
        assert precision is Precision.FP32

    def test_threading_helps_gemm(self, small_sweep):
        best = small_sweep.best_for_kernel("GEMM")
        assert best.threads > 1

    def test_to_csv(self, small_sweep):
        csv = small_sweep.to_csv()
        lines = csv.splitlines()
        assert lines[0].startswith("cpu,threads")
        assert len(lines) == 13

    def test_unknown_kernel_rejected(self, small_sweep):
        with pytest.raises(ConfigError):
            small_sweep.best_for_kernel("NOPE")

    def test_empty_axes_rejected(self, sg2042):
        with pytest.raises(ConfigError):
            sweep(sg2042, kernels=[get_kernel("TRIAD")], threads=())

    def test_empty_kernels_rejected(self, sg2042):
        with pytest.raises(ConfigError):
            sweep(sg2042, kernels=[])

    def test_filtered_unknown_attribute_rejected(self, small_sweep):
        with pytest.raises(ConfigError, match="thread_count"):
            small_sweep.filtered(thread_count=8)

    def test_filtered_error_lists_known_attributes(self, small_sweep):
        with pytest.raises(ConfigError, match="threads"):
            small_sweep.filtered(bogus=1)

    def test_filtered_mixed_known_unknown_rejected(self, small_sweep):
        with pytest.raises(ConfigError):
            small_sweep.filtered(threads=8, bogus=1)


class TestSerialDispatch:
    def test_import_loads_no_process_pool(self):
        """Sweeps run serially: importing the module must not pull in
        the process-pool machinery."""
        script = (
            "import sys, repro.suite.sweep;"
            "print(sorted({'multiprocessing', 'concurrent.futures.process'}"
            " & set(sys.modules)))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONPATH=_SRC),
        )
        assert proc.stdout.strip() == "[]"


class TestRepeatedKernels:
    """A kernel named twice is swept once, whatever the path."""

    GRID = dict(threads=(1, 4))

    def test_plain_and_checkpointed_sweeps_agree(self, sg2042, tmp_path):
        kernels = [get_kernel("TRIAD"), get_kernel("TRIAD"),
                   get_kernel("COPY")]
        plain = sweep(sg2042, kernels, **self.GRID)
        checkpointed = sweep(
            sg2042, kernels, checkpoint=tmp_path / "sweep.jsonl",
            **self.GRID,
        )
        assert [(p.threads, p.kernel) for p in plain.points] == [
            (1, "TRIAD"), (1, "COPY"), (4, "TRIAD"), (4, "COPY"),
        ]
        assert checkpointed == plain

    def test_store_sweep_restores_on_its_second_call(
        self, sg2042, tmp_path, compile_counts
    ):
        store = ArtifactStore(tmp_path / "store")
        kernels = [get_kernel("TRIAD"), get_kernel("triad")]
        with warnings.catch_warnings():
            warnings.simplefilter("error", StoreWarning)
            first = sweep(sg2042, kernels,
                          caches=SuiteCaches.persistent(store),
                          **self.GRID)
            clear_tables()
            reader = ArtifactStore(store.root)
            second = sweep(sg2042, kernels,
                           caches=SuiteCaches.persistent(reader),
                           **self.GRID)
        assert second == first
        assert [(p.threads, p.kernel) for p in second.points] == [
            (1, "TRIAD"), (4, "TRIAD"),
        ]
        # The second call restores the one kernel's compile report and
        # computes its grid again; no whole sweep is stored.
        assert reader.stats()["compile"].hits == 1
        assert compile_counts["analyze"] == 1
        assert not (tmp_path / "store" / "sweep").exists()

    def test_traced_store_sweep_runs_its_grid_every_time(
        self, sg2042, tmp_path
    ):
        store = ArtifactStore(tmp_path / "store")
        kernels = [get_kernel("TRIAD"), get_kernel("GEMM")]
        with telemetry.telemetry_session():
            results = [
                sweep(sg2042, kernels,
                      caches=SuiteCaches.persistent(store), **self.GRID)
                for _ in range(2)
            ]
        first, second = results
        assert second == first
        assert second.telemetry.phase_counts["suite.run"] == 2
        assert second.telemetry.counters["sweep.runs"] == 2
        assert "sweep.restored" not in second.telemetry.counters
        assert "restored" not in {f.name for f in fields(SweepResult)}

    def test_cli_store_sweep_runs_twice_without_warning(self, tmp_path):
        argv = [
            sys.executable, "-m", "repro", "sweep", "--kernels",
            "TRIAD,triad", "--threads", "1,4", "--placements", "block",
            "--precisions", "fp64", "--store", str(tmp_path / "store"),
            "--csv",
        ]
        outputs = []
        for _ in range(2):
            proc = subprocess.run(
                argv, capture_output=True, text=True,
                env=dict(os.environ, PYTHONPATH=_SRC),
            )
            assert proc.returncode == 0, proc.stderr
            assert "StoreWarning" not in proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assert len(outputs[0].splitlines()) == 1 + 2  # header + 2 rows


class TestRepeatedAxisValues:
    """A thread count, placement or precision given twice is swept
    once: the result is the grid without the repeats."""

    KERNELS = ("TRIAD", "GEMM")

    def _sweep(self, cpu, **grid):
        return sweep(cpu, [get_kernel(name) for name in self.KERNELS],
                     **grid)

    @pytest.mark.parametrize("repeated, plain", [
        (dict(threads=[8, 16, 16]), dict(threads=[8, 16])),
        (dict(threads=[16, 8, 16, 8]), dict(threads=[16, 8])),
        (dict(placements=[Placement.BLOCK, Placement.CYCLIC,
                          Placement.BLOCK]),
         dict(placements=[Placement.BLOCK, Placement.CYCLIC])),
        (dict(precisions=[Precision.FP32, Precision.FP32]),
         dict(precisions=[Precision.FP32])),
    ])
    @pytest.mark.parametrize("traced", [False, True])
    def test_result_is_the_grid_without_repeats(self, sg2042, repeated,
                                                plain, traced,
                                                per_kernel_loop):
        if traced:
            # Each grid point through run_suite's per-kernel loop.
            with telemetry.telemetry_session(), per_kernel_loop():
                result = self._sweep(sg2042, **repeated)
        else:
            result = self._sweep(sg2042, **repeated)
        expected = self._sweep(sg2042, **plain)
        assert result == expected
        assert result.rows == expected.rows
        assert result.to_csv() == expected.to_csv()
        assert result.best_overall() == expected.best_overall()

    def test_best_overall_counts_each_point_once(self, sg2042):
        result = self._sweep(sg2042, threads=[8, 16, 16])
        assert [row.threads for row in result.rows] == [8, 16]
        seconds = {row.threads: sum(row.seconds) for row in result.rows}
        assert seconds[16] < seconds[8]
        assert result.best_overall()[0] == 16

    def test_checkpointed_sweep_hashes_the_grid_without_repeats(
        self, sg2042, tmp_path
    ):
        path = tmp_path / "sweep.jsonl"
        first = self._sweep(sg2042, threads=[1, 4, 4], checkpoint=path)
        # The same grid without repeats resumes the same checkpoint.
        resumed = self._sweep(sg2042, threads=[1, 4], checkpoint=path)
        assert resumed == first == self._sweep(sg2042, threads=[1, 4])

    def test_thread_counts_compare_by_thread_key(self, sg2042):
        with pytest.raises(ConfigError, match="threads"):
            self._sweep(sg2042, threads=[4, 4.0])
        result = self._sweep(sg2042, threads=[4, 4.0],
                             policy="skip")
        assert [row.threads for row in result.rows] == [4]
        assert [(f.threads, f.kernel) for f in result.failures] == [
            (4.0, "*")
        ]


class TestAxisLabels:
    """A placement or precision may be given by its label; it stands for
    its member, in the CSV, the checkpoint and the repeats."""

    KERNELS = ("TRIAD", "GEMM")
    ENUMS = dict(
        placements=[Placement.BLOCK, Placement.CLUSTER],
        precisions=[Precision.FP32, Precision.FP64],
    )

    def _sweep(self, cpu, **grid):
        return sweep(cpu, [get_kernel(name) for name in self.KERNELS],
                     threads=(1, 8), **grid)

    @pytest.mark.parametrize("grid", [
        dict(placements=["block", "cluster"],
             precisions=[Precision.FP32, Precision.FP64]),
        dict(placements=[Placement.BLOCK, Placement.CLUSTER],
             precisions=["fp32", "fp64"]),
        dict(placements=["block", Placement.CLUSTER],
             precisions=["fp32", Precision.FP64]),
    ], ids=["placement-labels", "precision-labels", "mixed"])
    @pytest.mark.parametrize("noisy", [False, True])
    def test_labels_give_the_enum_csv(self, sg2042, grid, noisy):
        noise = dict(runs=5, noise_sigma=0.02) if noisy else {}
        got = self._sweep(sg2042, **grid, **noise)
        want = self._sweep(sg2042, **self.ENUMS, **noise)
        assert got.to_csv().encode() == want.to_csv().encode()
        assert got == want

    def test_checkpointed_sweep_with_labels_runs(self, sg2042, tmp_path):
        path = tmp_path / "sweep.jsonl"
        labels = dict(placements=["block", "cluster"],
                      precisions=["fp32", "fp64"])
        first = self._sweep(sg2042, checkpoint=path, **labels)
        # The enum grid is the same grid: it resumes the checkpoint.
        resumed = self._sweep(sg2042, checkpoint=path, **self.ENUMS)
        assert first == resumed == self._sweep(sg2042, **self.ENUMS)
        assert first.to_csv() == resumed.to_csv()

    @pytest.mark.parametrize("axis, values, member", [
        ("placements", ["block", Placement.BLOCK], Placement.BLOCK),
        ("placements", [Placement.CYCLIC, "cyclic"], Placement.CYCLIC),
        ("precisions", ["fp32", Precision.FP32], Precision.FP32),
    ])
    def test_label_and_member_repeat(self, sg2042, axis, values, member):
        result = self._sweep(sg2042, **{axis: values})
        assert len(result.rows) == 2  # one per thread count
        assert result == self._sweep(sg2042, **{axis: [member]})

    def test_unknown_label_rejected(self, sg2042):
        with pytest.raises(ConfigError, match="placement"):
            self._sweep(sg2042, placements=["diagonal"])
        with pytest.raises(ConfigError, match="dtype"):
            self._sweep(sg2042, precisions=["fp128"])
