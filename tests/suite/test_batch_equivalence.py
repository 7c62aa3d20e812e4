"""Golden equivalence: the batch engine is bit-identical to scalar.

The vectorized whole-suite engine (:mod:`repro.perfmodel.batch`, which
``run_suite`` and ``sweep`` predict with) replays the scalar model's
float64 operations as NumPy array expressions; nothing it does is
allowed to change a single bit of any result, failure record or grid
ordering. The scalar side of each comparison runs under
``reference_mode()``, where every kernel goes through
``simulate_kernel`` and its per-core scan. These tests pin that
contract: golden full grids on the SG2042 and AMD Rome, a seeded
randomized sweep over every catalog machine, the noisy suite-level fold
against the per-kernel loop and ``np.mean``, failure-policy equivalence
(including the scalar-fallback path), equality over one store, the
chaos/reference-mode scalar degradation, and the removed ``engine``
argument.
"""

import random
from dataclasses import replace

import numpy as np
import pytest

from repro import telemetry
from repro.compiler.vectorizer import analyze
from repro.kernels.base import Kernel, KernelClass, KernelTraits
from repro.kernels.registry import all_kernels, suite
from repro.machine import catalog
from repro.machine.vector import DType
from repro.perfmodel.batch import (
    lower_kernels,
    predict_batch,
    predict_grid,
)
from repro.perfmodel.execution import simulate_kernel
from repro.perfmodel.placement import reference_mode
from repro.resilience import chaos
from repro.resilience.faults import transient_plan
from repro.store import ArtifactStore
from repro.suite.config import Placement, Precision, RunConfig
from repro.suite.memo import SuiteCaches
from repro.suite.runner import run_suite
from repro.suite.sweep import sweep
from repro.util.errors import ReproError
from repro.util.rng import derive_seed, noise_factors

THREADS = (1, 5, 8, 64)
PLACEMENTS = (Placement.BLOCK, Placement.CYCLIC)
PRECISIONS = (Precision.FP32, Precision.FP64)
#: Noise run counts on both sides of NumPy's 8-element pairwise-sum
#: block, so the fold's row reduction is checked where its summation
#: order changes.
NOISY_RUNS = (1, 5, 8, 9, 17)


def grid_sweep(cpu, **kwargs):
    threads = tuple(
        t for t in THREADS if t <= cpu.topology.num_cores
    )
    return sweep(
        cpu,
        kernels=all_kernels(),
        threads=threads,
        placements=PLACEMENTS,
        precisions=PRECISIONS,
        **kwargs,
    )


def scalar_run_suite(*args, **kwargs):
    """``run_suite`` through ``simulate_kernel``, kernel by kernel."""
    with reference_mode():
        return run_suite(*args, **kwargs)


class TestGoldenGrids:
    def test_sg2042_batch_matches_scalar(self, sg2042):
        with reference_mode():
            scalar = grid_sweep(sg2042)
        batch = grid_sweep(sg2042)
        assert batch == scalar

    def test_amd_rome_batch_matches_scalar(self, amd_rome):
        with reference_mode():
            scalar = grid_sweep(amd_rome)
        batch = grid_sweep(amd_rome)
        assert batch == scalar

    def test_batch_matches_scalar_over_one_store(self, sg2042, tmp_path):
        # Both paths resolve the suite through the same store tier: one
        # artifact, written by the first and read by the second.
        store = ArtifactStore(tmp_path / "store")
        with reference_mode():
            scalar = grid_sweep(sg2042,
                                caches=SuiteCaches.persistent(store))
        batch = grid_sweep(sg2042, caches=SuiteCaches.persistent(store))
        assert batch == scalar
        assert store.artifact_count("compile") == 1


class TestRandomizedEquivalence:
    def test_random_points_on_every_machine(self, all_cpus, kernels):
        """Property test: random kernel subsets, placements, thread
        counts and dtypes on all seven machines — batch equals scalar
        point for point."""
        rng = random.Random(20260806)
        for cpu in all_cpus.values():
            ncores = cpu.topology.num_cores
            compiler = RunConfig(threads=1).resolve_compiler(cpu)
            reports_all = {
                k.name: analyze(compiler, k, cpu.core.isa)
                for k in kernels
            }
            for _ in range(6):
                subset = rng.sample(kernels, rng.randint(1, 12))
                nthreads = rng.randint(1, ncores)
                cores = tuple(rng.sample(range(ncores), nthreads))
                precision = rng.choice((DType.FP32, DType.FP64))
                reports = [reports_all[k.name] for k in subset]
                batch = predict_batch(
                    cpu, subset, cores, precision, reports
                )
                for kernel, report, got in zip(subset, reports, batch):
                    want = simulate_kernel(
                        kernel, cpu, cores, precision, report
                    )
                    assert got == want, (
                        f"{cpu.name} {kernel.name} cores={cores} "
                        f"{precision.label}: {got} != {want}"
                    )

    def test_explicit_sizes_match_scalar(self, sg2042, kernels):
        compiler = RunConfig(threads=1).resolve_compiler(sg2042)
        subset = kernels[:6]
        reports = [analyze(compiler, k, sg2042.core.isa) for k in subset]
        sizes = [17, 1000, 54321, 1, 99999, 123456]
        cores = (0, 4, 17)
        batch = predict_batch(
            sg2042, subset, cores, DType.FP64, reports, sizes
        )
        for kernel, report, size, got in zip(
            subset, reports, sizes, batch
        ):
            assert got == simulate_kernel(
                kernel, sg2042, cores, DType.FP64, report, n=size
            )


class TestBatchValidation:
    def test_report_count_mismatch(self, sg2042, kernels):
        with pytest.raises(ReproError):
            predict_batch(sg2042, kernels[:3], (0,), DType.FP64, [])

    def test_size_count_mismatch(self, sg2042, kernels):
        compiler = RunConfig(threads=1).resolve_compiler(sg2042)
        reports = [analyze(compiler, kernels[0], sg2042.core.isa)]
        with pytest.raises(ReproError):
            predict_batch(
                sg2042, kernels[:1], (0,), DType.FP64, reports, [1, 2]
            )

    def test_duplicate_cores_rejected(self, sg2042, kernels):
        compiler = RunConfig(threads=1).resolve_compiler(sg2042)
        reports = [analyze(compiler, kernels[0], sg2042.core.isa)]
        with pytest.raises(ReproError):
            predict_batch(
                sg2042, kernels[:1], (0, 0), DType.FP64, reports
            )

    def test_empty_kernel_list_returns_empty(self, sg2042):
        assert predict_batch(sg2042, [], (0,), DType.FP64, []) == []

    def test_the_suite_is_lowered_once(self, kernels):
        """One lowering of the suite serves every kernel list: the suite
        takes it as it is, a fresh list of the same kernels its rows."""
        from repro.store.codecs import SOA_ARRAY_FIELDS

        whole = lower_kernels(suite())
        assert lower_kernels(suite()) is whole
        fresh = lower_kernels(tuple(kernels))
        assert fresh.kernels == tuple(kernels)
        for name in SOA_ARRAY_FIELDS:
            assert getattr(fresh, name).tolist() == getattr(
                whole, name).tolist()
        empty = lower_kernels(())
        assert empty.kernels == () and len(empty) == 0
        for name in SOA_ARRAY_FIELDS:
            assert getattr(empty, name).tolist() == []


class TestPredictGrid:
    """The 2-D whole-grid pass equals per-configuration predict_batch."""

    @staticmethod
    def _grid_axes(cpu):
        from repro.openmp.affinity import assign_cores

        placements, precisions = [], []
        for threads in THREADS:
            if threads > cpu.topology.num_cores:
                continue
            for placement in PLACEMENTS:
                for precision in PRECISIONS:
                    placements.append(
                        assign_cores(cpu.topology, threads, placement)
                    )
                    precisions.append(precision)
        return placements, precisions

    @pytest.mark.parametrize("machine", ["sg2042", "amd_rome"])
    def test_full_grid_matches_per_point_batch(
        self, machine, request, kernels
    ):
        cpu = request.getfixturevalue(machine)
        compiler = RunConfig(threads=1).resolve_compiler(cpu)
        reports = [analyze(compiler, k, cpu.core.isa) for k in kernels]
        placements, precisions = self._grid_axes(cpu)
        grid = predict_grid(cpu, kernels, placements, precisions, reports)
        assert len(grid) == len(placements)
        for i, (cores, precision) in enumerate(zip(placements, precisions)):
            want = predict_batch(cpu, kernels, cores, precision, reports)
            assert grid.results(i) == want, (
                f"{cpu.name} cores={cores} {precision}"
            )

    @staticmethod
    def _random_grids(all_cpus, kernels, extra=()):
        """One seeded random grid per catalog machine: ``(cpu, kernels,
        placements, precisions, reports)``, with ``extra`` kernels
        appended to each random subset."""
        rng = random.Random(20260807)
        for cpu in all_cpus.values():
            ncores = cpu.topology.num_cores
            compiler = RunConfig(threads=1).resolve_compiler(cpu)
            subset = rng.sample(kernels, rng.randint(1, 10)) + list(extra)
            reports = [
                analyze(compiler, k, cpu.core.isa) for k in subset
            ]
            placements = [
                tuple(rng.sample(range(ncores), rng.randint(1, ncores)))
                for _ in range(5)
            ]
            precisions = [
                rng.choice((DType.FP32, DType.FP64)) for _ in placements
            ]
            yield cpu, subset, placements, precisions, reports

    def test_random_grids_on_every_machine(self, all_cpus, kernels):
        for cpu, subset, placements, precisions, reports in (
            self._random_grids(all_cpus, kernels)
        ):
            grid = predict_grid(
                cpu, subset, placements, precisions, reports
            )
            for i, (cores, precision) in enumerate(
                zip(placements, precisions)
            ):
                want = predict_batch(
                    cpu, subset, cores, precision, reports
                )
                assert grid.results(i) == want, f"{cpu.name} cores={cores}"

    def test_columns_agree_with_results(self, all_cpus, kernels):
        # The exploder abstains wherever its per-thread chunk overflows,
        # so every grid also holds invalid cells.
        abstained = 0
        for cpu, subset, placements, precisions, reports in (
            self._random_grids(all_cpus, kernels, [_ExplodingKernel()])
        ):
            grid = predict_grid(
                cpu, subset, placements + [(0,)],
                precisions + [DType.FP64], reports,
            )
            assert grid.seconds.shape == grid.invalid.shape == (
                len(placements) + 1, len(subset)
            )
            assert grid.invalid[-1, -1]
            for i in range(len(grid)):
                results = grid.results(i)
                assert grid.invalid[i].tolist() == [
                    r is None for r in results
                ], f"{cpu.name} row {i}"
                for seconds, result in zip(grid.seconds[i].tolist(),
                                           results):
                    if result is not None:
                        assert seconds == result.seconds, cpu.name
            abstained += int(grid.invalid.sum())
        assert abstained >= len(all_cpus)

    def test_traced_grid_counts_abstentions(self, sg2042, kernels):
        subset = [kernels[0], _ExplodingKernel(), kernels[1]]
        compiler = RunConfig(threads=1).resolve_compiler(sg2042)
        reports = [analyze(compiler, k, sg2042.core.isa) for k in subset]
        placements = [(0,), (0, 8, 32, 40), tuple(range(64))]
        with telemetry.telemetry_session() as (_, metrics):
            grid = predict_grid(
                sg2042, subset, placements,
                [DType.FP64, DType.FP32, DType.FP64], reports,
            )
        assert metrics.counter("engine.batch.abstentions").value == 2
        assert metrics.counter("engine.batch.predictions").value == 7
        assert int(grid.invalid.sum()) == 2

    def test_explicit_sizes_and_abstentions(self, sg2042, kernels):
        # An exploding kernel abstains (None) identically in the 2-D
        # pass, in every configuration of the grid.
        subset = [kernels[0], _ExplodingKernel(), kernels[1]]
        compiler = RunConfig(threads=1).resolve_compiler(sg2042)
        reports = [analyze(compiler, k, sg2042.core.isa) for k in subset]
        sizes = [4096, _ExplodingKernel.default_size, 123457]
        placements = [(0,), (0, 8, 32, 40), tuple(range(64))]
        precisions = [DType.FP64, DType.FP32, DType.FP64]
        grid = predict_grid(
            sg2042, subset, placements, precisions, reports, sizes
        )
        # At 1 and 4 threads the exploder's per-thread chunk overflows
        # and both engines abstain; at 64 threads it stays finite.
        assert [
            grid.results(i)[1] is None for i in range(len(grid))
        ] == [True, True, False]
        for i, (cores, precision) in enumerate(zip(placements, precisions)):
            assert grid.results(i) == predict_batch(
                sg2042, subset, cores, precision, reports, sizes
            )

    def test_axis_length_mismatch(self, sg2042, kernels):
        with pytest.raises(ReproError):
            predict_grid(
                sg2042, kernels[:1], [(0,)], [DType.FP64, DType.FP32], []
            )

    def test_duplicate_cores_in_any_placement(self, sg2042, kernels):
        compiler = RunConfig(threads=1).resolve_compiler(sg2042)
        reports = [analyze(compiler, kernels[0], sg2042.core.isa)]
        with pytest.raises(ReproError):
            predict_grid(
                sg2042, kernels[:1], [(0, 1), (2, 2)],
                [DType.FP64, DType.FP64], reports,
            )

    def test_empty_grid_and_empty_kernels(self, sg2042, kernels):
        empty = predict_grid(sg2042, kernels[:2], [], [], [None, None])
        assert [empty.results(i) for i in range(len(empty))] == []
        no_kernels = predict_grid(
            sg2042, [], [(0,), (1,)], [DType.FP64, DType.FP32], []
        )
        assert [
            no_kernels.results(i) for i in range(len(no_kernels))
        ] == [[], []]


class _ExplodingKernel(Kernel):
    """Overflows the time prediction to +inf: the scalar model raises
    ``SimulationError`` and the batch engine must abstain (return None)
    so the recorded failure is byte-identical."""

    name = "EXPLODER"
    klass = KernelClass.STREAM
    default_size = 100_000_000
    reps = 700
    traits = KernelTraits(
        flops_per_iter=1e308,
        reads_per_iter=2.0,
        writes_per_iter=1.0,
        footprint_elems=3.0,
    )

    def prepare(self, n, dtype):  # pragma: no cover - never executed
        return {}

    def execute(self, ws):  # pragma: no cover - never executed
        pass


class TestFailureEquivalence:
    def test_exploding_kernel_fails_identically_under_skip(self, sg2042):
        kernels = [all_kernels()[0], _ExplodingKernel(), all_kernels()[1]]
        config = RunConfig(threads=8)
        scalar = scalar_run_suite(
            sg2042, config, kernels=kernels, policy="skip",
        )
        batch = run_suite(sg2042, config, kernels=kernels, policy="skip")
        assert batch == scalar
        assert len(batch.failures) == 1
        assert batch.failures[0].kernel == "EXPLODER"
        assert batch.failures[0].attempts == 1
        assert "finite" in batch.failures[0].message

    def test_exploding_kernel_aborts_identically(self, sg2042):
        kernels = [_ExplodingKernel()]
        config = RunConfig(threads=8)
        with pytest.raises(ReproError) as scalar_exc:
            scalar_run_suite(sg2042, config, kernels=kernels)
        with pytest.raises(ReproError) as batch_exc:
            run_suite(sg2042, config, kernels=kernels)
        assert str(batch_exc.value) == str(scalar_exc.value)
        assert type(batch_exc.value) is type(scalar_exc.value)

    def test_retry_attempt_counts_match(self, sg2042):
        kernels = [all_kernels()[0], _ExplodingKernel()]
        config = RunConfig(threads=2)
        scalar = scalar_run_suite(
            sg2042, config, kernels=kernels, policy="retry",
        )
        batch = run_suite(sg2042, config, kernels=kernels, policy="retry")
        assert batch == scalar
        assert batch.failures[0].attempts == scalar.failures[0].attempts


class TestRunSuiteEngine:
    @pytest.mark.parametrize("engine", ["batch", "scalar"])
    def test_run_suite_takes_no_engine(self, sg2042, engine):
        with pytest.raises(TypeError, match="engine"):
            run_suite(sg2042, RunConfig(threads=1), engine=engine)

    @pytest.mark.parametrize("engine", ["batch", "scalar"])
    def test_sweep_takes_no_engine(self, sg2042, engine):
        with pytest.raises(TypeError, match="engine"):
            sweep(sg2042, kernels=all_kernels()[:1], engine=engine)

    @pytest.mark.parametrize("runs", NOISY_RUNS)
    @pytest.mark.parametrize("machine", sorted(catalog.all_cpus()))
    def test_noise_and_runs_match_scalar(
        self, all_cpus, machine, runs, per_kernel_loop
    ):
        cpu = all_cpus[machine]
        config = RunConfig(
            threads=min(8, cpu.topology.num_cores), noise_sigma=0.05,
            runs=runs,
        )
        scalar = scalar_run_suite(cpu, config)
        batch = run_suite(cpu, config)
        # The per-kernel loop scales each batch prediction by its own
        # noise mean; the plain run takes the whole-suite bulk fold,
        # traced or not.
        with per_kernel_loop():
            looped = run_suite(cpu, config)
        with telemetry.telemetry_session():
            traced = run_suite(cpu, config)
        assert batch == scalar
        assert looped == batch
        assert traced == batch

    @pytest.mark.parametrize("runs", NOISY_RUNS)
    def test_noise_matches_per_kernel_mean(self, sg2042, runs):
        """Every noisy time is ``prediction * np.mean(factors)``, with
        the factors seeded by ``derive_seed`` over the suite identity —
        on a machine whose name needs escaping and UTF-8."""
        cpu = replace(sg2042, name="Sophon \"SG2042\" \u2014 'C920' \u00fc")
        config = RunConfig(threads=8, noise_sigma=0.05, runs=runs)
        compiler = config.resolve_compiler(cpu)
        base = run_suite(cpu, replace(config, noise_sigma=0.0))
        noisy = run_suite(cpu, config)
        for name, run in noisy.runs.items():
            seed = derive_seed(
                cpu.name, name, config.threads, config.placement.value,
                config.precision.label, config.vectorize, compiler.name,
                config.flavor.value,
            )
            factors = noise_factors(seed, runs, config.noise_sigma)
            want = float(base.runs[name].seconds * np.mean(factors))
            assert run.seconds == want, name

    def test_vectorize_disabled_matches_scalar(self, sg2042):
        config = RunConfig(threads=4, vectorize=False)
        scalar = scalar_run_suite(sg2042, config)
        batch = run_suite(sg2042, config)
        assert batch == scalar

    def test_size_scale_matches_scalar(self, sg2042):
        config = RunConfig(threads=4, size_scale=0.37)
        scalar = scalar_run_suite(sg2042, config)
        batch = run_suite(sg2042, config)
        assert batch == scalar


class TestForcedScalarDegradation:
    def test_chaos_plan_forces_scalar(self, sg2042):
        config = RunConfig(threads=2)
        with telemetry.telemetry_session():
            with chaos.inject_faults(
                transient_plan(seed=7, probability=0.0)
            ):
                result = run_suite(sg2042, config)
        # The batch prefetch must not have run: under an active plan
        # every kernel takes the scalar path, one prediction each, from
        # the suite's one compile resolution.
        phases = result.telemetry.phase_counts
        assert phases["predict.scalar"] == 64
        assert "predict.batch" not in phases
        assert phases["compile.resolve"] == 1

    def test_reference_mode_forces_scalar(self, sg2042):
        config = RunConfig(threads=8)
        plain = run_suite(sg2042, config)
        with telemetry.telemetry_session():
            with reference_mode():
                referenced = run_suite(sg2042, config)
        assert referenced == plain
        phases = referenced.telemetry.phase_counts
        assert phases["predict.scalar"] == 64
        assert "predict.batch" not in phases
        assert phases["compile.resolve"] == 1

    def test_chaos_faults_fire_identically_on_the_reference_path(
        self, sg2042
    ):
        kernels = all_kernels()[:6]
        plan = transient_plan(seed=11, probability=0.5)
        with chaos.inject_faults(plan):
            plain = sweep(
                sg2042, kernels=kernels, threads=(1, 4), policy="skip",
            )
        with chaos.inject_faults(plan), reference_mode():
            referenced = sweep(
                sg2042, kernels=kernels, threads=(1, 4), policy="skip",
            )
        assert plain.failures
        assert referenced == plain
