"""Suite runner: predict per-kernel times for one configuration.

``run_suite`` is the workhorse behind every table and figure: it resolves
the thread placement, compiles each kernel through the compiler model,
asks the performance model for the time, injects seeded run-to-run noise
and averages over the configured number of runs — mirroring how the paper
collected its numbers (five runs, -O3, pinned threads). ``run_suites``
gives many configurations' results in one call, as an experiment needs
them: it predicts each machine's configurations in one grid pass and
draws their noise together, and each result equals ``run_suite``'s.

The execution path is hardened for the flaky-hardware reality behind
those numbers: each kernel runs in isolation under a
:class:`~repro.resilience.retry.FailurePolicy` (abort / skip / retry
with exponential backoff), failures are recorded on the result instead
of aborting the suite, and a chaos :class:`FaultPlan` can be installed
to test all of it deterministically. The default policy (ABORT, no
retry) reproduces the historical behaviour bit-for-bit.

There is one prediction path: the batch engine
(:mod:`repro.perfmodel.batch`) predicts a suite's kernels in one
vectorized pass. :func:`~repro.perfmodel.execution.simulate_kernel`,
the scalar model the batch engine is pinned bit-identical to, predicts
a kernel on its own in two cases: for every kernel while a chaos plan
or :func:`~repro.perfmodel.placement.reference_mode` is active (one
rule, :func:`predicts_in_batch`, decides this for suites and sweeps),
and for each kernel the batch pass abstains on.

``run_suite``, ``run_suites`` and :func:`~repro.suite.sweep.sweep`
share one prefetcher, :func:`grid_prefetch`, and one fold rule,
:func:`fold_seconds`: a suite whose every kernel was batch-predicted
becomes its result in one pass, and only a suite the fold gives up on
runs the per-kernel policy loop. A telemetry session changes what is
recorded, not which code computes: one ``suite.run`` span per suite,
folded or not, and a ``kernel.run`` span per kernel of the loop.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from repro import telemetry
from repro.compiler.model import Compiler
from repro.compiler.vectorizer import (
    VectorizationReport,
    analyze,
    analyze_suite,
)
from repro.kernels.base import Kernel, KernelClass
from repro.kernels.registry import suite
from repro.machine.cpu import CPUModel
from repro.machine.vector import DType
from repro.openmp.affinity import assign_cores
from repro.perfmodel.batch import (
    GridPrediction,
    predict_batch,
    predict_grid,
    scaled_size,
    scaled_sizes,
)
from repro.perfmodel.execution import ExecutionResult, simulate_kernel
from repro.perfmodel.placement import reference_active
from repro.resilience import chaos
from repro.suite.memo import SuiteCaches
from repro.resilience.faults import FaultSite
from repro.resilience.retry import (
    FailurePolicy,
    FailureRecord,
    RetryExhaustedError,
    RetrySpec,
    call_with_retry,
)
from repro.resilience.validate import validate_cpu
from repro.suite.config import RunConfig
from repro.util.errors import ConfigError, ReproError, SimulationError
from repro.util.rng import noise_means, seed_deriver
from repro.util.stats import arithmetic_mean


@dataclass(frozen=True)
class KernelRun:
    """One kernel's outcome within a suite run."""

    kernel_name: str
    klass: KernelClass
    seconds: float  # run-averaged
    prediction: ExecutionResult
    report: VectorizationReport
    attempts: int = 1  # attempts it took under the retry policy


@dataclass(frozen=True)
class SuiteResult:
    """All kernel outcomes for one (machine, configuration) pair.

    ``failures`` lists kernels that never produced a time under a
    non-ABORT failure policy; reports render those as explicit gaps
    instead of crashing.
    """

    cpu_name: str
    config: RunConfig
    runs: dict[str, KernelRun]
    failures: tuple[FailureRecord, ...] = field(default_factory=tuple)
    #: Telemetry digest of this call (``None`` when telemetry was off):
    #: the spans it recorded on its thread, plus the session's metrics
    #: when it returned. Excluded from equality: identical results may
    #: carry different timings.
    telemetry: "telemetry.TelemetrySummary | None" = field(
        default=None, compare=False
    )

    def __post_init__(self) -> None:
        if not self.runs and not self.failures:
            raise ConfigError("suite result contains no kernels")

    def time(self, kernel_name: str) -> float:
        key = kernel_name.upper()
        if key not in self.runs:
            failed = self.failed_kernels()
            if key in failed:
                record = failed[key]
                raise ConfigError(
                    f"kernel {kernel_name!r} failed after "
                    f"{record.attempts} attempt(s): {record.message}"
                )
            raise ConfigError(f"no result for kernel {kernel_name!r}")
        return self.runs[key].seconds

    def kernels_in_class(self, klass: KernelClass) -> list[KernelRun]:
        return [r for r in self.runs.values() if r.klass == klass]

    def class_means(self) -> dict[KernelClass, float]:
        """Mean kernel time per class (seconds)."""
        out: dict[KernelClass, float] = {}
        for klass in KernelClass:
            members = self.kernels_in_class(klass)
            if members:
                out[klass] = arithmetic_mean([r.seconds for r in members])
        return out

    def total_seconds(self) -> float:
        return sum(r.seconds for r in self.runs.values())

    def failed_kernels(self) -> dict[str, FailureRecord]:
        """Failure records keyed by (upper-cased) kernel name."""
        return {f.kernel.upper(): f for f in self.failures}

    def total_attempts(self) -> int:
        """Attempts across all kernels, successes and failures alike."""
        return (
            sum(r.attempts for r in self.runs.values())
            + sum(f.attempts for f in self.failures)
        )


def _noise_means(
    suites: Sequence[tuple[CPUModel, RunConfig, Compiler, Sequence[Kernel]]],
) -> list[list[float] | None]:
    """Each suite's kernels' mean noise factors over ``config.runs``
    runs, one list per ``(cpu, config, compiler, kernels)`` suite.

    Kernel ``name`` is seeded with ``derive_seed(cpu.name, name, threads,
    placement, precision, vectorize, compiler, flavor)``. The suites
    that share ``runs`` and ``noise_sigma`` are averaged in one
    :func:`~repro.util.rng.noise_means` call, with the bits of one
    ``np.random.default_rng(seed)`` per kernel, so a draw's fixed cost
    is paid once for all of them.

    ``None`` for a suite under zero sigma (the deterministic default of
    sweeps and golden tests): every mean would be exactly 1.0, so each
    run is its prediction, bit for bit, without the seeds and the NumPy
    round-trip."""
    out: list[list[float] | None] = [None] * len(suites)
    draws: dict[tuple[int, float], list[int]] = {}
    for i, (_, config, _, _) in enumerate(suites):
        if config.noise_sigma != 0:
            draws.setdefault((config.runs, config.noise_sigma), []).append(i)
    for (runs, sigma), members in draws.items():
        seeds = []
        for i in members:
            cpu, config, compiler, kernels = suites[i]
            seeds.append(seed_deriver(
                (cpu.name,),
                (
                    config.threads, config.placement.value,
                    config.precision.label, config.vectorize,
                    compiler.name, config.flavor.value,
                ),
            ).seeds([kernel.name for kernel in kernels]))
        means = noise_means(np.concatenate(seeds), runs, sigma).tolist()
        start = 0
        for i, suite_seeds in zip(members, seeds):
            out[i] = means[start:start + len(suite_seeds)]
            start += len(suite_seeds)
    return out


def _resolve_report(
    kernel: Kernel,
    cpu: CPUModel,
    config: RunConfig,
    compiler,
) -> VectorizationReport:
    """Compilation outcome for one kernel its suite's resolution
    dropped: ``analyze`` is pure, so this raises the kernel's
    authoritative error inside the failure policy's loop."""
    if config.vectorize:
        return analyze(
            compiler,
            kernel,
            cpu.core.isa,
            flavor=config.flavor,
            rollback=config.rollback,
        )
    return _DISABLED_REPORT


#: The report every kernel gets when ``config.vectorize`` is off — a
#: constant, so no-vectorize sweeps don't rebuild it per kernel per
#: grid point.
_DISABLED_REPORT = VectorizationReport(
    vectorized=False,
    vector_path_executed=False,
    flavor=None,
    efficiency=1.0,
    reason="vectorization disabled",
)


#: ``{kernel name: (report, prediction)}`` as
#: :meth:`PointPrefetch.prefetched` produces it and
#: :func:`_run_one_kernel` consumes it.
_Prefetched = dict[str, tuple[VectorizationReport, "ExecutionResult | None"]]


def _resolve_suite_reports(
    kernels: Sequence[Kernel],
    cpu: CPUModel,
    config: RunConfig,
    compiler,
    caches: SuiteCaches | None,
) -> tuple[Sequence[Kernel], Sequence[VectorizationReport]]:
    """Resolve one configuration's compilation reports in bulk.

    One suite-level lookup, in one ``compile.resolve`` span: the
    store's suite artifact when ``caches`` carries one, else the
    in-process compile table
    (:func:`~repro.compiler.vectorizer.analyze_suite`). Kernels whose
    compilation failed are dropped — the per-kernel policy loop re-runs
    them and owns the failure, so error types, messages and attempt
    counts are identical to the scalar model's. When none is dropped,
    ``kernels`` and the looked-up reports come back as they are, so the
    whole suite reaches the batch engine as the suite.
    """
    if not config.vectorize:
        return kernels, (_DISABLED_REPORT,) * len(kernels)
    resolve = (
        analyze_suite if caches is None or caches.compile is None
        else caches.compile.analyze_suite
    )
    with telemetry.recorder().span(
        "compile.resolve", kernels=len(kernels),
    ):
        entries = resolve(
            compiler, tuple(kernels), cpu.core.isa, config.flavor,
            config.rollback,
        )
    for report in entries:
        if report is None:
            break
    else:
        return kernels, entries
    resolved: list[Kernel] = []
    reports: list[VectorizationReport] = []
    for kernel, report in zip(kernels, entries):
        if report is not None:
            resolved.append(kernel)
            reports.append(report)
    return resolved, reports


@dataclass
class _PrefetchPlan:
    """One configuration's prediction work."""

    cores: tuple[int, ...]
    precision: DType
    kernels: Sequence[Kernel]
    reports: Sequence[VectorizationReport]
    sizes: tuple[int, ...] | None


def predicts_in_batch() -> bool:
    """Whether a suite's kernels are predicted in one batch pass.

    Not while a chaos fault plan or :func:`reference_mode` is active:
    both are per-call state a batched evaluation cannot replay, so each
    kernel then goes through :func:`simulate_kernel` on its own.
    :func:`grid_prefetch`, the one prefetcher of suites and sweeps, asks
    here.
    """
    return chaos.active_plan() is None and not reference_active()


@dataclass
class PointPrefetch:
    """One grid point's share of :func:`grid_prefetch`.

    ``seconds`` is the row a sweep folds: every kernel of the point's
    job, in job order, as the batch pass predicted it, or ``None`` when
    a kernel was dropped by a compile failure, the batch pass abstained
    on one or the point was not predicted. :meth:`prefetched` builds the
    ``{kernel name: (report, prediction)}`` dict :func:`run_suite`
    takes, from row ``row`` of ``grid`` (or from ``predictions``, the
    list :func:`~repro.perfmodel.batch.predict_batch` gave a point
    predicted on its own, or with no prediction at all); a sweep asks
    for it only for a point that goes through ``run_suite``.
    """

    compiler: Compiler
    plan: _PrefetchPlan
    seconds: list[float] | None = None
    grid: GridPrediction | None = None
    row: int = 0
    predictions: Sequence[ExecutionResult | None] = ()

    def prefetched(self) -> _Prefetched:
        """The point's ``{kernel name: (report, prediction)}`` dict.

        A ``None`` prediction is an abstention, or a kernel left to the
        scalar model: the policy loop's scalar path predicts it, or
        raises the authoritative error for it.
        """
        if self.grid is not None:
            predictions = self.grid.results(self.row)
        else:
            predictions = self.predictions or [None] * len(
                self.plan.kernels
            )
        return {
            kernel.name: (report, prediction)
            for kernel, report, prediction in zip(
                self.plan.kernels, self.plan.reports, predictions
            )
        }


def grid_prefetch(
    cpu: CPUModel,
    kernels: list[Kernel],
    jobs: list[tuple[RunConfig, list[Kernel]] | None],
    caches: SuiteCaches | None,
) -> list[PointPrefetch | None]:
    """Batch-prefetch configurations ahead of their suite runs: a
    sweep's grid, one machine's :func:`run_suites` requests or one
    :func:`run_suite` call.

    ``jobs`` carries one ``(config, kernels)`` pair per grid point (or
    ``None`` for points the sweep wants skipped), each job's kernels a
    subsequence of ``kernels``. The reports of ``kernels`` are resolved
    once per compile configuration (compiler, vectorization, flavour,
    rollback), so once for a sweep, whose grid points all share one;
    each point takes its own kernels' reports from that resolution.
    Configurations that share an identical workload are evaluated
    together through :func:`~repro.perfmodel.batch.predict_grid` — for
    a sweep that is the entire grid in one 2-D pass, grid points that
    pin the same cores included — and a workload with one
    configuration through :func:`~repro.perfmodel.batch.predict_batch`.

    Each returned :class:`PointPrefetch` hands its grid point the
    compiler its configuration resolved to, its plan and its row of
    seconds; no ``ExecutionResult`` is built for a grid row until
    :meth:`PointPrefetch.prefetched` asks for one. Where
    :func:`predicts_in_batch` says no (a chaos plan,
    ``reference_mode()``) only the reports are resolved: each point's
    entries carry no prediction, and its ``run_suite`` predicts
    kernel by kernel.

    A ``None`` entry in the result means this configuration could not
    be planned here (e.g. its placement or compiler resolution raises);
    its :func:`run_suite` call then raises the authoritative error
    before it would prefetch.
    """
    out: list[PointPrefetch | None] = [None] * len(jobs)
    predict = predicts_in_batch()
    #: compile configuration -> (resolved kernels, their reports, both
    #: by kernel name)
    resolutions: dict[tuple, tuple] = {}
    buckets: dict[tuple, list[int]] = {}
    for i, job in enumerate(jobs):
        if job is None:
            continue
        config, todo = job
        if not todo:
            continue
        try:
            compiler = config.resolve_compiler(cpu)
            cores = assign_cores(
                cpu.topology, config.threads, config.placement
            )
        except ReproError:
            # Leave this point to run_suite, which reproduces the error
            # under its own policy handling.
            continue
        key = (compiler, config.vectorize, config.flavor, config.rollback)
        resolution = resolutions.get(key)
        if resolution is None:
            resolved, reports = _resolve_suite_reports(
                kernels, cpu, config, compiler, caches
            )
            resolution = resolutions[key] = (
                resolved, reports,
                {k.name: r for k, r in zip(resolved, reports)},
            )
        resolved, reports, by_name = resolution
        if len(todo) != len(kernels):
            # A checkpoint restored part of this point.
            resolved = [k for k in todo if k.name in by_name]
            reports = [by_name[k.name] for k in resolved]
        plan = _PrefetchPlan(
            cores=cores,
            precision=config.precision,
            kernels=resolved,
            reports=reports,
            sizes=scaled_sizes(resolved, config.size_scale),
        )
        out[i] = PointPrefetch(compiler, plan)
        if predict and resolved:
            # Workload identity: one compile configuration fixes each
            # kernel's report, and the scale its size.
            buckets.setdefault(
                (key, config.size_scale, tuple(resolved)), []
            ).append(i)

    for idxs in buckets.values():
        first = out[idxs[0]].plan
        if len(idxs) == 1:
            point = out[idxs[0]]
            point.predictions = predict_batch(
                cpu, first.kernels, first.cores, first.precision,
                first.reports, first.sizes,
            )
            if all(p is not None for p in point.predictions):
                point.seconds = [p.seconds for p in point.predictions]
            continue
        grid = predict_grid(
            cpu, first.kernels,
            [out[i].plan.cores for i in idxs],
            [out[i].plan.precision for i in idxs],
            first.reports, first.sizes,
        )
        abstained = grid.invalid.any(axis=1).tolist()
        for row, (i, bad, seconds) in enumerate(
            zip(idxs, abstained, grid.seconds.tolist())
        ):
            point = out[i]
            point.grid = grid
            point.row = row
            if not bad:
                point.seconds = seconds
    # A kernel dropped by a compile failure has no entry in its point's
    # row, which then covers only part of the job.
    for point, job in zip(out, jobs):
        if point is not None and len(point.plan.kernels) != len(job[1]):
            point.seconds = None
    return out


def _predict_scalar(
    kernel: Kernel,
    cpu: CPUModel,
    cores: tuple[int, ...],
    precision: DType,
    report: VectorizationReport,
    size: int,
) -> ExecutionResult:
    """One scalar model evaluation, traced when telemetry is on.

    The off path costs one recorder lookup per call — and this function
    is only reached when a kernel was not batch-prefetched, so the
    batch engine's hot loop never pays it.
    """
    rec = telemetry.recorder()
    if not rec.active:
        return simulate_kernel(kernel, cpu, cores, precision, report,
                               n=size)
    with rec.span("predict.scalar", kernel=kernel.name, n=size):
        return simulate_kernel(kernel, cpu, cores, precision, report,
                               n=size)


def _run_one_kernel(
    kernel: Kernel,
    cpu: CPUModel,
    config: RunConfig,
    compiler,
    cores: tuple[int, ...],
    prefetched: _Prefetched,
    noise_mean: float | None,
) -> KernelRun:
    """The per-kernel unit of work the failure policy isolates."""
    chaos.raise_if_fault(FaultSite.RUN, kernel.name, kernel.klass)
    entry = prefetched.get(kernel.name)
    if entry is not None:
        report, prediction = entry
    else:
        report = _resolve_report(kernel, cpu, config, compiler)
        prediction = None
    if prediction is None:
        prediction = _predict_scalar(
            kernel, cpu, cores, config.precision, report,
            scaled_size(kernel, config.size_scale),
        )
    seconds = prediction.seconds
    if noise_mean is not None:
        seconds *= noise_mean
    if not math.isfinite(seconds) or seconds <= 0:
        raise SimulationError(
            f"{kernel.name}: run-averaged time is not a positive finite "
            f"number ({seconds})"
        )
    return KernelRun(
        kernel_name=kernel.name,
        klass=kernel.klass,
        seconds=seconds,
        prediction=prediction,
        report=report,
    )


def fold_seconds(
    seconds: list[float], means: list[float] | None
) -> list[float] | None:
    """Each kernel's run-averaged seconds, or ``None`` if any kernel
    needs the per-kernel loop.

    ``seconds`` holds one batch prediction's ``seconds`` per kernel of
    a suite whose every kernel was predicted. The rule of
    :func:`_run_one_kernel` for such a kernel, under the caller-checked
    precondition that no chaos plan can fault it: a run is its predicted
    seconds times its kernel's noise mean, finite and positive. Without
    noise the row is returned as it is: a prediction, and a grid row
    with no ``invalid`` cell, is finite and positive already (the batch
    engine's validity mask and ``ExecutionResult`` both reject anything
    else). With noise, a product that is not gives up on the whole
    suite, so the loop raises the identical :class:`SimulationError`.
    :func:`_bulk_runs` folds its prefetched predictions' seconds through
    here; a sweep folds each grid point's row of seconds from
    :func:`grid_prefetch`. A telemetry session or a checkpoint changes
    what is recorded of a fold, never whether it is taken.
    """
    if means is None:
        return seconds
    seconds = [s * mean for s, mean in zip(seconds, means)]
    for run_seconds in seconds:
        if not math.isfinite(run_seconds) or run_seconds <= 0:
            return None
    return seconds


def _bulk_runs(
    kernels: list[Kernel],
    prefetched: _Prefetched,
    means: list[float] | None,
) -> dict[str, KernelRun] | None:
    """Assemble a whole suite's :class:`KernelRun`\\ s from a complete
    prefetch, or ``None`` if any kernel needs the per-kernel loop: a
    missing entry, a batch abstention, or a time
    :func:`fold_seconds` rejects."""
    entries = []
    get = prefetched.get
    for kernel in kernels:
        entry = get(kernel.name)
        if entry is None or entry[1] is None:
            return None
        entries.append(entry)
    seconds = fold_seconds(
        [prediction.seconds for _, prediction in entries], means
    )
    if seconds is None:
        return None
    return {
        kernel.name: KernelRun(
            kernel_name=kernel.name,
            klass=kernel.klass,
            seconds=run_seconds,
            prediction=prediction,
            report=report,
        )
        for kernel, (report, prediction), run_seconds in zip(
            kernels, entries, seconds
        )
    }


def run_suite(
    cpu: CPUModel,
    config: RunConfig,
    kernels: list[Kernel] | None = None,
    *,
    policy: FailurePolicy = FailurePolicy.ABORT,
    retry: RetrySpec | None = None,
    caches: SuiteCaches | None = None,
    prefetched: _Prefetched | None = None,
) -> SuiteResult:
    """Run (predict) the whole suite on ``cpu`` under ``config``.

    Args:
        cpu: Machine model (re-validated before the run).
        config: The run configuration.
        kernels: Subset to run; defaults to the whole suite
            (:func:`~repro.kernels.registry.suite`). A suite kernel's
            compile report and prelude are rows of the compile and
            batch tables, held once per configuration whatever list
            or instance it arrives in.
        policy: What a kernel failure does to the rest of the suite —
            ABORT (default, historical behaviour), SKIP (record and
            continue) or RETRY (retry per ``retry``, then record).
        retry: Attempt/backoff budget for the RETRY policy; defaults to
            ``RetrySpec()`` (3 retries, no sleeping). Ignored otherwise.
        caches: The store tier of the suite's compile reports
            (:meth:`SuiteCaches.persistent`). ``None`` (the default)
            resolves them through the in-process compile table
            (:func:`~repro.compiler.vectorizer.analyze_suite`) alone.
            Caching never changes results — every layer is keyed on
            everything its values depend on.
        prefetched: Pre-computed ``{kernel name: (report, prediction)}``
            from :meth:`PointPrefetch.prefetched` — a sweep passes this
            so a whole grid is predicted in one pass. When given, the
            suite's own :func:`grid_prefetch` call is skipped (the work,
            compile resolution included, already happened grid-side).

    The whole kernel list is predicted in one vectorized pass
    (:func:`repro.perfmodel.batch.predict_batch`), or kernel by kernel
    through :func:`simulate_kernel` in the cases the module docstring
    names; either way the noise of all kernels is averaged in one
    :func:`~repro.util.rng.noise_means` pass.
    """
    kernels = suite() if kernels is None else list(kernels)
    if not kernels:
        raise ConfigError("kernel list is empty")
    if isinstance(policy, str):
        policy = FailurePolicy.from_label(policy)
    rec = telemetry.recorder()
    # One boolean, hoisted out of the per-kernel loop: the telemetry-off
    # path pays a local-variable check per kernel, nothing more.
    traced = rec.active
    # The summary covers this call's spans only, so its cost does not
    # grow with the session's age.
    mark = rec.mark() if traced else None
    with _suite_span(rec, cpu, config, len(kernels)):
        validate_cpu(cpu)
        chaos.raise_if_fault(FaultSite.MACHINE)
        compiler = config.resolve_compiler(cpu)
        cores = assign_cores(cpu.topology, config.threads,
                             config.placement)
        spec = retry if retry is not None else RetrySpec()
        if prefetched is None:
            (point,) = grid_prefetch(
                cpu, kernels, [(config, kernels)], caches
            )
            prefetched = point.prefetched()

        # One noise pass for the whole suite; the bulk fold and the
        # per-kernel loop both multiply by its means.
        (means,) = _noise_means([(cpu, config, compiler, kernels)])
        # Bulk fold: when every kernel arrived prefetched with a real
        # prediction and no chaos plan can fault a kernel, the
        # per-kernel policy loop below is pure assembly plus noise
        # scaling — do both in one pass. Any kernel that would take a
        # different branch (missing entry, no batch prediction,
        # non-finite time) drops to the loop, so failure semantics stay
        # byte-identical.
        runs = (
            _bulk_runs(kernels, prefetched, means)
            if chaos.active_plan() is None else None
        )
        failures: list[FailureRecord] = []
        if runs is None:
            runs = {}
            for i, kernel in enumerate(kernels):
                mean = None if means is None else means[i]
                # First attempt runs inline for every policy: the fault-free
                # path pays only this try/except, keeping the hardened
                # runner seed-identical and essentially free next to the
                # legacy one.
                try:
                    if traced:
                        with rec.span("kernel.run", kernel=kernel.name):
                            runs[kernel.name] = _run_one_kernel(
                                kernel, cpu, config, compiler, cores,
                                prefetched, mean,
                            )
                    else:
                        runs[kernel.name] = _run_one_kernel(
                            kernel, cpu, config, compiler, cores, prefetched,
                            mean,
                        )
                    continue
                except ReproError as exc:
                    if policy is FailurePolicy.ABORT:
                        raise
                    if policy is FailurePolicy.SKIP or spec.max_retries == 0:
                        failures.append(
                            FailureRecord.from_exception(kernel.name, exc, 1)
                        )
                        continue
                # RETRY: attempt 1 is spent; sleep the first backoff here,
                # then hand the rest of the budget to the retry engine (its
                # attempt k is overall attempt k + 1, so its backoff base
                # advances one step to keep the exponential schedule intact).
                first_pause = spec.backoff_seconds(1)
                if first_pause > 0:
                    time.sleep(first_pause)
                try:
                    with rec.span("retry", kernel=kernel.name) as retry_span:
                        run, engine_attempts = call_with_retry(
                            lambda k=kernel, m=mean: _run_one_kernel(
                                k, cpu, config, compiler, cores, prefetched,
                                m,
                            ),
                            RetrySpec(
                                max_retries=spec.max_retries - 1,
                                backoff_base_s=(
                                    spec.backoff_base_s * spec.backoff_factor
                                ),
                                backoff_factor=spec.backoff_factor,
                                deadline_s=spec.deadline_s,
                                jitter=spec.jitter,
                            ),
                        )
                        retry_span.set(attempts=engine_attempts + 1)
                    runs[kernel.name] = KernelRun(
                        kernel_name=run.kernel_name,
                        klass=run.klass,
                        seconds=run.seconds,
                        prediction=run.prediction,
                        report=run.report,
                        attempts=engine_attempts + 1,
                    )
                except RetryExhaustedError as exc:
                    failures.append(
                        FailureRecord.from_exception(
                            kernel.name, exc.last, exc.attempts + 1
                        )
                    )
    return _suite_result(rec, mark, cpu, config, runs, failures)


def _suite_span(rec, cpu: CPUModel, config: RunConfig, kernels: int):
    """The ``suite.run`` span of one suite: a :func:`run_suite` call, a
    folded :func:`run_suites` request or a folded sweep grid point."""
    return rec.span(
        "suite.run", cpu=cpu.name, threads=config.threads,
        placement=config.placement.value,
        precision=config.precision.label, kernels=kernels,
    )


def _count_suite(kernel_runs: int, kernel_failures: int = 0):
    """Count one suite in the session's ``suite.runs``,
    ``suite.kernel_runs`` and ``suite.kernel_failures``; returns the
    session's metrics registry."""
    reg = telemetry.metrics()
    reg.counter("suite.runs").inc()
    reg.counter("suite.kernel_runs").inc(kernel_runs)
    if kernel_failures:
        reg.counter("suite.kernel_failures").inc(kernel_failures)
    return reg


def _suite_result(
    rec,
    mark: int | None,
    cpu: CPUModel,
    config: RunConfig,
    runs: dict[str, KernelRun],
    failures: Sequence[FailureRecord] = (),
) -> SuiteResult:
    """One suite's result. Under a session the suite is counted and the
    result carries the summary of the spans its thread recorded since
    ``mark``."""
    summary = None
    if rec.active:
        summary = telemetry.TelemetrySummary.capture(
            rec, _count_suite(len(runs), len(failures)), since=mark
        )
    return SuiteResult(
        cpu_name=cpu.name,
        config=config,
        runs=runs,
        failures=tuple(failures),
        telemetry=summary,
    )


class SuiteRequest(NamedTuple):
    """One suite :func:`run_suites` evaluates: the arguments of
    ``run_suite(cpu, config, kernels)``, with ``kernels=None`` for the
    whole suite."""

    cpu: CPUModel
    config: RunConfig
    kernels: Sequence[Kernel] | None = None


def _machine_valid(cpu: CPUModel) -> bool:
    """Whether ``cpu`` passes the validation :func:`run_suite` runs
    first (one machine object, so one verdict for all its suites)."""
    try:
        validate_cpu(cpu)
    except ReproError:
        return False
    return True


def run_suites(
    requests: Iterable[SuiteRequest | tuple],
) -> list[SuiteResult]:
    """``[run_suite(*request) for request in requests]``, with the work
    of all the requests done together.

    A request is a :class:`SuiteRequest` or a ``(cpu, config)`` or
    ``(cpu, config, kernels)`` tuple. Results come back in request
    order, and equal requests (equal machines and configurations, the
    same kernels) are evaluated once and share one :class:`SuiteResult`.

    The distinct requests on one machine and kernel list are prefetched
    by one :func:`grid_prefetch`, which resolves each compile
    configuration once and predicts the configurations that share a
    workload in one :func:`~repro.perfmodel.batch.predict_grid` pass.
    Every request whose grid row is complete is folded by
    :func:`_bulk_runs`, with the noise of all of them drawn in one
    :func:`_noise_means` call: one :func:`~repro.util.rng.noise_means`
    draw per (``runs``, ``noise_sigma``). Under a telemetry session each
    folded request records one ``suite.run`` span, is counted as
    ``run_suite`` counts a suite, and its result carries the summary of
    that span. A request goes through :func:`run_suite`, with its
    prefetched entries, when the fold gives up on it (a configuration
    that raises, a kernel that failed to compile, a batch abstention, a
    time that is not finite and positive), and so does every distinct
    request while a chaos plan or ``reference_mode()`` is active (where
    the scalar model predicts each kernel), or on a machine that fails
    validation. Those calls run in request order, so the first request
    ``run_suite`` would fail on raises its error. Each result equals
    ``run_suite``'s for the same request.
    """
    slots: dict[tuple[CPUModel, RunConfig, tuple[Kernel, ...]], int] = {}
    order = []
    for request in requests:
        cpu, config, kernels = SuiteRequest(*request)
        key = (cpu, config, suite() if kernels is None else tuple(kernels))
        order.append(slots.setdefault(key, len(slots)))
    distinct = list(slots)

    groups: dict[tuple[CPUModel, tuple[Kernel, ...]], list[int]] = {}
    for i, (cpu, _, kernels) in enumerate(distinct):
        groups.setdefault((cpu, kernels), []).append(i)
    points: list[PointPrefetch | None] = [None] * len(distinct)
    for (cpu, kernels), members in groups.items():
        if not _machine_valid(cpu):
            continue
        kernel_list = list(kernels)
        prefetches = grid_prefetch(
            cpu, kernel_list,
            [(distinct[i][1], kernel_list) for i in members], None,
        )
        for i, point in zip(members, prefetches):
            points[i] = point

    results: list[SuiteResult | None] = [None] * len(distinct)
    folds = [
        i for i, point in enumerate(points)
        if point is not None and point.seconds is not None
    ]
    means = _noise_means([
        (distinct[i][0], distinct[i][1], points[i].compiler, distinct[i][2])
        for i in folds
    ])
    rec = telemetry.recorder()
    traced = rec.active
    mark = None
    for i, suite_means in zip(folds, means):
        cpu, config, kernels = distinct[i]
        prefetched = points[i].prefetched()
        if traced:
            mark = rec.mark()
            with _suite_span(rec, cpu, config, len(kernels)):
                runs = _bulk_runs(kernels, prefetched, suite_means)
        else:
            runs = _bulk_runs(kernels, prefetched, suite_means)
        if runs is not None:
            results[i] = _suite_result(rec, mark, cpu, config, runs)
    for i, (cpu, config, kernels) in enumerate(distinct):
        if results[i] is None:
            point = points[i]
            results[i] = run_suite(
                cpu, config, kernels,
                prefetched=None if point is None else point.prefetched(),
            )
    return [results[slot] for slot in order]


def verify_kernel(
    kernel: Kernel, n: int, precision: DType, reps: int = 2
) -> float:
    """Actually execute a kernel's NumPy implementation and return its
    checksum — the correctness face of the suite, used by tests and the
    quickstart example."""
    if n < 1 or reps < 1:
        raise ConfigError("n and reps must be >= 1")
    ws = kernel.prepare(n, precision)
    for _ in range(reps):
        kernel.execute(ws)
    checksum = kernel.checksum(ws)
    if not np.isfinite(checksum):
        raise ConfigError(
            f"{kernel.name} produced a non-finite checksum at n={n}"
        )
    return checksum
