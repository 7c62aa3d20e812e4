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

One body computes ``run_suite``'s one request and ``run_suites``'
many, and :func:`~repro.suite.sweep.sweep`'s grid goes through the same
two steps. :func:`_fold` is the only code that prefetches
(:func:`grid_prefetch`), draws noise and folds (:func:`fold_seconds`):
a suite whose every kernel was batch-predicted becomes its result in
one pass. :func:`_run_loop` is the only per-kernel policy loop, and
runs only a suite the fold gives up on. A telemetry session changes
what is recorded, not which code computes: one ``suite.run`` span per
suite (a taken fold's is short), and a ``kernel.run`` span per kernel
of the loop.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, replace
from typing import Collection, Iterable, NamedTuple, Sequence

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


#: Serializes the one-time build of a folded result's runs.
_RUNS_LOCK = threading.Lock()


@dataclass(frozen=True, init=False, eq=False, repr=False)
class SuiteResult:
    """All kernel outcomes for one (machine, configuration) pair.

    The outcomes are held as three columns in kernel order: ``names``,
    ``classes`` and ``seconds`` (run-averaged). ``time``,
    ``class_means``, ``total_seconds`` and the reports
    (:mod:`repro.suite.report`) read the columns. ``runs``, one
    :class:`KernelRun` per kernel keyed by name, is built from a folded
    suite's prefetched predictions when first read (once, also when
    several threads read it together); a suite the per-kernel loop ran
    holds its runs from the start.

    ``SuiteResult(cpu_name, config, runs, failures=(), telemetry=None)``
    builds a result from its runs. ``failures`` lists kernels that
    never produced a time under a non-ABORT failure policy; reports
    render those as explicit gaps instead of crashing. Equality is over
    ``cpu_name``, ``config``, ``runs`` and ``failures``.
    """

    cpu_name: str
    config: RunConfig
    names: tuple[str, ...]
    classes: tuple[KernelClass, ...]
    seconds: tuple[float, ...]
    failures: tuple[FailureRecord, ...] = ()
    #: Telemetry digest of this call (``None`` when telemetry was off):
    #: the spans it recorded on its thread, plus the session's metrics
    #: when it returned. Excluded from equality: identical results may
    #: carry different timings.
    telemetry: "telemetry.TelemetrySummary | None" = None

    def __init__(
        self,
        cpu_name: str,
        config: RunConfig,
        runs: dict[str, KernelRun],
        failures: tuple[FailureRecord, ...] = (),
        telemetry: "telemetry.TelemetrySummary | None" = None,
    ) -> None:
        if not runs and not failures:
            raise ConfigError("suite result contains no kernels")
        self._set(
            cpu_name, config, tuple(runs),
            tuple(run.klass for run in runs.values()),
            tuple(run.seconds for run in runs.values()),
            failures, telemetry, runs, None,
        )

    @classmethod
    def _folded(
        cls,
        cpu_name: str,
        config: RunConfig,
        columns: tuple[tuple[str, ...], tuple[KernelClass, ...]],
        seconds: list[float],
        point: PointPrefetch,
        telemetry: "telemetry.TelemetrySummary | None" = None,
    ) -> SuiteResult:
        """A folded suite: ``columns`` are its kernels' distinct names
        and classes, ``seconds`` their run-averaged times, and ``point``
        the prefetch its runs are built from when first read."""
        result = object.__new__(cls)
        result._set(
            cpu_name, config, *columns, tuple(seconds), (), telemetry,
            None, point,
        )
        return result

    def _set(
        self, cpu_name, config, names, classes, seconds, failures,
        telemetry, runs, point,
    ) -> None:
        setattr_ = object.__setattr__
        setattr_(self, "cpu_name", cpu_name)
        setattr_(self, "config", config)
        setattr_(self, "names", names)
        setattr_(self, "classes", classes)
        setattr_(self, "seconds", seconds)
        setattr_(self, "failures", failures)
        setattr_(self, "telemetry", telemetry)
        setattr_(self, "_runs", runs)
        setattr_(self, "_point", point)

    @property
    def runs(self) -> dict[str, KernelRun]:
        """Each kernel's :class:`KernelRun`, keyed by name, in kernel
        order."""
        runs = self._runs
        if runs is None:
            with _RUNS_LOCK:
                runs = self._runs
                if runs is None:
                    entries = self._point.prefetched()
                    runs = {
                        name: KernelRun(
                            kernel_name=name,
                            klass=klass,
                            seconds=seconds,
                            prediction=prediction,
                            report=report,
                        )
                        for name, klass, seconds, (report, prediction) in zip(
                            self.names, self.classes, self.seconds,
                            entries.values(),
                        )
                    }
                    object.__setattr__(self, "_runs", runs)
                    object.__setattr__(self, "_point", None)
        return runs

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            (self.cpu_name, self.config, self.runs, self.failures)
            == (other.cpu_name, other.config, other.runs, other.failures)
        )

    def __repr__(self) -> str:
        return (
            f"{type(self).__qualname__}(cpu_name={self.cpu_name!r}, "
            f"config={self.config!r}, runs={self.runs!r}, "
            f"failures={self.failures!r}, telemetry={self.telemetry!r})"
        )

    def time(self, kernel_name: str) -> float:
        """The run-averaged seconds of the kernel named ``kernel_name``,
        by :func:`kernel_named`'s rule."""
        name = kernel_named(kernel_name, self.names)
        if name is None:
            record = self.failed_kernels().get(kernel_name.upper())
            if record is not None:
                raise ConfigError(
                    f"kernel {kernel_name!r} failed after "
                    f"{record.attempts} attempt(s): {record.message}"
                )
            raise ConfigError(f"no result for kernel {kernel_name!r}")
        return self.seconds[self.names.index(name)]

    def class_means(self) -> dict[KernelClass, float]:
        """Mean kernel time per class (seconds)."""
        out: dict[KernelClass, float] = {}
        for klass in KernelClass:
            members = [
                seconds
                for member, seconds in zip(self.classes, self.seconds)
                if member is klass
            ]
            if members:
                out[klass] = arithmetic_mean(members)
        return out

    def total_seconds(self) -> float:
        return sum(self.seconds)

    def failed_kernels(self) -> dict[str, FailureRecord]:
        """Failure records keyed by (upper-cased) kernel name."""
        return {f.kernel.upper(): f for f in self.failures}

    def total_attempts(self) -> int:
        """Attempts across all kernels, successes and failures alike."""
        return (
            sum(r.attempts for r in self.runs.values())
            + sum(f.attempts for f in self.failures)
        )


def kernel_named(name: str, names: Collection[str]) -> str | None:
    """The name in ``names`` that ``name`` looks up: ``name`` itself
    when present, else the first that equals it case-insensitively
    (registry names are upper case, so ``"triad"`` finds ``TRIAD``),
    else ``None``. A result keys its kernels by ``Kernel.name`` as
    given, so a kernel renamed ``"triad_v2"`` is found by that name."""
    if name in names:
        return name
    key = name.upper()
    return next((other for other in names if other.upper() == key), None)


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
#: :meth:`PointPrefetch.prefetched` produces it, and
#: :func:`_run_one_kernel` and ``SuiteResult.runs`` consume it.
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
    """One grid point's share of :func:`grid_prefetch`: its
    configuration's prediction work and what the batch pass made of it.

    The work: the ``compiler`` and ``cores`` the configuration resolved
    to, its ``precision``, the job's ``kernels`` that compiled with
    their ``reports``, and their problem ``sizes``. ``seconds`` is the
    row a suite or sweep grid point folds: every kernel of the point's
    job, in job order, as the batch pass predicted it, or ``None`` when
    a kernel was dropped by a compile failure, the batch pass abstained
    on one or the point was not predicted. :meth:`prefetched` builds the
    ``{kernel name: (report, prediction)}`` dict, from row ``row`` of
    ``grid`` (or from ``predictions``, the list
    :func:`~repro.perfmodel.batch.predict_batch` gave a point predicted
    on its own, or with no prediction at all). It is asked for only by
    the per-kernel loop (:func:`_run_loop`) and by ``SuiteResult.runs``,
    when a folded result's runs are first read.
    """

    compiler: Compiler
    cores: tuple[int, ...]
    precision: DType
    kernels: Sequence[Kernel]
    reports: Sequence[VectorizationReport]
    sizes: tuple[int, ...] | None
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
            predictions = self.predictions or [None] * len(self.kernels)
        return {
            kernel.name: (report, prediction)
            for kernel, report, prediction in zip(
                self.kernels, self.reports, predictions
            )
        }


def grid_prefetch(
    cpu: CPUModel,
    kernels: Sequence[Kernel],
    jobs: list[tuple[RunConfig, list[Kernel]] | None],
    caches: SuiteCaches | None,
) -> list[PointPrefetch | None]:
    """Batch-prefetch configurations ahead of their suite runs: a
    sweep's grid, or the requests on one machine and kernel list of a
    :func:`run_suites` or :func:`run_suite` call. Only :func:`_fold`
    calls it.

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

    Each returned :class:`PointPrefetch` hands its grid point its
    configuration's work and its row of seconds; no ``ExecutionResult``
    is built for a grid row until :meth:`PointPrefetch.prefetched` asks
    for one. Where :func:`predicts_in_batch` says no (a chaos plan,
    ``reference_mode()``) only the reports are resolved: each point's
    entries carry no prediction, and its per-kernel loop predicts
    kernel by kernel.

    A ``None`` entry in the result means this configuration could not
    be planned here (e.g. its placement or compiler resolution raises);
    its :func:`_run_loop` then raises the authoritative error.
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
            # Leave this point to the per-kernel loop, which reproduces
            # the error under its own policy handling.
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
        out[i] = PointPrefetch(
            compiler, cores, config.precision, resolved, reports,
            scaled_sizes(resolved, config.size_scale),
        )
        if predict and resolved:
            # Workload identity: one compile configuration fixes each
            # kernel's report, and the scale its size.
            buckets.setdefault(
                (key, config.size_scale, tuple(resolved)), []
            ).append(i)

    for idxs in buckets.values():
        first = out[idxs[0]]
        if len(idxs) == 1:
            first.predictions = predict_batch(
                cpu, first.kernels, first.cores, first.precision,
                first.reports, first.sizes,
            )
            if all(p is not None for p in first.predictions):
                first.seconds = [p.seconds for p in first.predictions]
            continue
        grid = predict_grid(
            cpu, first.kernels,
            [out[i].cores for i in idxs],
            [out[i].precision for i in idxs],
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
        if point is not None and len(point.kernels) != len(job[1]):
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
    :func:`_run_one_kernel` for such a kernel, under the precondition
    that no chaos plan can fault it (a row is complete only where
    :func:`predicts_in_batch` let the batch engine predict it): a run is
    its predicted seconds times its kernel's noise mean, finite and
    positive. Without noise the row is returned as it is: a prediction,
    and a grid row with no ``invalid`` cell, is finite and positive
    already (the batch engine's validity mask and ``ExecutionResult``
    both reject anything else). With noise, a product that is not gives
    up on the whole suite, so the loop raises the identical
    :class:`SimulationError`. Only :func:`_fold` calls it. A telemetry
    session or a checkpoint changes what is recorded of a fold, never
    whether it is taken.
    """
    if means is None:
        return seconds
    seconds = [s * mean for s, mean in zip(seconds, means)]
    for run_seconds in seconds:
        if not math.isfinite(run_seconds) or run_seconds <= 0:
            return None
    return seconds


def _fold(
    groups: Sequence[tuple[
        CPUModel, Sequence[Kernel],
        Sequence[tuple[RunConfig, Sequence[Kernel]] | None],
    ]],
    caches: SuiteCaches | None,
) -> list[list[tuple[PointPrefetch | None, list[float] | None]]]:
    """Prefetch, draw noise and fold: the one place where suites, and
    sweep grid points, are computed together.

    A group is ``(cpu, kernels, jobs)``: the requests of one
    :func:`run_suites` or :func:`run_suite` call on one machine and
    kernel list, or a sweep's whole grid, checkpoint subsets included.
    A job is ``(config, kernels)``, its kernels a subsequence of the
    group's, or ``None``.

    Each group on a valid machine gets one :func:`grid_prefetch`;
    validity is asked of :func:`_machine_valid` once per machine
    object. Every
    job whose row of seconds is complete, in every group, shares one
    :func:`_noise_means` call and is folded by :func:`fold_seconds`.

    Returns each group's jobs' ``(prefetch, seconds)``: the job's
    :class:`PointPrefetch` (``None`` where it could not be planned) and
    its run-averaged seconds, or ``None`` where it needs the per-kernel
    loop (:func:`_run_loop`).
    """
    verdicts: dict[int, bool] = {}
    out: list[list[tuple[PointPrefetch | None, list[float] | None]]] = []
    complete: list[tuple[list, int]] = []
    suites = []
    for cpu, kernels, jobs in groups:
        if id(cpu) not in verdicts:
            verdicts[id(cpu)] = _machine_valid(cpu)
        points = (
            grid_prefetch(cpu, kernels, jobs, caches)
            if verdicts[id(cpu)] else [None] * len(jobs)
        )
        folds = []
        for point, job in zip(points, jobs):
            if point is not None and point.seconds is not None:
                complete.append((folds, len(folds)))
                suites.append((cpu, job[0], point.compiler, job[1]))
            folds.append((point, None))
        out.append(folds)
    for (folds, j), means in zip(complete, _noise_means(suites)):
        point = folds[j][0]
        folds[j] = (point, fold_seconds(point.seconds, means))
    return out


def _run_loop(
    cpu: CPUModel,
    config: RunConfig,
    kernels: Sequence[Kernel],
    point: PointPrefetch | None,
    policy: FailurePolicy,
    retry: RetrySpec | None,
    mark: int | None,
) -> SuiteResult:
    """The per-kernel policy loop: one suite, each kernel isolated
    under ``policy`` (``retry`` is the RETRY budget, ``RetrySpec()``
    when ``None``), in one ``suite.run`` span.

    It raises as :func:`run_suite` does, in this order: an empty kernel
    list, then :func:`validate_cpu`, the chaos ``MACHINE`` site, the
    compiler resolution and :func:`assign_cores`. Each kernel takes its
    report and prediction from ``point``, :func:`_fold`'s prefetch
    (``None`` where none was made), and the scalar model predicts a
    kernel the batch pass did not. It draws the suite's noise itself,
    and never prefetches or folds. Under a telemetry session the
    result's summary covers the spans recorded since ``mark``.
    """
    if not kernels:
        raise ConfigError("kernel list is empty")
    rec = telemetry.recorder()
    # One boolean, hoisted out of the per-kernel loop: the telemetry-off
    # path pays a local-variable check per kernel, nothing more.
    traced = rec.active
    spec = retry if retry is not None else RetrySpec()
    runs: dict[str, KernelRun] = {}
    failures: list[FailureRecord] = []
    with _suite_span(rec, cpu, config, len(kernels)):
        validate_cpu(cpu)
        chaos.raise_if_fault(FaultSite.MACHINE)
        compiler = config.resolve_compiler(cpu)
        cores = assign_cores(cpu.topology, config.threads,
                             config.placement)
        (means,) = _noise_means([(cpu, config, compiler, kernels)])
        entries = {} if point is None else point.prefetched()
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
                            entries, mean,
                        )
                else:
                    runs[kernel.name] = _run_one_kernel(
                        kernel, cpu, config, compiler, cores, entries,
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
                            k, cpu, config, compiler, cores, entries, m,
                        ),
                        replace(
                            spec, max_retries=spec.max_retries - 1,
                            backoff_base_s=(
                                spec.backoff_base_s * spec.backoff_factor
                            ),
                        ),
                    )
                    retry_span.set(attempts=engine_attempts + 1)
                runs[kernel.name] = replace(
                    run, attempts=engine_attempts + 1
                )
            except RetryExhaustedError as exc:
                failures.append(
                    FailureRecord.from_exception(
                        kernel.name, exc.last, exc.attempts + 1
                    )
                )
    return SuiteResult(
        cpu.name, config, runs, tuple(failures),
        _summary(rec, mark, len(runs), len(failures)),
    )


def _suite_span(rec, cpu: CPUModel, config: RunConfig, kernels: int):
    """The ``suite.run`` span of one suite: the per-kernel loop's, or
    the short span of a fold that was taken (a folded request or sweep
    grid point)."""
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


def _summary(
    rec, mark: int | None, kernel_runs: int, kernel_failures: int = 0,
) -> "telemetry.TelemetrySummary | None":
    """The telemetry of one suite's result: ``None`` without a session;
    under one the suite is counted, and the summary covers the spans
    its thread recorded since ``mark``."""
    if not rec.active:
        return None
    return telemetry.TelemetrySummary.capture(
        rec, _count_suite(kernel_runs, kernel_failures), since=mark
    )


def _kernel_columns(
    kernels: Sequence[Kernel],
) -> tuple[tuple[str, ...], tuple[KernelClass, ...]] | None:
    """The ``names`` and ``classes`` columns of a folded suite over
    ``kernels``, or ``None`` when a name repeats: runs are keyed by
    name, so such a suite is left to the per-kernel loop, which keeps
    one run per name."""
    names = tuple(kernel.name for kernel in kernels)
    if len(set(names)) != len(names):
        return None
    return names, tuple(kernel.klass for kernel in kernels)


class SuiteRequest(NamedTuple):
    """One suite :func:`run_suites` evaluates: the arguments of
    ``run_suite(cpu, config, kernels)``, with ``kernels=None`` for the
    whole suite."""

    cpu: CPUModel
    config: RunConfig
    kernels: Sequence[Kernel] | None = None


def _machine_valid(cpu: CPUModel) -> bool:
    """Whether ``cpu`` passes the validation the per-kernel loop runs
    first (one machine object, so one verdict for all its suites)."""
    try:
        validate_cpu(cpu)
    except ReproError:
        return False
    return True


def run_suite(
    cpu: CPUModel,
    config: RunConfig,
    kernels: list[Kernel] | None = None,
    *,
    policy: FailurePolicy = FailurePolicy.ABORT,
    retry: RetrySpec | None = None,
    caches: SuiteCaches | None = None,
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

    The one request goes through the body :func:`run_suites` evaluates
    each of its requests with (:func:`_evaluate`), so the two agree: the
    whole kernel list is predicted in one vectorized pass
    (:func:`repro.perfmodel.batch.predict_batch`), or kernel by kernel
    through :func:`simulate_kernel` in the cases the module docstring
    names; either way the noise of all kernels is averaged in one
    :func:`~repro.util.rng.noise_means` pass. A suite the fold takes
    comes back as its three columns, and builds its runs only when
    ``SuiteResult.runs`` is read.
    """
    if isinstance(policy, str):
        policy = FailurePolicy.from_label(policy)
    (result,) = _evaluate(
        [(cpu, config, suite() if kernels is None else tuple(kernels))],
        policy, retry, caches,
    )
    return result


def run_suites(
    requests: Iterable[SuiteRequest | tuple],
) -> list[SuiteResult]:
    """``[run_suite(*request) for request in requests]``, with the work
    of all the requests done together.

    A request is a :class:`SuiteRequest` or a ``(cpu, config)`` or
    ``(cpu, config, kernels)`` tuple. Results come back in request
    order, and equal requests (equal machines and configurations, the
    same kernels) are evaluated once and share one :class:`SuiteResult`.
    The distinct requests go through :func:`run_suite`'s body, so each
    result equals ``run_suite``'s for the same request.
    """
    slots: dict[tuple[CPUModel, RunConfig, tuple[Kernel, ...]], int] = {}
    order = []
    for request in requests:
        cpu, config, kernels = SuiteRequest(*request)
        key = (cpu, config, suite() if kernels is None else tuple(kernels))
        order.append(slots.setdefault(key, len(slots)))
    results = _evaluate(list(slots), FailurePolicy.ABORT, None, None)
    return [results[slot] for slot in order]


def _evaluate(
    requests: Sequence[tuple[CPUModel, RunConfig, tuple[Kernel, ...]]],
    policy: FailurePolicy,
    retry: RetrySpec | None,
    caches: SuiteCaches | None,
) -> list[SuiteResult]:
    """The results of distinct ``(cpu, config, kernels)`` requests, in
    order: the body of :func:`run_suite` and :func:`run_suites`.

    The requests on one machine and kernel list are one :func:`_fold`
    group, so one :func:`grid_prefetch` resolves each compile
    configuration once and predicts the configurations that share a
    workload in one :func:`~repro.perfmodel.batch.predict_grid` pass,
    and all the requests' noise is drawn in one :func:`_noise_means`
    call: one :func:`~repro.util.rng.noise_means` draw per (``runs``,
    ``noise_sigma``). Folds come first. Then, in request order, a
    folded request becomes a result of three columns and any other
    goes through :func:`_run_loop`, so the first request that fails
    raises its error. The loop takes a request the fold gave up on (a
    configuration that raises, a kernel that failed to compile, a batch
    abstention, a time that is not finite and positive, a kernel name
    given twice), and every request while a chaos plan or
    ``reference_mode()`` is active, or on a machine that fails
    validation.

    Under a telemetry session each result records one ``suite.run``
    span, the short span of a taken fold or the loop's, and is counted
    as a suite. Its summary covers the spans the call recorded since
    the previous result's, the first result's also the fold's grid
    passes.
    """
    groups: dict[tuple[CPUModel, tuple[Kernel, ...]], list[int]] = {}
    for i, (cpu, _, kernels) in enumerate(requests):
        groups.setdefault((cpu, kernels), []).append(i)
    rec = telemetry.recorder()
    mark = rec.mark() if rec.active else None
    folds = _fold(
        [
            (cpu, kernels, [(requests[i][1], kernels) for i in members])
            for (cpu, kernels), members in groups.items()
        ],
        caches,
    )
    outcomes: list = [None] * len(requests)
    for ((_, kernels), members), group in zip(groups.items(), folds):
        columns = _kernel_columns(kernels)
        for i, (point, seconds) in zip(members, group):
            outcomes[i] = (point, seconds if columns else None, columns)
    results = []
    for (cpu, config, kernels), (point, seconds, columns) in zip(
        requests, outcomes
    ):
        if results and mark is not None:
            mark = rec.mark()
        if seconds is None:
            result = _run_loop(
                cpu, config, kernels, point, policy, retry, mark,
            )
        else:
            if mark is not None:
                with _suite_span(rec, cpu, config, len(kernels)):
                    pass
            result = SuiteResult._folded(
                cpu.name, config, columns, seconds, point,
                _summary(rec, mark, len(kernels)),
            )
        results.append(result)
    return results


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
