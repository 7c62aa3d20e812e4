"""Configuration sweeps: run grids of (threads, placement, precision).

The experiments hand-roll their specific sweeps; this module provides
the general tool a user points at their own question — "which
configuration is best for these kernels on this machine?" — with tidy
long-format results and CSV export.

Sweeps are resilient: per-kernel failures degrade to explicit
``failures`` records under the skip/retry policies instead of killing
the grid, and a JSONL checkpoint (``checkpoint=``) persists completed
points so a killed sweep resumes mid-grid without recomputing them.

Sweeps are also fast: every grid point shares one compile
configuration, so a sweep resolves its kernels' reports once, through
the process's compile table
(:func:`~repro.compiler.vectorizer.analyze_suite`, and the ``--store``
tier when one is attached), and the batch engine predicts the whole
grid in one vectorized pass before the grid points are assembled, one
after another, in grid order. The grid takes the two steps
:func:`~repro.suite.runner.run_suite` and
:func:`~repro.suite.runner.run_suites` take, and no code of its own:
:func:`~repro.suite.runner._fold` prefetches the whole grid, draws its
noise and folds each grid point whose row is complete, and
:func:`~repro.suite.runner._run_loop`, the per-kernel policy loop, runs
every other point. A folded point's seconds become its
:class:`SweepRow` with no per-cell ``ExecutionResult`` in between,
traced or checkpointed alike: a telemetry session records the point's
one ``suite.run`` span, and a checkpoint its kernels' records, one
attempt each. A grid point runs the loop under a chaos plan or
``reference_mode()`` (where the scalar model predicts each kernel, by
the rule of :func:`~repro.suite.runner.predicts_in_batch`), or when the
fold gives up on it (an invalid configuration or machine, a kernel that
failed to compile, a batch abstention, a time that is not finite and
positive). Both paths give the same rows and failures.

A :class:`SweepResult` is a table of those rows, one per emitted grid
point. The CSV, the CLI's table and the service's ``/sweep`` body read
the rows; the long-format :class:`SweepPoint`\\ s, one object per cell,
are built from them only when ``SweepResult.points`` is first read.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, fields as dataclass_fields
from itertools import product
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from repro import telemetry
from repro.kernels.base import Kernel
from repro.machine.cpu import CPUModel
from repro.resilience.checkpoint import (
    SweepCheckpoint,
    point_key,
    thread_key,
)
from repro.resilience.retry import FailurePolicy, FailureRecord, RetrySpec
from repro.suite.config import Placement, Precision, RunConfig, as_member
from repro.suite.memo import SuiteCaches
from repro.suite.runner import (
    _count_suite,
    _fold,
    _run_loop,
    _suite_span,
    kernel_named,
)
from repro.util.errors import ConfigError, ReproError
from repro.util.rng import derive_seed


@dataclass(frozen=True)
class SweepPoint:
    """One cell of a sweep result (long format)."""

    cpu: str
    threads: int
    placement: Placement
    precision: Precision
    kernel: str
    seconds: float


@dataclass(frozen=True)
class SweepFailure:
    """One kernel (or whole configuration) that failed inside a sweep.

    ``kernel`` is ``"*"`` when the entire configuration failed before
    any kernel ran (e.g. a corrupted machine description).
    """

    cpu: str
    threads: int
    placement: Placement
    precision: Precision
    kernel: str
    error_type: str
    message: str
    attempts: int
    site: str | None = None


class SweepRow(NamedTuple):
    """One emitted grid point of a sweep: its configuration, and the
    names and run-averaged seconds of its kernels, in kernel order.

    Row ``r`` stands for the points ``SweepPoint(r.cpu, r.threads,
    r.placement, r.precision, kernel, seconds)`` over
    ``zip(r.kernels, r.seconds)``.
    """

    cpu: str
    threads: int
    placement: Placement
    precision: Precision
    kernels: tuple[str, ...]
    seconds: tuple[float, ...]


#: Attribute names ``SweepResult.filtered`` accepts as criteria.
_POINT_ATTRS = frozenset(f.name for f in dataclass_fields(SweepPoint))

#: Serializes the one-time build of a result's points.
_POINTS_LOCK = threading.Lock()


@dataclass(frozen=True, init=False, eq=False)
class SweepResult:
    """All points of one sweep, plus any recorded failures.

    The points are held as a table, ``rows``: one :class:`SweepRow` per
    emitted grid point, in grid x kernel order. ``to_csv``,
    ``best_overall`` and ``point_count`` read the rows; ``points``, the
    long format, is built from them when first read (once, also when
    two threads read it together), and ``filtered`` and
    ``best_for_kernel`` read it.

    ``SweepResult(points, failures)`` builds a result from points, in
    any order: each run of consecutive points sharing their cpu, thread
    count, placement and precision becomes one row. Equality and hash
    are over ``points`` and ``failures``.
    """

    rows: tuple[SweepRow, ...]
    failures: tuple[SweepFailure, ...] = ()
    #: Telemetry digest of this sweep (``None`` when telemetry was
    #: off): counts and per-phase inclusive times of the spans it
    #: recorded on its thread, and the session's metric values when it
    #: returned. Excluded from equality.
    telemetry: "telemetry.TelemetrySummary | None" = None

    def __init__(
        self,
        points: Sequence[SweepPoint],
        failures: tuple[SweepFailure, ...] = (),
        telemetry: "telemetry.TelemetrySummary | None" = None,
    ) -> None:
        self._set(
            _rows_of(
                (p.cpu, p.threads, p.placement, p.precision, p.kernel,
                 p.seconds)
                for p in points
            ),
            failures, telemetry, points,
        )

    @classmethod
    def _of_rows(
        cls,
        rows: tuple[SweepRow, ...],
        failures: tuple[SweepFailure, ...],
        telemetry: "telemetry.TelemetrySummary | None" = None,
    ) -> SweepResult:
        """A result holding ``rows``; its points are built on demand."""
        result = object.__new__(cls)
        result._set(rows, failures, telemetry, None)
        return result

    def _set(self, rows, failures, telemetry, points) -> None:
        if not rows and not failures:
            raise ConfigError("sweep produced no points")
        setattr_ = object.__setattr__
        setattr_(self, "rows", rows)
        setattr_(self, "failures", failures)
        setattr_(self, "telemetry", telemetry)
        setattr_(self, "_points", points)

    @property
    def points(self) -> tuple[SweepPoint, ...]:
        """Every cell as a :class:`SweepPoint`, in row order."""
        points = self._points
        if points is None:
            with _POINTS_LOCK:
                points = self._points
                if points is None:
                    points = _points_of(self.rows)
                    object.__setattr__(self, "_points", points)
        return points

    @property
    def point_count(self) -> int:
        """``len(self.points)``, counted from the rows."""
        return sum(len(row.kernels) for row in self.rows)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.points, self.failures) == (other.points, other.failures)

    def __hash__(self) -> int:
        return hash((self.points, self.failures))

    def filtered(self, **criteria) -> list[SweepPoint]:
        """Points matching all given attribute values.

        A kernel name is looked up by
        :func:`~repro.suite.runner.kernel_named`'s rule: as given, else
        case-insensitively, so ``filtered(kernel="triad")`` matches
        ``TRIAD`` and a kernel renamed ``"triad_v2"`` is found by that
        name (and ``best_for_kernel`` inherits the same rule).
        """
        unknown = sorted(set(criteria) - _POINT_ATTRS)
        if unknown:
            raise ConfigError(
                f"unknown sweep point attribute(s) {unknown}; "
                f"known: {sorted(_POINT_ATTRS)}"
            )
        name = criteria.get("kernel")
        if isinstance(name, str):
            named = kernel_named(name, dict.fromkeys(
                kernel for row in self.rows for kernel in row.kernels
            ))
            criteria["kernel"] = name if named is None else named
        out = []
        for point in self.points:
            if all(
                getattr(point, key) == value
                for key, value in criteria.items()
            ):
                out.append(point)
        return out

    def best_for_kernel(self, kernel: str) -> SweepPoint:
        """Fastest configuration for one kernel."""
        candidates = self.filtered(kernel=kernel)
        if not candidates:
            raise ConfigError(f"no sweep points for kernel {kernel!r}")
        return min(candidates, key=lambda p: p.seconds)

    def best_overall(self) -> tuple[int, Placement, Precision]:
        """Configuration minimizing the summed time over all kernels."""
        if not self.rows:
            raise ConfigError("sweep has no successful points")
        totals: dict[tuple, float] = {}
        for row in self.rows:
            key = (row.threads, row.placement, row.precision)
            total = totals.get(key, 0.0)
            for seconds in row.seconds:
                total += seconds
            totals[key] = total
        return min(totals, key=totals.get)

    def to_csv(self) -> str:
        """The points as CSV: a header, then one line per point.

        The bytes :func:`~repro.util.tables.render_csv` gives for the
        points. Each row renders its four leading cells once, into a
        ``%``-template of the row's lines that formats all its seconds
        in one operation (``%.9f`` gives the digits ``{:.9f}`` does).
        Only the machine and kernel names can hold a comma: the machine
        name is checked with each row, each distinct kernel name once.
        """
        lines = ["cpu,threads,placement,precision,kernel,seconds"]
        checked: set[str] = set()
        last = names = None
        for cpu, threads, placement, precision, kernels, seconds in (
            self.rows
        ):
            _reject_comma(cpu)
            if kernels is not last:
                # A folded sweep's rows share one kernel tuple.
                last = kernels
                for kernel in kernels:
                    if kernel not in checked:
                        _reject_comma(kernel)
                        checked.add(kernel)
                # Names and head are literal template text: "%" -> "%%".
                names = [kernel.replace("%", "%%") for kernel in kernels]
            head = f"{cpu},{threads},{placement.value},{precision.label},"
            head = head.replace("%", "%%")
            template = head + (",%.9f\n" + head).join(names) + ",%.9f"
            lines.append(template % seconds)
        return "\n".join(lines)

    def failure_summary(self) -> str:
        """Human-readable list of the sweep's failures (may be empty)."""
        if not self.failures:
            return "no failures"
        lines = [f"{len(self.failures)} failure(s):"]
        for f in self.failures:
            lines.append(
                f"  {f.kernel:<14} {f.threads:>3}t {f.placement.value:<8}"
                f" {f.precision.label}: {f.error_type} after "
                f"{f.attempts} attempt(s): {f.message}"
            )
        return "\n".join(lines)


def _reject_comma(cell: str) -> None:
    """Raise ``ConfigError`` for a CSV cell holding a comma (the CSV
    has no quoting)."""
    if "," in cell:
        raise ConfigError(f"CSV cell {cell!r} contains a comma")


def _rows_of(cells: Iterable[tuple]) -> tuple[SweepRow, ...]:
    """Rows of ``(cpu, threads, placement, precision, kernel, seconds)``
    cells: one per run of consecutive cells sharing their first four."""
    runs: list[tuple[tuple, list[str], list[float]]] = []
    leading = None
    for cpu, threads, placement, precision, kernel, seconds in cells:
        if leading != (cpu, threads, placement, precision):
            leading = (cpu, threads, placement, precision)
            runs.append((leading, [], []))
        runs[-1][1].append(kernel)
        runs[-1][2].append(seconds)
    return tuple(
        SweepRow(*leading, tuple(kernels), tuple(seconds))
        for leading, kernels, seconds in runs
    )


def _points_of(rows: tuple[SweepRow, ...]) -> tuple[SweepPoint, ...]:
    """The rows' cells as points, in row and kernel order.

    ``SweepPoint`` has no ``__post_init__``, so each point skips
    ``__init__`` (six frozen-attribute writes) and gets its fields
    written directly: the same equality, hash and repr.
    """
    new = object.__new__
    points = []
    append = points.append
    for cpu, threads, placement, precision, kernels, seconds in rows:
        for kernel, run_seconds in zip(kernels, seconds):
            point = new(SweepPoint)
            point.__dict__.update(
                cpu=cpu,
                threads=threads,
                placement=placement,
                precision=precision,
                kernel=kernel,
                seconds=run_seconds,
            )
            append(point)
    return tuple(points)


def _grid_hash(
    cpu: CPUModel,
    kernels: Sequence[Kernel],
    threads: Sequence[int],
    placements: Sequence[Placement],
    precisions: Sequence[Precision],
    runs: int,
    noise_sigma: float,
) -> int:
    """Integrity stamp tying a checkpoint to one exact sweep grid.

    Thread counts enter through :func:`thread_key`, so a grid the plain
    sweep rejects (``4.0``, ``'4'``) never resumes a checkpoint of an
    accepted one (``4``)."""
    return derive_seed(
        "sweep-checkpoint",
        cpu.name,
        tuple(k.name for k in kernels),
        tuple(thread_key(t) for t in threads),
        tuple(p.value for p in placements),
        tuple(p.label for p in precisions),
        runs,
        noise_sigma,
    )


@dataclass
class _GridPoint:
    """One configuration of the sweep grid, pre-split against the
    checkpoint into already-completed kernels (``restored``: name ->
    the record's ``(cpu, seconds)``) and still-to-run ones."""

    threads: int
    placement: Placement
    precision: Precision
    restored: dict[str, tuple[str, float]]
    todo: list[Kernel]

    def config(self, runs: int, noise_sigma: float) -> RunConfig:
        """The point's run configuration; raises for an invalid one."""
        return RunConfig(
            threads=self.threads, placement=self.placement,
            precision=self.precision, runs=runs, noise_sigma=noise_sigma,
        )


def sweep(
    cpu: CPUModel,
    kernels: Sequence[Kernel],
    threads: Sequence[int] = (1,),
    placements: Sequence[Placement] = (Placement.BLOCK,),
    precisions: Sequence[Precision] = (Precision.FP64,),
    runs: int = 1,
    noise_sigma: float = 0.0,
    *,
    policy: FailurePolicy = FailurePolicy.ABORT,
    retry: RetrySpec | None = None,
    checkpoint: str | Path | None = None,
    caches: SuiteCaches | None = None,
) -> SweepResult:
    """Run the full configuration grid and collect its points.

    Grid points run one after another, in grid order; their predictions
    come from one whole-grid pass made before the first point runs, and
    each grid point's row is built from that pass directly (see the
    module docstring for the points that run the per-kernel loop).
    Rows, and so points, come in grid x kernel order.

    A kernel named twice is run once, and so is a thread count,
    placement or precision given twice: the first of each is kept,
    before the grid is hashed or run. Thread counts repeat when their
    :func:`thread_key`\\ s are equal, so ``4`` and ``4.0`` stay two
    values (and ``4.0`` fails as ``RunConfig`` rejects it). A placement
    or precision may be given by its label (``"block"``, ``"fp32"``),
    which stands for its member, repeats included.

    Args:
        policy: Failure policy of each point's per-kernel loop, as in
            :func:`run_suite`; non-ABORT
            policies additionally catch whole-configuration failures
            (recorded with ``kernel="*"``) so the rest of the grid runs.
        retry: Retry budget for the RETRY policy.
        checkpoint: Path of a JSONL checkpoint. Completed points are
            flushed there as the grid progresses and skipped on resume;
            the file's header hash must match this exact grid.
        caches: The store tier of the sweep's compile reports
            (:meth:`SuiteCaches.persistent`). ``None`` (the default)
            resolves them through the in-process compile table
            (:func:`~repro.compiler.vectorizer.analyze_suite`) alone,
            so a kernel compiled by an earlier call, in any kernel
            list, is not compiled again.
    """
    if not kernels:
        raise ConfigError("kernel list is empty")
    if not threads or not placements or not precisions:
        raise ConfigError("sweep axes must be non-empty")
    if isinstance(policy, str):
        policy = FailurePolicy.from_label(policy)
    # The first of any repeats on each axis: the grid hash then agrees
    # with the points the grid emits, and no point is emitted twice. A
    # label repeats the member it names.
    kernel_list = _first_of_each(kernels, lambda kernel: kernel.name)
    threads = _first_of_each(threads, thread_key)
    placements = list(dict.fromkeys(
        as_member(Placement, placement) for placement in placements
    ))
    precisions = list(dict.fromkeys(
        as_member(Precision, precision) for precision in precisions
    ))

    rec = telemetry.recorder()
    if not rec.active:
        return _run_sweep(
            cpu, kernel_list, threads, placements, precisions, runs,
            noise_sigma, policy, retry, checkpoint, caches,
        )
    mark = rec.mark()
    with rec.span(
        "sweep", cpu=cpu.name, kernels=len(kernel_list),
        grid_points=len(threads) * len(placements) * len(precisions),
    ):
        result = _run_sweep(
            cpu, kernel_list, threads, placements, precisions, runs,
            noise_sigma, policy, retry, checkpoint, caches,
        )
    reg = telemetry.metrics()
    reg.counter("sweep.runs").inc()
    reg.counter("sweep.points").inc(result.point_count)
    if result.failures:
        reg.counter("sweep.failures").inc(len(result.failures))
    return SweepResult._of_rows(
        result.rows, result.failures,
        telemetry.TelemetrySummary.capture(rec, reg, since=mark),
    )


def _first_of_each(values: Iterable, key) -> list:
    """``values`` without repeats, the first of each kept, in order;
    two values repeat when their ``key``\\ s are equal."""
    firsts: dict = {}
    for value in values:
        firsts.setdefault(key(value), value)
    return list(firsts.values())


def _run_sweep(
    cpu: CPUModel,
    kernel_list: list[Kernel],
    threads: Sequence[int],
    placements: Sequence[Placement],
    precisions: Sequence[Precision],
    runs: int,
    noise_sigma: float,
    policy: FailurePolicy,
    retry: RetrySpec | None,
    checkpoint: str | Path | None,
    caches: SuiteCaches | None,
) -> SweepResult:
    """The grid body behind :func:`sweep`'s validation + telemetry
    wrapper (arguments arrive normalized)."""
    ckpt, grid = _checkpoint_grid(
        cpu, kernel_list, threads, placements, precisions, runs,
        noise_sigma, checkpoint,
    )
    rec = telemetry.recorder()
    # Hoisted: an untraced grid point pays this test, no null span.
    traced = rec.active

    # Whole-grid fold: one compile resolution and one vectorized pass
    # compute every grid point's predictions up front (uniform points
    # share a single 2-D ``predict_grid`` evaluation), and every point
    # whose row is complete is folded into its run-averaged seconds.
    # Bit-identical to a per-point prefetch. Where the batch prefetch is
    # skipped (chaos plans, reference mode) the grid still resolves its
    # reports once, and each point's per-kernel loop predicts kernel by
    # kernel.
    jobs: list[tuple[RunConfig, list[Kernel]] | None] = [None] * len(grid)
    for i, gp in enumerate(grid):
        try:
            jobs[i] = (gp.config(runs, noise_sigma), gp.todo)
        except ReproError:
            # Invalid configuration: left unprefetched, so the point's
            # own build of it below raises (or records) the error.
            pass
    with rec.span(
        "sweep.prefetch", jobs=sum(1 for j in jobs if j is not None),
    ):
        (folds,) = _fold([(cpu, kernel_list, jobs)], caches)

    # A folded grid point's seconds become its SweepRow directly, with
    # no ExecutionResult or SuiteResult in between; a checkpoint records
    # its kernels with one attempt each. Any other point with kernels
    # left runs the per-kernel loop, which raises (or, under a non-ABORT
    # policy, records) an invalid configuration or machine per point.
    cpu_name = cpu.name
    # Without a checkpoint every grid point runs every kernel.
    names = tuple(kernel.name for kernel in kernel_list)
    rows: list[SweepRow] = []
    failures: list[SweepFailure] = []
    for gp, job, (point, seconds) in zip(grid, jobs, folds):
        if seconds is not None:
            if traced:
                with _suite_span(rec, cpu, job[0], len(gp.todo)):
                    pass
                _count_suite(len(seconds))
            if ckpt is None:
                rows.append(SweepRow(
                    cpu_name, gp.threads, gp.placement, gp.precision,
                    names, tuple(seconds),
                ))
            else:
                _collect_point(
                    cpu_name, kernel_list, ckpt, rows, failures, gp,
                    [(kernel.name, run_seconds, 1)
                     for kernel, run_seconds in zip(gp.todo, seconds)],
                )
            continue
        ran, failed = [], ()
        try:
            if gp.todo:
                outcome = _run_loop(
                    cpu, gp.config(runs, noise_sigma), gp.todo, point,
                    policy, retry, rec.mark() if traced else None,
                )
                ran = [
                    (name, run.seconds, run.attempts)
                    for name, run in outcome.runs.items()
                ]
                failed = outcome.failures
        except ReproError as exc:
            if policy is FailurePolicy.ABORT:
                raise
            failed = (FailureRecord.from_exception("*", exc, 1),)
        _collect_point(
            cpu_name, kernel_list, ckpt, rows, failures, gp, ran, failed,
        )

    return SweepResult._of_rows(tuple(rows), tuple(failures))


def _checkpoint_grid(
    cpu: CPUModel,
    kernel_list: list[Kernel],
    threads: Sequence[int],
    placements: Sequence[Placement],
    precisions: Sequence[Precision],
    runs: int,
    noise_sigma: float,
    checkpoint: str | Path | None,
) -> tuple[SweepCheckpoint | None, list[_GridPoint]]:
    """The sweep grid, pre-split against the checkpoint."""
    ckpt: SweepCheckpoint | None = None
    if checkpoint is not None:
        ckpt = SweepCheckpoint(
            checkpoint,
            _grid_hash(cpu, kernel_list, threads, placements, precisions,
                       runs, noise_sigma),
        )
    grid: list[_GridPoint] = []
    for t, placement, precision in product(
        threads, placements, precisions
    ):
        if ckpt is None:
            # No checkpoint: every kernel is todo — skip the per-kernel
            # key derivation entirely (it is pure overhead here, and a
            # warm sweep's grid walk is counted in microseconds).
            grid.append(
                _GridPoint(t, placement, precision, {},
                           list(kernel_list))
            )
            continue
        restored: dict[str, tuple[str, float]] = {}
        todo: list[Kernel] = []
        for kernel in kernel_list:
            key = point_key(
                t, placement.value, precision.label, kernel.name
            )
            if ckpt is not None and ckpt.has(key):
                record = ckpt.completed[key]
                restored[kernel.name] = (
                    record.get("cpu", cpu.name), float(record["seconds"])
                )
            else:
                todo.append(kernel)
        grid.append(_GridPoint(t, placement, precision, restored, todo))
    return ckpt, grid


def _collect_point(
    cpu_name: str,
    kernel_list: list[Kernel],
    ckpt: SweepCheckpoint | None,
    rows: list[SweepRow],
    failures: list[SweepFailure],
    gp: _GridPoint,
    ran: Iterable[tuple[str, float, int]],
    failed: Iterable[FailureRecord] = (),
) -> None:
    """Fold one grid point's outcome into the sweep's accumulators:
    ``ran`` holds each kernel run at this point as ``(name, seconds,
    attempts)``, ``failed`` the failure records of the rest.

    Called in grid order, so checkpoint records and result rows come
    out deterministic.
    """
    fresh: dict[str, tuple[str, float]] = {}
    for name, seconds, attempts in ran:
        fresh[name] = (cpu_name, seconds)
        if ckpt is not None:
            ckpt.record({
                "cpu": cpu_name,
                # The stored int: JSON has no NumPy integers.
                "threads": thread_key(gp.threads),
                "placement": gp.placement.value,
                "precision": gp.precision.label,
                "kernel": name,
                "seconds": seconds,
                "attempts": attempts,
            })
    failures.extend(
        _sweep_failure(
            cpu_name, gp.threads, gp.placement, gp.precision, record,
        )
        for record in failed
    )
    # Emit the cells in kernel order regardless of restore/run split.
    cells = []
    for kernel in kernel_list:
        cell = gp.restored.get(kernel.name) or fresh.get(kernel.name)
        if cell is not None:
            cpu, seconds = cell
            cells.append((cpu, gp.threads, gp.placement, gp.precision,
                          kernel.name, seconds))
    rows.extend(_rows_of(cells))


def _sweep_failure(
    cpu_name: str,
    threads: int,
    placement: Placement,
    precision: Precision,
    record: FailureRecord,
) -> SweepFailure:
    return SweepFailure(
        cpu=cpu_name,
        threads=threads,
        placement=placement,
        precision=precision,
        kernel=record.kernel,
        error_type=record.error_type,
        message=record.message,
        attempts=record.attempts,
        site=record.site,
    )
