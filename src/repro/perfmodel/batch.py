"""Vectorized whole-suite prediction: the batch engine.

``simulate_kernel`` walks one (kernel, machine, configuration) point at
Python speed: a handful of function calls, a per-class scan, a dozen
float operations. A sweep multiplies that by thousands of points, so a
*cold* grid (empty caches) is rate-limited by the interpreter, not by
the model's arithmetic.

:func:`predict_batch` evaluates one whole configuration — every kernel
of a suite at once — by *lowering* the kernel list into
structure-of-arrays NumPy inputs (:func:`lower_kernels`) and replaying
the scalar model as array expressions over the kernel axis:

* per-iteration pipeline times come from the scalar
  :func:`~repro.perfmodel.pipeline.pipeline_time_per_iter`, one float
  per kernel — they depend on the kernel, not the placement — and with
  the other placement-independent arrays form the *prelude*, kept per
  (machine, precision, size scale) as one row per (suite kernel,
  report), so each is built once per process whatever kernel lists
  arrive;
* the serving-level decision becomes a masked first-fit select over the
  cache levels, with sharers/bandwidths taken per *placement symmetry
  class* (:mod:`repro.perfmodel.placement`) as Python scalars from the
  same helpers the scalar model uses;
* the slowest-thread scan becomes a ``>=``-masked running maximum over
  the classes, preserving the scalar scan's last-wins tie-break;
* Amdahl composition, fork-join overhead and repetition scaling are
  elementwise array arithmetic.

**Bit-identity.** Every array expression performs the *same IEEE-754
double operations in the same order* as the scalar model does per
point — NumPy elementwise float64 arithmetic rounds identically to
Python float arithmetic — and every placement- or level-dependent
scalar (bandwidths, headrooms, barrier costs) is computed by the very
helper the scalar path calls. The golden and randomized tests in
``tests/suite/test_batch_equivalence.py`` pin the equality point for
point across machines, placements and dtypes.

**Fallback contract.** The batch path never raises per-kernel model
errors: a kernel whose batch evaluation cannot produce a valid
(finite, positive) prediction gets ``None`` in the returned list (a
``True`` in :func:`predict_grid`'s ``invalid`` mask), and
the caller re-runs it through the scalar model so failure semantics
(error types, messages, retry accounting) stay byte-identical. Chaos
fault plans and :func:`~repro.perfmodel.placement.reference_mode` are
handled one layer up (:mod:`repro.suite.runner` forces the scalar
engine) because injected faults are per-call state a batched evaluation
cannot replay.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import dataclass, fields
from functools import lru_cache
from operator import is_
from typing import NamedTuple, Sequence

import numpy as np

from repro import telemetry
from repro.compiler.vectorizer import VectorizationReport
from repro.kernels.base import Kernel, LoopFeature
from repro.kernels.registry import SuiteTables, suite, suite_positions
from repro.machine.cache import Sharing
from repro.machine.cpu import CPUModel
from repro.machine.vector import DType
from repro.perfmodel.execution import ExecutionResult, execution_dtype
from repro.perfmodel.memory import (
    GATHER_EFFICIENCY,
    dram_bandwidth_per_thread,
    fit_headroom,
    level_bandwidth_per_thread,
)
from repro.perfmodel.pipeline import pipeline_time_per_iter
from repro.perfmodel.placement import placement_profile
from repro.perfmodel.threading import barrier_seconds
from repro.util.errors import ReproError, SimulationError

#: Serving-level code for DRAM in the batched select (cache levels use
#: their index in ``cpu.caches.levels``).
_DRAM_CODE = -1


@dataclass(frozen=True)
class KernelSoA:
    """Structure-of-arrays lowering of a kernel list.

    One float64 (or bool) entry per kernel for every trait the analytic
    model reads per iteration. Arrays are read-only, and the suite's
    lowering is shared by every caller of :func:`lower_kernels`.
    """

    kernels: tuple[Kernel, ...]
    flops_per_iter: np.ndarray
    reads_per_iter: np.ndarray
    writes_per_iter: np.ndarray
    footprint_elems: np.ndarray
    traffic_scale: np.ndarray
    parallel_fraction: np.ndarray
    regions_per_rep: np.ndarray
    reps: np.ndarray
    gather: np.ndarray  # bool: INDIRECTION in features
    default_sizes: np.ndarray

    def __len__(self) -> int:
        return len(self.kernels)


def _frozen(values, dtype=np.float64) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def lower_kernels(kernels: tuple[Kernel, ...]) -> KernelSoA:
    """Lower ``kernels`` into the SoA form the batch engine consumes.

    Suite kernels are rows of one lowering of the whole suite, made once
    per process (:func:`~repro.kernels.registry.suite`); a kernel tuple
    takes its rows with one index array, and the suite itself takes the
    lowering as it is. Kernels outside the suite
    (:func:`~repro.kernels.registry.suite_positions`) are lowered on
    every call.
    """
    kernels = tuple(kernels)
    if kernels is suite():
        return _LOWERING(())
    positions = suite_positions(kernels)
    if not positions:
        return _lower_kernels_impl(kernels)
    return _suite_rows(kernels, positions)


def _suite_rows(kernels: tuple[Kernel, ...], positions) -> KernelSoA:
    """The lowering of ``kernels``, taken from the suite's lowering at
    their ``positions``: a read-only view of a contiguous run of
    positions, else a read-only gather by one index array."""
    whole = _LOWERING(())
    idx = _index(positions)
    rows = [getattr(whole, name)[idx] for name in _SOA_ARRAYS]
    if type(idx) is not slice:  # a gather copies; views are read-only
        for arr in rows:
            arr.setflags(write=False)
    return KernelSoA(kernels, *rows)


def _index(rows: list[int]) -> slice | np.ndarray:
    """``rows`` as a slice when they run contiguously upwards (a view,
    and the cheapest write), else as an index array."""
    first = rows[0]
    if rows == list(range(first, first + len(rows))):
        return slice(first, first + len(rows))
    return np.array(rows, dtype=np.intp)


#: The array fields of :class:`KernelSoA`: all but ``kernels``.
_SOA_ARRAYS = tuple(f.name for f in fields(KernelSoA))[1:]


def _lower_suite(key: tuple) -> KernelSoA:
    """The lowering of the whole suite.

    When a process-wide default :class:`~repro.store.ArtifactStore` is
    installed, it is read from the store's ``soa`` namespace, or
    written there, so a fresh process skips the trait walk; the on-disk
    key is the *content* of the lowering inputs (per-kernel trait
    scalars), so any re-tuned trait self-invalidates. Only code that
    imported :mod:`repro.store` can have installed a default store, so
    a process that never did skips the lookup and never loads the
    package.
    """
    kernels = suite()
    store_module = sys.modules.get("repro.store")
    store = None if store_module is None else store_module.default_store()
    if store is None:
        return _lower_kernels_impl(kernels)

    import warnings

    from repro.store.artifact import StoreWarning
    from repro.store.codecs import CodecError, decode_soa, encode_soa

    key = _soa_key_parts(kernels)
    payload = store.get("soa", key)
    if payload is not None:
        try:
            return decode_soa(payload, kernels)
        except CodecError as exc:
            warnings.warn(
                f"stored SoA lowering is unusable ({exc}); relowering",
                StoreWarning, stacklevel=2,
            )
    soa = _lower_kernels_impl(kernels)
    store.put("soa", key, encode_soa(soa))
    return soa


#: The one lowering of the suite (a single configuration, key ``()``).
_LOWERING = SuiteTables(_lower_suite)


def _soa_key_parts(kernels: tuple[Kernel, ...]) -> list:
    """Content key of a lowering: every scalar the SoA is built from.

    Deliberately *not* ``repr(traits)`` — trait feature sets render in
    hash order, which is not stable across processes.
    """
    rows = []
    for k in kernels:
        t = k.traits
        rows.append([
            k.name,
            float(t.flops_per_iter), float(t.reads_per_iter),
            float(t.writes_per_iter), float(t.footprint_elems),
            float(t.traffic_scale), float(t.parallel_fraction),
            float(t.regions_per_rep), float(k.reps),
            bool(LoopFeature.INDIRECTION in t.features),
            float(k.default_size),
        ])
    return ["kernels", rows]


def _lower_kernels_impl(kernels: tuple[Kernel, ...]) -> KernelSoA:
    traits = [k.traits for k in kernels]
    return KernelSoA(
        kernels=kernels,
        flops_per_iter=_frozen([t.flops_per_iter for t in traits]),
        reads_per_iter=_frozen([t.reads_per_iter for t in traits]),
        writes_per_iter=_frozen([t.writes_per_iter for t in traits]),
        footprint_elems=_frozen([t.footprint_elems for t in traits]),
        traffic_scale=_frozen([t.traffic_scale for t in traits]),
        parallel_fraction=_frozen([t.parallel_fraction for t in traits]),
        regions_per_rep=_frozen([t.regions_per_rep for t in traits]),
        reps=_frozen([k.reps for k in kernels]),
        gather=_frozen(
            [LoopFeature.INDIRECTION in t.features for t in traits],
            dtype=bool,
        ),
        default_sizes=_frozen([k.default_size for k in kernels]),
    )


@lru_cache(maxsize=128)
def _level_names(cpu: CPUModel) -> tuple[str, ...]:
    """Serving-level display names, decoded from the batched select."""
    return tuple(level.name for level in cpu.caches.levels)


class _Prelude(NamedTuple):
    """Configuration-independent slice of a batched prediction.

    One array entry per kernel. Everything here depends only on
    (machine, precision, kernel, report, size) — not on the placement —
    so one prelude serves every grid point of a sweep that shares those
    inputs. That includes the whole *serial* (master-thread) part: a
    single-core placement has every sharer count at 1 and a DRAM share
    that is independent of which core hosts the master (``active == 1``
    in both branches of :func:`dram_bandwidth_per_thread`), so its value
    is the same for every placement in the grid.
    """

    pipe: np.ndarray
    footprint_bytes: np.ndarray
    bytes_per_iter: np.ndarray
    par_iters_total: np.ndarray
    serial_time: np.ndarray
    traffic_scale: np.ndarray
    regions_per_rep: np.ndarray
    reps: np.ndarray
    base_invalid: np.ndarray  # bool: pipeline failure, negative serial
    vectorized: np.ndarray  # bool
    gather: np.ndarray  # bool


#: The dtype of each :class:`_Prelude` field.
_PRELUDE_DTYPES = (np.float64,) * 8 + (bool,) * 3


def _prelude(
    cpu: CPUModel,
    kernels: Sequence[Kernel],
    precision: DType,
    reports: Sequence[VectorizationReport],
    sizes: Sequence[int] | None,
) -> _Prelude:
    """The placement-independent arrays of a batch.

    Suite kernels take their rows from the (machine, precision, size
    scale) table (:class:`_PreludeTable`), which builds each (kernel,
    report) row once per process: at their default sizes (scale 1), or
    at sizes that are the suite's sizes at a scale
    :func:`scaled_sizes` gave. Other sizes and kernels outside the
    suite build their prelude here, on every call.
    """
    whole = kernels is suite()
    positions = None if whole else suite_positions(kernels)
    if whole or positions:
        scale = 1.0 if sizes is None else _scale_of(positions, sizes)
        if scale is not None:
            return _PRELUDES((cpu, precision, scale)).prelude(
                positions, reports
            )
    soa = lower_kernels(tuple(kernels))
    return _build_prelude(
        cpu, soa, precision, reports,
        soa.default_sizes if sizes is None else _frozen(sizes),
    )


def scaled_size(kernel: Kernel, scale: float) -> int:
    """``kernel``'s problem size at size ``scale``: its default size
    times ``scale``, rounded, and at least 1."""
    return max(1, int(round(kernel.default_size * scale)))


def _suite_sizes(scale: float) -> tuple[float, tuple[int, ...]]:
    return scale, tuple(scaled_size(kernel, scale) for kernel in suite())


#: The suite's problem sizes per size scale, as ``(scale, sizes)``.
_SIZES = SuiteTables(_suite_sizes)


def scaled_sizes(
    kernels: Sequence[Kernel], scale: float
) -> tuple[int, ...] | None:
    """The ``sizes`` of :func:`predict_batch` and :func:`predict_grid`
    for ``kernels`` at size ``scale``: ``None`` (each kernel's default
    size) at scale 1, else :func:`scaled_size` per kernel.

    Suite kernels take theirs from the suite's sizes at ``scale``, made
    once per scale, which names the scale whose prelude table their
    rows come from.
    """
    if scale == 1.0:
        return None
    if kernels is suite():
        return _SIZES(scale)[1]
    positions = suite_positions(kernels)
    if positions is None:
        return tuple(scaled_size(kernel, scale) for kernel in kernels)
    full = _SIZES(scale)[1]
    return tuple([full[p] for p in positions])


def _scale_of(positions: list[int] | None,
              sizes: tuple[int, ...]) -> float | None:
    """A scale :func:`scaled_sizes` sized the suite at whose sizes at
    ``positions`` (``None``: the whole suite) are ``sizes``, or
    ``None``. Two scales that give the same sizes give the same rows."""
    for scale, full in _SIZES.tables():
        if positions is not None:
            full = tuple([full[p] for p in positions])
        if full == sizes:
            return scale
    return None


def _build_prelude(
    cpu: CPUModel,
    soa: KernelSoA,
    precision: DType,
    reports: Sequence[VectorizationReport],
    size: np.ndarray,
) -> _Prelude:
    """Compute the prelude of ``soa``'s kernels with ``reports`` at
    problem sizes ``size``.

    Every entry depends only on its own kernel's inputs, so a kernel's
    values are the same bits in any batch it is built in.
    """
    isa = cpu.core.isa
    n = len(soa)

    # Per-kernel scalars: executed dtype, whether vector code runs,
    # pipeline seconds per iteration.
    dtype_bytes = np.empty(n)
    pipe = np.empty(n)
    failed = np.zeros(n, dtype=bool)
    vectorized = np.empty(n, dtype=bool)
    for i, (kernel, report) in enumerate(zip(soa.kernels, reports)):
        dtype = execution_dtype(kernel, precision)
        vector = report.effective and isa.supports(dtype)
        vectorized[i] = vector
        dtype_bytes[i] = dtype.bytes
        try:
            pipe[i] = pipeline_time_per_iter(
                cpu.core, kernel.traits, dtype, vector,
                report.efficiency if vector else 1.0,
            )
        except ReproError:
            # The scalar fallback re-raises the authoritative error for
            # this kernel; the rest of the batch proceeds.
            pipe[i] = np.nan
            failed[i] = True

    with np.errstate(all="ignore"):
        # Working-set and nominal traffic, in the scalar model's
        # association order: (elems * n) * bytes.
        footprint_bytes = (soa.footprint_elems * size) * dtype_bytes
        bytes_per_iter = (
            soa.reads_per_iter + soa.writes_per_iter
        ) * dtype_bytes
        par_iters_total = soa.parallel_fraction * size

        # Serial part: the master thread with the whole machine idle —
        # a degenerate single-core placement where every sharer count
        # is 1 and the slice is the full footprint. Master-independent
        # (see the class docstring), so any valid core represents it.
        master = cpu.topology.numa_nodes[0][0]
        serial_iters = (1.0 - soa.parallel_fraction) * size
        mem1, _ = _class_memory_seconds(
            cpu, footprint_bytes / 1, bytes_per_iter, soa.traffic_scale,
            soa.gather, 1, 1, 1,
            dram_bandwidth_per_thread(
                cpu, master, (master,),
                placement_profile(cpu.topology, (master,)),
            ),
        )
        serial_time = np.where(
            serial_iters > 0, serial_iters * np.maximum(pipe, mem1), 0.0
        )
        base_invalid = failed | (serial_time < 0)

    return _Prelude(
        pipe=pipe,
        footprint_bytes=footprint_bytes,
        bytes_per_iter=bytes_per_iter,
        par_iters_total=par_iters_total,
        serial_time=serial_time,
        base_invalid=base_invalid,
        vectorized=vectorized,
        traffic_scale=soa.traffic_scale,
        gather=soa.gather,
        regions_per_rep=soa.regions_per_rep,
        reps=soa.reps,
    )


class _PreludeTable:
    """One (machine, precision, size scale)'s prelude rows.

    A row holds one (suite kernel, report) pair's :class:`_Prelude`
    entries, one in each of ``columns``. Rows sit in layers as wide as
    the suite:
    ``held[layer]`` names, per suite position, the report that
    position's row in that layer was built with (``None`` while it has
    none). A kernel's first report takes layer 0, another report
    (another compile configuration) the next free layer. A request looks
    for its reports by identity (the compile table's report objects are
    interned), first all in one layer, then kernel by kernel and by
    value; builds the rows the table lacks in one :func:`_build_prelude`
    sub-batch; and takes its rows as views when they run contiguously
    (one kernel, a kernel class), else gathers them with one index
    array. The whole suite found in one layer takes that layer as it
    is.

    A fill runs under ``lock``: it writes the rows' values into
    ``bases``, then names their reports in ``held``, so a reader that
    found all its rows finds their values in ``columns``, read-only
    views of ``bases``, whatever fills run meanwhile. Reads take no
    lock, and a row, once written, never changes.
    """

    def __init__(self, key: tuple[CPUModel, DType, float]) -> None:
        self.cpu, self.precision, scale = key
        #: Each suite kernel's problem size at the table's scale.
        self.sizes = _frozen(_SIZES(scale)[1])
        self.width = len(suite())
        self.full = list(range(self.width))
        self.held: list[list] = []
        #: Per complete layer: its columns, as one prelude.
        self.views: dict[int, _Prelude] = {}
        self.bases = tuple(np.zeros(0, dt) for dt in _PRELUDE_DTYPES)
        self.columns = self.bases
        self.lock = threading.Lock()

    def __len__(self) -> int:
        return sum(len(layer) - layer.count(None) for layer in self.held)

    def prelude(self, positions, reports) -> _Prelude:
        """The prelude of the kernels at ``positions`` with ``reports``;
        ``positions`` is ``None`` for the whole suite in suite order."""
        whole = positions is None
        if whole:
            positions = self.full
        for layer, held in enumerate(self.held):
            if all(map(is_, map(held.__getitem__, positions), reports)):
                if whole or positions == self.full:
                    return self._layer(layer)
                base = layer * self.width
                rows = [base + p for p in positions]
                break
        else:
            rows = [self._row(p, r) for p, r in zip(positions, reports)]
            if None in rows:
                rows = self._fill(positions, reports)
        # Read after every row is found: a fill that grows the columns
        # copies every row written before it.
        columns = self.columns
        idx = _index(rows)
        return _Prelude(*[column[idx] for column in columns])

    def _layer(self, layer: int) -> _Prelude:
        """A complete layer, as it is: its rows never change again, so
        one view serves every later request."""
        pre = self.views.get(layer)
        if pre is None:
            span = slice(layer * self.width, (layer + 1) * self.width)
            pre = self.views[layer] = _Prelude(*[
                column[span] for column in self.columns
            ])
        return pre

    def _row(self, p: int, report) -> int | None:
        """The row of ``report`` at position ``p``: by identity, then by
        value."""
        held = self.held
        for layer in range(len(held)):
            if held[layer][p] is report:
                return layer * self.width + p
        for layer in range(len(held)):
            if held[layer][p] == report:
                return layer * self.width + p
        return None

    def _fill(self, positions, reports) -> list[int]:
        """Find every pair's row, building the rows the table lacks;
        returns the pairs' rows."""
        with self.lock:
            rows: list[int] = []
            built: dict[int, tuple[int, VectorizationReport]] = {}
            #: position -> the (report, row) pairs this fill builds there
            fresh: dict[int, list[tuple]] = {}
            for p, report in zip(positions, reports):
                row = self._row(p, report)
                if row is None:
                    for given, new in fresh.get(p, ()):
                        if given is report or given == report:
                            row = new
                            break
                if row is None:
                    # The first layer free at ``p``, past those this
                    # fill already took there.
                    taken = fresh.get(p)
                    layer = taken[-1][1] // self.width + 1 if taken else 0
                    while layer < len(self.held) and (
                        self.held[layer][p] is not None
                    ):
                        layer += 1
                    row = layer * self.width + p
                    built[row] = (p, report)
                    fresh.setdefault(p, []).append((report, row))
                rows.append(row)
            if built:
                self._write(built)
            return rows

    def _write(self, built: dict) -> None:
        """Build the ``row -> (position, report)`` rows of ``built`` in
        one sub-batch, write them, growing the columns by whole layers,
        then name their reports in ``held``."""
        pairs = list(built.values())
        positions = [p for p, _ in pairs]
        shared = suite()
        soa = _suite_rows(tuple(shared[p] for p in positions), positions)
        values = _build_prelude(
            self.cpu, soa, self.precision, [r for _, r in pairs],
            self.sizes[_index(positions)],
        )
        rows = _index(list(built))
        layers = max(built) // self.width + 1
        bases, columns = self.bases, self.columns
        if len(bases[0]) < layers * self.width:
            grown = []
            for base in bases:
                wider = np.zeros(layers * self.width, base.dtype)
                wider[:len(base)] = base
                grown.append(wider)
            bases = tuple(grown)
            columns = tuple(base.view() for base in bases)
            for column in columns:
                column.flags.writeable = False
        for base, value in zip(bases, values):
            base[rows] = value
        self.bases, self.columns = bases, columns
        held = self.held
        while len(held) < layers:
            held.append([None] * self.width)
        for row, (p, report) in built.items():
            held[row // self.width][p] = report


#: Prelude rows per (machine, precision, size scale).
_PRELUDES = SuiteTables(_PreludeTable)


def _class_memory_seconds(
    cpu: CPUModel,
    slice_bytes: np.ndarray,
    bytes_per_iter: np.ndarray,
    traffic_scale: np.ndarray,
    gather: np.ndarray,
    nthreads: int,
    cluster_sharers: int,
    numa_sharers: int,
    dram_bandwidth: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-kernel memory seconds/iteration for one symmetry class.

    Mirrors :func:`repro.perfmodel.memory.memory_time_per_iter` as a
    masked first-fit over the cache levels: sharers, headrooms and
    bandwidths are the same Python scalars the scalar model computes
    (one per level per class, kernel-independent), and only the
    fit/select and the final divide are arrays.

    Returns ``(seconds_per_iter, level_code)`` where ``level_code`` is
    the serving level's index in ``cpu.caches.levels`` or ``-1`` (DRAM).
    """
    m = len(slice_bytes)
    seconds = np.zeros(m)
    level_code = np.full(m, _DRAM_CODE, dtype=np.int64)
    remaining = np.ones(m, dtype=bool)
    for idx, level in enumerate(cpu.caches.levels):
        if level.sharing is Sharing.CORE:
            sharers = 1
        elif level.sharing is Sharing.CLUSTER:
            sharers = cluster_sharers
        elif level.sharing is Sharing.NUMA:
            sharers = numa_sharers
        elif level.sharing is Sharing.PACKAGE:
            sharers = nthreads
        else:  # pragma: no cover - exhaustive enum
            raise SimulationError(f"unknown sharing {level.sharing}")
        cap = fit_headroom(sharers) * level.capacity_bytes
        fits = remaining & (slice_bytes * sharers <= cap)
        if fits.any():
            bandwidth = level_bandwidth_per_thread(cpu, level, sharers)
            if bandwidth <= 0:
                # Scalar path raises here; poison so the caller falls
                # back and the scalar error is the one observed.
                seconds = np.where(fits, np.nan, seconds)
                remaining &= ~fits
                continue
            # Inner level (index 0) sees the full stream; outer levels
            # (and DRAM below) see the reuse-scaled traffic.
            traffic = (
                bytes_per_iter if idx == 0
                else bytes_per_iter * traffic_scale
            )
            if level.name != "L1D":
                per_thread = np.where(
                    gather, bandwidth * GATHER_EFFICIENCY, bandwidth
                )
            else:
                per_thread = bandwidth
            seconds = np.where(fits, traffic / per_thread, seconds)
            level_code = np.where(fits, idx, level_code)
            remaining &= ~fits
    if remaining.any():
        if dram_bandwidth <= 0:
            seconds = np.where(remaining, np.nan, seconds)
        else:
            per_thread = np.where(
                gather, dram_bandwidth * GATHER_EFFICIENCY, dram_bandwidth
            )
            dram_secs = (bytes_per_iter * traffic_scale) / per_thread
            seconds = np.where(remaining, dram_secs, seconds)
    return seconds, level_code


def _class_memory_rows(
    cpu: CPUModel,
    slice_rk: np.ndarray,
    bytes_per_iter: np.ndarray,
    traffic_scale: np.ndarray,
    gather: np.ndarray,
    rows: list[tuple[int, int, int, float]],
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_class_memory_seconds` lifted over many symmetry classes.

    ``rows`` holds one ``(nthreads, cluster_sharers, numa_sharers,
    dram_bandwidth)`` tuple per class — classes of *different grid
    points* stack freely — and ``slice_rk`` the matching per-row slice
    bytes, shape ``(len(rows), kernels)``. Same first-fit select, same
    scalar helpers per (level, row), only evaluated for every row at
    once; returns ``(seconds_per_iter, level_code)`` of that shape.
    """
    shape = slice_rk.shape
    seconds = np.zeros(shape)
    level_code = np.full(shape, _DRAM_CODE, dtype=np.int64)
    remaining = np.ones(shape, dtype=bool)
    for idx, level in enumerate(cpu.caches.levels):
        if level.sharing is Sharing.CORE:
            sharers = [1] * len(rows)
        elif level.sharing is Sharing.CLUSTER:
            sharers = [row[1] for row in rows]
        elif level.sharing is Sharing.NUMA:
            sharers = [row[2] for row in rows]
        elif level.sharing is Sharing.PACKAGE:
            sharers = [row[0] for row in rows]
        else:  # pragma: no cover - exhaustive enum
            raise SimulationError(f"unknown sharing {level.sharing}")
        cap = np.array(
            [fit_headroom(s) * level.capacity_bytes for s in sharers]
        ).reshape(-1, 1)
        sharers_col = np.array(sharers, dtype=np.float64).reshape(-1, 1)
        fits = remaining & (slice_rk * sharers_col <= cap)
        if fits.any():
            bandwidth = np.array([
                level_bandwidth_per_thread(cpu, level, s) for s in sharers
            ]).reshape(-1, 1)
            # Scalar path raises on non-positive bandwidth; poison those
            # rows so the caller falls back and the scalar error is the
            # one observed. Their level_code is left un-selected, as in
            # the 1-D select's early ``continue``.
            bad = bandwidth <= 0
            traffic = (
                bytes_per_iter if idx == 0
                else bytes_per_iter * traffic_scale
            )
            if level.name != "L1D":
                per_thread = np.where(
                    gather, bandwidth * GATHER_EFFICIENCY, bandwidth
                )
            else:
                per_thread = bandwidth
            values = np.where(bad, np.nan, traffic / per_thread)
            seconds = np.where(fits, values, seconds)
            level_code = np.where(fits & ~bad, idx, level_code)
            remaining &= ~fits
    if remaining.any():
        dram = np.array([row[3] for row in rows]).reshape(-1, 1)
        bad = dram <= 0
        per_thread = np.where(gather, dram * GATHER_EFFICIENCY, dram)
        dram_secs = np.where(
            bad, np.nan, (bytes_per_iter * traffic_scale) / per_thread
        )
        seconds = np.where(remaining, dram_secs, seconds)
    return seconds, level_code


def predict_batch(
    cpu: CPUModel,
    kernels: Sequence[Kernel],
    cores: tuple[int, ...],
    precision: DType,
    reports: Sequence[VectorizationReport],
    sizes: Sequence[int] | None = None,
) -> list[ExecutionResult | None]:
    """Predict every kernel of one configuration in one vectorized pass.

    Telemetry-instrumented front of :func:`_predict_batch_impl` (which
    holds the model documentation): under an active session each call
    records a ``predict.batch`` span and the
    ``engine.batch.predictions`` / ``engine.batch.abstentions``
    counters; when telemetry is off it delegates directly.
    """
    rec = telemetry.recorder()
    if not rec.active:
        return _predict_batch_impl(
            cpu, kernels, cores, precision, reports, sizes
        )
    with rec.span(
        "predict.batch", kernels=len(kernels), threads=len(cores),
    ) as sp:
        out = _predict_batch_impl(
            cpu, kernels, cores, precision, reports, sizes
        )
        predicted = sum(1 for r in out if r is not None)
        sp.set(predicted=predicted, abstained=len(out) - predicted)
    reg = telemetry.metrics()
    reg.counter("engine.batch.predictions").inc(predicted)
    if len(out) > predicted:
        reg.counter("engine.batch.abstentions").inc(len(out) - predicted)
    return out


def _predict_batch_impl(
    cpu: CPUModel,
    kernels: Sequence[Kernel],
    cores: tuple[int, ...],
    precision: DType,
    reports: Sequence[VectorizationReport],
    sizes: Sequence[int] | None = None,
) -> list[ExecutionResult | None]:
    """Body of :func:`predict_batch`.

    The batched equivalent of calling
    :func:`~repro.perfmodel.execution.simulate_kernel` once per kernel
    with this (machine, placement, precision): same inputs, bit-identical
    outputs. Entries are ``None`` where the batched evaluation could not
    produce a valid prediction (non-finite or non-positive time) — the
    caller must re-run those kernels through the scalar model, which
    raises the authoritative :class:`SimulationError`.

    Args:
        cpu: Machine model.
        kernels: Kernels to predict, one result per entry.
        cores: Thread placement — one core id per OpenMP thread.
        precision: FP32 or FP64 run configuration.
        reports: One compilation outcome per kernel (align with
            ``kernels``).
        sizes: Per-kernel problem sizes; defaults to each kernel's
            RAJAPerf size.
    """
    if len(reports) != len(kernels):
        raise SimulationError(
            f"{len(kernels)} kernels but {len(reports)} reports"
        )
    if not cores:
        raise SimulationError("placement must contain at least one core")
    if len(set(cores)) != len(cores):
        raise SimulationError(f"duplicate cores in placement {cores}")
    if not kernels:
        return []

    sizes_key: tuple[int, ...] | None = None
    if sizes is not None:
        if len(sizes) != len(kernels):
            raise SimulationError(
                f"{len(kernels)} kernels but {len(sizes)} sizes"
            )
        if min(sizes) < 1:
            raise SimulationError("size and reps must be >= 1")
        sizes_key = tuple(sizes)

    pre = _prelude(cpu, kernels, precision, reports, sizes_key)
    pipe = pre.pipe
    nthreads = len(cores)
    profile = placement_profile(cpu.topology, cores)

    with np.errstate(all="ignore"):
        # Per-thread working-set slice and chunk, in the scalar model's
        # association order: the prelude's products, then / nthreads.
        slice_bytes = pre.footprint_bytes / nthreads
        chunk = pre.par_iters_total / nthreads

        # Parallel part: static schedule, slowest symmetry class decides.
        # Class order and the ``>=`` update reproduce the scalar scan's
        # last-wins tie-break.
        slowest = np.zeros(len(kernels))
        slow_compute = np.zeros(len(kernels), dtype=bool)
        slow_level = np.full(len(kernels), _DRAM_CODE - 1, dtype=np.int64)
        for cc in profile.classes:
            mem_secs, level_code = _class_memory_seconds(
                cpu, slice_bytes, pre.bytes_per_iter, pre.traffic_scale,
                pre.gather, nthreads, cc.cluster_sharers, cc.numa_sharers,
                dram_bandwidth_per_thread(
                    cpu, cc.representative, cores, profile
                ),
            )
            t = chunk * np.maximum(pipe, mem_secs)
            mask = t >= slowest
            slowest = np.where(mask, t, slowest)
            slow_compute = np.where(mask, pipe >= mem_secs, slow_compute)
            slow_level = np.where(mask, level_code, slow_level)

        barrier = barrier_seconds(cpu, nthreads)
        rep_time = (
            (pre.serial_time + slowest) + barrier * pre.regions_per_rep
        )
        seconds = rep_time * pre.reps

        # A point is invalid wherever the scalar model would raise:
        # non-finite or non-positive totals, negative components (the
        # compose-time validation), or a per-kernel prelude failure.
        # ``seconds = rep_time * reps`` with ``reps >= 1`` (enforced at
        # kernel definition), so the finite/positive checks on
        # ``seconds`` subsume the same checks on ``rep_time``.
        invalid = (
            pre.base_invalid
            | ~np.isfinite(seconds) | (seconds <= 0)
            | (slowest < 0)
        )

    return _execution_results(
        invalid, seconds, rep_time, slow_level, slow_compute,
        pre.vectorized.tolist(), _level_names(cpu),
    )


def _execution_results(
    invalid: np.ndarray,
    seconds: np.ndarray,
    seconds_per_rep: np.ndarray,
    level_code: np.ndarray,
    compute_bound: np.ndarray,
    vector_executed: Sequence[bool],
    level_names: tuple[str, ...],
) -> list[ExecutionResult | None]:
    """One configuration's ``predict_batch``-shaped result list, built
    from its per-kernel arrays: ``None`` where ``invalid``, else the
    kernel's :class:`ExecutionResult`.

    The one place the batch engine builds ``ExecutionResult``\\ s:
    :func:`predict_batch` and :meth:`GridPrediction.results` both come
    here.
    """
    # Bulk-extract to Python scalars once (C-speed) instead of paying a
    # NumPy scalar round-trip per field per kernel in the loop below.
    results: list[ExecutionResult | None] = []
    append = results.append
    new = object.__new__
    for bad, secs, rep, code, compute, vec in zip(
        invalid.tolist(), seconds.tolist(), seconds_per_rep.tolist(),
        level_code.tolist(), compute_bound.tolist(), vector_executed,
    ):
        if bad:
            append(None)
            continue
        # Mask-passing entries provably satisfy ``__post_init__`` —
        # finite, positive times — so skip ``__init__`` and write the
        # fields directly (~2x cheaper, same equality/repr/asdict).
        result = new(ExecutionResult)
        result.__dict__.update(
            seconds=secs,
            seconds_per_rep=rep,
            serving_level=(
                "DRAM" if code == _DRAM_CODE else level_names[code]
            ),
            bound="compute" if compute else "memory",
            vector_executed=vec,
        )
        append(result)
    return results


@dataclass(frozen=True, eq=False)
class GridPrediction:
    """A whole grid's predictions, as (configuration, kernel) arrays.

    Row ``i`` is configuration ``i`` of the :func:`predict_grid` call,
    column ``j`` its ``j``-th kernel. ``invalid[i, j]`` marks an
    abstention, where :func:`predict_batch` gives ``None``. Elsewhere
    each array holds one field of that cell's :class:`ExecutionResult`:
    ``seconds`` (finite and positive), ``seconds_per_rep``, the serving
    level as ``level_code`` (an index into ``level_names``, or -1 for
    DRAM), ``compute_bound`` and ``vector_executed``. A caller that
    needs only the times reads the arrays; :meth:`results` builds a
    row's ``ExecutionResult``\\ s for one that needs them.
    """

    seconds: np.ndarray  # float64
    invalid: np.ndarray  # bool
    seconds_per_rep: np.ndarray  # float64
    level_code: np.ndarray  # int64
    compute_bound: np.ndarray  # bool
    vector_executed: np.ndarray  # bool
    level_names: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.seconds)

    def results(self, i: int) -> list[ExecutionResult | None]:
        """Configuration ``i``'s result list, equal to
        :func:`predict_batch`'s for the same configuration."""
        return _execution_results(
            self.invalid[i], self.seconds[i], self.seconds_per_rep[i],
            self.level_code[i], self.compute_bound[i],
            self.vector_executed[i].tolist(), self.level_names,
        )


def predict_grid(
    cpu: CPUModel,
    kernels: Sequence[Kernel],
    placements: Sequence[tuple[int, ...]],
    precisions: Sequence[DType],
    reports: Sequence[VectorizationReport],
    sizes: Sequence[int] | None = None,
) -> GridPrediction:
    """Predict a whole sweep grid — many configurations — in one pass.

    Returns a columnar :class:`GridPrediction`: (configuration,
    kernel) arrays, with no per-cell ``ExecutionResult`` until a caller
    asks :meth:`GridPrediction.results` for a row's.

    Telemetry-instrumented front of :func:`_predict_grid_impl` (which
    holds the model documentation): under an active session each call
    records a ``predict.grid`` span and folds its per-kernel outcomes
    into the ``engine.batch.predictions`` /
    ``engine.batch.abstentions`` counters; when telemetry is off it
    delegates directly.
    """
    rec = telemetry.recorder()
    if not rec.active:
        return _predict_grid_impl(
            cpu, kernels, placements, precisions, reports, sizes
        )
    with rec.span(
        "predict.grid", kernels=len(kernels),
        configurations=len(placements),
    ) as sp:
        out = _predict_grid_impl(
            cpu, kernels, placements, precisions, reports, sizes
        )
        total = out.invalid.size
        predicted = total - int(np.count_nonzero(out.invalid))
        sp.set(predicted=predicted, abstained=total - predicted)
    reg = telemetry.metrics()
    reg.counter("engine.batch.predictions").inc(predicted)
    if total > predicted:
        reg.counter("engine.batch.abstentions").inc(total - predicted)
    return out


def _predict_grid_impl(
    cpu: CPUModel,
    kernels: Sequence[Kernel],
    placements: Sequence[tuple[int, ...]],
    precisions: Sequence[DType],
    reports: Sequence[VectorizationReport],
    sizes: Sequence[int] | None = None,
) -> GridPrediction:
    """Body of :func:`predict_grid`.

    The grid axis is ``zip(placements, precisions)``: one (thread
    placement, precision) configuration per entry, all sharing the same
    ``kernels``/``reports``/``sizes``. Equivalent to calling
    :func:`predict_batch` once per configuration — bit-identical
    results, including abstentions — but the per-class memory select,
    the slowest-class scan and the Amdahl composition run as 2-D array
    expressions over (configuration, kernel), so a cold sweep pays the
    NumPy dispatch overhead once per *grid*, not once per grid point.

    Returns the grid as one :class:`GridPrediction`, rows in grid
    order; ``results(i)`` is ``predict_batch``'s list for row ``i``.
    """
    if len(placements) != len(precisions):
        raise SimulationError(
            f"{len(placements)} placements but {len(precisions)} "
            f"precisions"
        )
    for cores in placements:
        if not cores:
            raise SimulationError(
                "placement must contain at least one core"
            )
        if len(set(cores)) != len(cores):
            raise SimulationError(
                f"duplicate cores in placement {cores}"
            )
    if len(reports) != len(kernels):
        raise SimulationError(
            f"{len(kernels)} kernels but {len(reports)} reports"
        )
    level_names = _level_names(cpu)
    if not placements or not kernels:
        shape = (len(placements), len(kernels))
        return GridPrediction(
            seconds=np.zeros(shape),
            invalid=np.zeros(shape, dtype=bool),
            seconds_per_rep=np.zeros(shape),
            level_code=np.full(shape, _DRAM_CODE, dtype=np.int64),
            compute_bound=np.zeros(shape, dtype=bool),
            vector_executed=np.zeros(shape, dtype=bool),
            level_names=level_names,
        )

    sizes_key: tuple[int, ...] | None = None
    if sizes is not None:
        if len(sizes) != len(kernels):
            raise SimulationError(
                f"{len(kernels)} kernels but {len(sizes)} sizes"
            )
        if min(sizes) < 1:
            raise SimulationError("size and reps must be >= 1")
        sizes_key = tuple(sizes)

    # One prelude serves every configuration of a precision; evaluate
    # each precision's configurations as one 2-D group, then place its
    # rows at their grid positions (a one-precision grid is one group,
    # already in grid order).
    groups: dict[DType, list[int]] = {}
    for i, precision in enumerate(precisions):
        groups.setdefault(precision, []).append(i)
    columns: list[np.ndarray] | None = None
    for precision, idxs in groups.items():
        pre = _prelude(cpu, kernels, precision, reports, sizes_key)
        group = _predict_group(cpu, pre, [placements[i] for i in idxs])
        if len(groups) == 1:
            columns = list(group)
            break
        if columns is None:
            columns = [
                np.empty((len(placements), len(kernels)), dtype=a.dtype)
                for a in group
            ]
        for column, values in zip(columns, group):
            column[idxs] = values
    return GridPrediction(*columns, level_names=level_names)


def _predict_group(
    cpu: CPUModel,
    pre: _Prelude,
    placements: list[tuple[int, ...]],
) -> tuple[np.ndarray, ...]:
    """Evaluate one precision's configurations as a 2-D batch.

    Returns the (configuration, kernel) arrays of
    :class:`GridPrediction`, in its field order.
    """
    pipe = pre.pipe
    num_points = len(placements)
    num_kernels = len(pipe)

    with np.errstate(all="ignore"):
        nthreads_col = np.array(
            [len(cores) for cores in placements], dtype=np.float64
        ).reshape(-1, 1)
        # (configuration, kernel) slice and chunk — the same
        # "prelude product / nthreads" association as the scalar model.
        slice_pk = pre.footprint_bytes / nthreads_col
        chunk_pk = pre.par_iters_total / nthreads_col

        # Flatten every configuration's symmetry classes into rows.
        profiles = [
            placement_profile(cpu.topology, cores) for cores in placements
        ]
        row_point: list[int] = []
        rows: list[tuple[int, int, int, float]] = []
        for p, (cores, profile) in enumerate(zip(placements, profiles)):
            for cc in profile.classes:
                row_point.append(p)
                rows.append((
                    len(cores), cc.cluster_sharers, cc.numa_sharers,
                    dram_bandwidth_per_thread(
                        cpu, cc.representative, cores, profile
                    ),
                ))
        point_of_row = np.array(row_point)
        mem_rk, level_rk = _class_memory_rows(
            cpu, slice_pk[point_of_row], pre.bytes_per_iter,
            pre.traffic_scale, pre.gather, rows,
        )
        t_rk = chunk_pk[point_of_row] * np.maximum(pipe, mem_rk)
        compute_rk = pipe >= mem_rk

        # Slowest-class scan, batched by class *position*: every
        # configuration's j-th class updates together, preserving each
        # configuration's class order and the scalar scan's last-wins
        # ``>=`` tie-break.
        slowest = np.zeros((num_points, num_kernels))
        slow_compute = np.zeros((num_points, num_kernels), dtype=bool)
        slow_level = np.full(
            (num_points, num_kernels), _DRAM_CODE - 1, dtype=np.int64
        )
        offsets: list[int] = []
        total = 0
        for profile in profiles:
            offsets.append(total)
            total += len(profile.classes)
        max_classes = max(len(pr.classes) for pr in profiles)
        for j in range(max_classes):
            pts = [
                p for p, pr in enumerate(profiles)
                if len(pr.classes) > j
            ]
            sel = [offsets[p] + j for p in pts]
            t = t_rk[sel]
            prev = slowest[pts]
            mask = t >= prev
            slowest[pts] = np.where(mask, t, prev)
            slow_compute[pts] = np.where(
                mask, compute_rk[sel], slow_compute[pts]
            )
            slow_level[pts] = np.where(
                mask, level_rk[sel], slow_level[pts]
            )

        barrier_col = np.array([
            [barrier_seconds(cpu, len(cores))] for cores in placements
        ])
        rep_time = (
            (pre.serial_time + slowest) + barrier_col * pre.regions_per_rep
        )
        seconds = rep_time * pre.reps
        # Same fused validity mask as ``predict_batch`` (``reps >= 1``
        # lets the ``seconds`` checks cover ``rep_time`` too).
        invalid = (
            pre.base_invalid
            | ~np.isfinite(seconds) | (seconds <= 0)
            | (slowest < 0)
        )

    vector_executed = np.broadcast_to(pre.vectorized, seconds.shape)
    return (
        seconds, invalid, rep_time, slow_level, slow_compute,
        vector_executed,
    )
