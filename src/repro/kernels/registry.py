"""Kernel registry: lookup by name or class, construction of the suite.

The registry instantiates each kernel exactly once per call, keeping
kernels stateless between suite runs (state lives in workspaces). The
one exception is :func:`suite`, the process-wide instance of every
suite kernel, on whose positions the model's per-configuration
:class:`SuiteTables` (compile reports, the SoA lowering, prediction
preludes) lay out their rows.
"""

from __future__ import annotations

import threading
from functools import lru_cache
from typing import Callable, Hashable, Iterable, Sequence

from repro.kernels.algorithm import ALGORITHM_KERNELS
from repro.kernels.apps import APPS_KERNELS
from repro.kernels.base import Kernel, KernelClass
from repro.kernels.basic import BASIC_KERNELS
from repro.kernels.lcals import LCALS_KERNELS
from repro.kernels.polybench import POLYBENCH_KERNELS
from repro.kernels.stream import STREAM_KERNELS
from repro.util.errors import ConfigError

_ALL_KERNEL_TYPES: tuple[type[Kernel], ...] = (
    ALGORITHM_KERNELS
    + APPS_KERNELS
    + BASIC_KERNELS
    + LCALS_KERNELS
    + POLYBENCH_KERNELS
    + STREAM_KERNELS
)

#: Expected class sizes from Section 2.2 of the paper.
EXPECTED_CLASS_SIZES = {
    KernelClass.ALGORITHM: 6,
    KernelClass.APPS: 13,
    KernelClass.BASIC: 16,
    KernelClass.LCALS: 11,
    KernelClass.POLYBENCH: 13,
    KernelClass.STREAM: 5,
}


@lru_cache(maxsize=1)
def _kernel_types_by_name() -> dict[str, type[Kernel]]:
    by_name: dict[str, type[Kernel]] = {}
    for ktype in _ALL_KERNEL_TYPES:
        if ktype.name in by_name:
            raise ConfigError(f"duplicate kernel name {ktype.name!r}")
        by_name[ktype.name] = ktype
    total = sum(EXPECTED_CLASS_SIZES.values())
    if len(by_name) != total:
        raise ConfigError(
            f"registry has {len(by_name)} kernels, expected {total}"
        )
    return by_name


def all_kernels() -> list[Kernel]:
    """Fresh instances of all 64 kernels, in class order."""
    return [ktype() for ktype in _ALL_KERNEL_TYPES]


@lru_cache(maxsize=1)
def suite() -> tuple[Kernel, ...]:
    """One process-wide instance of every suite kernel, in class order,
    built once: the suite :func:`~repro.suite.runner.run_suite` runs by
    default."""
    return tuple(ktype() for ktype in _ALL_KERNEL_TYPES)


@lru_cache(maxsize=1)
def _positions() -> dict[type[Kernel], int]:
    """Each suite class's position in :func:`suite`."""
    return {ktype: i for i, ktype in enumerate(_ALL_KERNEL_TYPES)}


def suite_positions(kernels: Iterable[Kernel]) -> list[int] | None:
    """Each kernel's position in :func:`suite`, or ``None`` when a
    kernel is not a suite kernel: a class outside the suite (the BLAS
    family), or an instance with attributes of its own (a shim with
    re-tuned traits).

    Kernels hold no state, so any instance of a suite class stands for
    its :func:`suite` entry. Kernels without a position never enter a
    :class:`SuiteTables` table; their callers compute them directly.
    """
    kernels = tuple(kernels)
    positions = _positions()
    try:
        out = [positions[type(k)] for k in kernels if not k.__dict__]
    except KeyError:
        return None
    return out if len(out) == len(kernels) else None


#: Configurations one :class:`SuiteTables` holds at most; past it the
#: oldest table is dropped. It bounds what a long-running server's
#: runtime-registered machines can add, far above the few dozen
#: configurations a paper pass or a sweep stream uses.
MAX_CONFIGURATIONS = 64

_ALL_TABLES: list["SuiteTables"] = []


class SuiteTables:
    """Per-configuration tables whose rows are the suite's kernels.

    Each value the model derives per kernel (a compile report, a
    lowering, a prediction prelude) depends on one configuration (a
    compiler setting, a machine and precision) and one kernel, never on
    the kernel list a request happens to name. So it is kept once per
    configuration, in a table with a row per suite kernel, and a request
    gathers its kernels' rows by :func:`suite_positions`.

    Called with a configuration ``key``, it returns that
    configuration's table, made by ``make(key)`` the first time; two
    threads asking together get the same table. The table fills and
    guards its own rows. :func:`clear_tables` empties every instance.
    """

    def __init__(self, make: Callable[[Hashable], object]) -> None:
        self._make = make
        self._tables: dict = {}
        self._lock = threading.Lock()
        _ALL_TABLES.append(self)

    def __call__(self, key: Hashable):
        table = self._tables.get(key)
        if table is None:
            with self._lock:
                table = self._tables.get(key)
                if table is None:
                    if len(self._tables) >= MAX_CONFIGURATIONS:
                        del self._tables[next(iter(self._tables))]
                    table = self._tables[key] = self._make(key)
        return table

    def __len__(self) -> int:
        return len(self._tables)

    def tables(self) -> Sequence:
        """The tables held now, oldest first."""
        return list(self._tables.values())

    def clear(self) -> None:
        with self._lock:
            self._tables.clear()


def clear_tables() -> None:
    """Empty every :class:`SuiteTables`, so the next request fills its
    rows afresh, as in a new process."""
    for tables in _ALL_TABLES:
        tables.clear()


def kernel_names() -> list[str]:
    """All kernel names, in class order."""
    return [ktype.name for ktype in _ALL_KERNEL_TYPES]


def get_kernel(name: str) -> Kernel:
    """Instantiate one kernel by name (case-insensitive).

    RAJAPerf suite kernels resolve first; the BLAS library family
    (:mod:`repro.kernels.blas`) is a fallback so it stays out of the
    pinned 64-kernel suite composition while remaining addressable.
    """
    by_name = _kernel_types_by_name()
    key = name.upper()
    if key in by_name:
        return by_name[key]()
    from repro.kernels.blas import blas_kernel_types

    blas = blas_kernel_types()
    if key in blas:
        return blas[key]()
    raise ConfigError(
        f"unknown kernel {name!r}; known: "
        f"{sorted(by_name) + sorted(blas)}"
    )


def kernels_in_class(klass: KernelClass | str) -> list[Kernel]:
    """Fresh instances of every kernel in one class."""
    if isinstance(klass, str):
        klass = KernelClass.from_label(klass)
    return [k for k in all_kernels() if k.klass == klass]
