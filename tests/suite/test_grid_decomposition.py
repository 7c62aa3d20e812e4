"""A grid row's slowest-thread decomposition
(``GridPrediction.decomposition``), the terms ``repro analyze
bottleneck`` reads.

Checked on every registry machine over a two-precision grid whose
precisions interleave, at several thread counts and every placement,
against the grid's own columns, against a per-core scalar scan built
here from ``memory_time_per_iter`` (the last-wins ``>=`` rule
``simulate_kernel`` applies under ``reference_mode()``), and against a
one-configuration grid of each row.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compiler.vectorizer import analyze_suite
from repro.kernels.registry import get_kernel
from repro.machine.vector import DType
from repro.openmp.affinity import PlacementPolicy, assign_cores
from repro.perfmodel.batch import predict_grid
from repro.perfmodel.execution import execution_dtype
from repro.perfmodel.memory import memory_time_per_iter
from repro.perfmodel.pipeline import pipeline_time_per_iter
from repro.perfmodel.placement import reference_mode
from repro.registry import default_registry
from repro.suite.config import RunConfig

#: Streaming, compute-bound, serial-heavy, overhead-heavy, gather,
#: integer and blocked kernels.
KERNELS = (
    "TRIAD", "DOT", "GEMM", "SORT", "SORTPAIRS", "HALOEXCHANGE",
    "INDEXLIST", "REDUCE3_INT", "ENERGY", "MAT_MAT_SHARED",
)

MACHINES = default_registry().machine_names()


def _grid_inputs(cpu):
    kernels = tuple(get_kernel(name) for name in KERNELS)
    config = RunConfig()
    reports = analyze_suite(
        config.resolve_compiler(cpu), kernels, cpu.core.isa,
        config.flavor, config.rollback,
    )
    assert None not in reports
    cores = cpu.topology.num_cores
    placements, precisions = [], []
    for threads in sorted({1, 2, max(1, cores // 2), cores}):
        for policy in PlacementPolicy:
            for precision in (DType.FP64, DType.FP32):
                placements.append(
                    assign_cores(cpu.topology, threads, policy)
                )
                precisions.append(precision)
    return kernels, reports, placements, precisions


def _scalar_scan(cpu, kernel, cores, precision, report):
    """The slowest thread of a per-core scan: ``(pipeline seconds per
    iteration, parallel seconds, memory seconds per iteration, serving
    level)``."""
    dtype = execution_dtype(kernel, precision)
    vector = report.effective and cpu.core.isa.supports(dtype)
    pipe = pipeline_time_per_iter(
        cpu.core, kernel.traits, dtype, vector,
        report.efficiency if vector else 1.0,
    )
    size = kernel.default_size
    chunk = kernel.traits.parallel_fraction * size / len(cores)
    slowest, memory, level = 0.0, None, None
    with reference_mode():
        for core in cores:
            mem = memory_time_per_iter(cpu, kernel, size, dtype, core, cores)
            t = chunk * max(pipe, mem.seconds_per_iter)
            if t >= slowest:
                slowest = t
                memory, level = mem.seconds_per_iter, mem.serving_level
    return pipe, slowest, memory, level


@pytest.mark.parametrize("machine", MACHINES)
def test_decomposition(machine):
    cpu = default_registry().machine(machine)
    kernels, reports, placements, precisions = _grid_inputs(cpu)
    grid = predict_grid(cpu, kernels, placements, precisions, reports)
    checked = 0
    for i, (cores, precision) in enumerate(zip(placements, precisions)):
        parts = grid.decomposition(i)
        for j, (kernel, report) in enumerate(zip(kernels, reports)):
            if grid.invalid[i, j]:
                continue
            checked += 1
            assert (
                (parts.serial[j] + parts.parallel[j]) + parts.overhead[j]
                == grid.seconds_per_rep[i, j]
            )
            assert grid.compute_bound[i, j] == (
                parts.pipeline[j] >= parts.memory[j]
            )
            code = grid.level_code[i, j]
            level = "DRAM" if code < 0 else grid.level_names[code]
            assert (
                parts.pipeline[j], parts.parallel[j], parts.memory[j],
                level,
            ) == _scalar_scan(cpu, kernel, cores, precision, report), (
                kernel.name, len(cores), precision,
            )

        one = predict_grid(cpu, kernels, [cores], [precision], reports)
        for mine, alone in zip(parts, one.decomposition(0)):
            np.testing.assert_array_equal(mine, alone, strict=True)
    assert checked > 0

