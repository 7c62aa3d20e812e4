"""Bottleneck attribution for a suite configuration.

For each kernel at a given (machine, config) point, report which
resource bounds it — core pipeline, a cache level's bandwidth, DRAM, the
serial fraction, or fork-join overhead — and how its time splits
between them. This is the analysis behind the paper's hardware wishlist
(Section 4): it quantifies where the SG2042's time actually goes. Its
numbers are read from the batch engine's prediction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.kernels.base import Kernel
from repro.machine.cpu import CPUModel
from repro.openmp.affinity import assign_cores
from repro.perfmodel.batch import predict_grid, scaled_sizes
from repro.suite.config import RunConfig
from repro.suite.runner import _resolve_report, _resolve_suite_reports
from repro.util.errors import ConfigError, SimulationError


@dataclass(frozen=True)
class BottleneckReport:
    """Where one kernel's time goes at one configuration.

    Attributes:
        kernel: Kernel name.
        bound: Dominant resource: ``"pipeline"``, ``"L1D"``/``"L2"``/
            ``"L3"`` (cache bandwidth), ``"DRAM"``, ``"serial"`` or
            ``"overhead"``.
        parallel_share: Fraction of the repetition spent in the parallel
            chunk.
        serial_share: Fraction spent in the Amdahl serial part.
        overhead_share: Fraction spent in fork-join/barriers.
        balance: pipeline-time / memory-time ratio for the slowest
            thread (>1 = compute heavy).
    """

    kernel: str
    bound: str
    parallel_share: float
    serial_share: float
    overhead_share: float
    balance: float

    def __post_init__(self) -> None:
        total = self.parallel_share + self.serial_share + self.overhead_share
        if not 0.99 <= total <= 1.01:
            raise ConfigError(
                f"{self.kernel}: shares must sum to 1, got {total}"
            )


def attribute_bottlenecks(
    cpu: CPUModel,
    config: RunConfig,
    kernels: list[Kernel],
) -> list[BottleneckReport]:
    """Attribute each kernel's predicted time to resources.

    Reads the slowest thread's terms of ``config``'s
    :func:`~repro.perfmodel.batch.predict_grid` row, at its size scale.
    A kernel that does not compile raises its compile error; one the
    engine cannot predict, :class:`SimulationError`.
    """
    if not kernels:
        raise ConfigError("kernel list is empty")
    compiler = config.resolve_compiler(cpu)
    cores = assign_cores(cpu.topology, config.threads, config.placement)
    resolved, reports = _resolve_suite_reports(
        kernels, cpu, config, compiler, None
    )
    if len(resolved) < len(kernels):
        for kernel in kernels:  # the first that fails raises its error
            _resolve_report(kernel, cpu, config, compiler)
    grid = predict_grid(
        cpu, kernels, [cores], [config.precision], reports,
        scaled_sizes(kernels, config.size_scale),
    )
    rows = zip(
        kernels, grid.invalid[0].tolist(), grid.seconds_per_rep[0].tolist(),
        grid.compute_bound[0].tolist(), grid.level_code[0].tolist(),
        *[term.tolist() for term in grid.decomposition(0)],
    )
    out = []
    for (kernel, invalid, total, compute, level, serial, parallel,
         overhead, pipe, mem) in rows:
        if invalid:
            raise SimulationError(
                f"{kernel.name}: no valid prediction on {cpu.name} at "
                f"{config.threads} thread(s), {config.placement.value}, "
                f"{config.precision.label}"
            )
        shares = (parallel / total, serial / total, overhead / total)
        if shares[2] >= max(shares[0], shares[1]):
            bound = "overhead"
        elif shares[1] > shares[0]:
            bound = "serial"
        elif compute:
            bound = "pipeline"
        else:
            bound = "DRAM" if level < 0 else grid.level_names[level]
        out.append(BottleneckReport(kernel.name, bound, *shares, pipe / mem))
    return out


def render_bottleneck_report(
    cpu: CPUModel, config: RunConfig, kernels: list[Kernel]
) -> str:
    """Table rendering for the CLI."""
    from repro.util.tables import render_table

    reports = attribute_bottlenecks(cpu, config, kernels)
    rows = [
        (
            r.kernel,
            r.bound,
            f"{r.parallel_share:.2f}",
            f"{r.serial_share:.2f}",
            f"{r.overhead_share:.2f}",
            f"{r.balance:.2f}",
        )
        for r in reports
    ]
    return render_table(
        ("kernel", "bound", "parallel", "serial", "overhead",
         "pipe/mem"),
        rows,
        title=(
            f"{cpu.name}: bottleneck attribution at {config.threads} "
            f"thread(s), {config.precision.label}"
        ),
    )
