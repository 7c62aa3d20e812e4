"""Ablations: switch off one modelled mechanism at a time and show which
paper phenomenon disappears.

Each ablation builds a modified SG2042 and re-runs the experiment whose
shape depends on the mechanism under test:

* ``ablation_l3_slicing`` — replace the per-NUMA 16MiB L3 slices with one
  unified 64MiB package L3: the block-vs-cyclic gap of Tables 1/2
  collapses, demonstrating that the placement results are driven by the
  per-region memory system.
* ``ablation_l3_contention`` — remove the L3 crossbar contention
  threshold: the 64-thread stream collapse disappears.
* ``ablation_l2_sharing`` — give each core a private 256KiB L2 instead
  of the 1MiB-per-4-core-cluster: the cluster placement loses its edge
  over plain cyclic (Table 3's mechanism).
* ``ablation_barrier`` — zero the fork-join cost: the apps class's
  overhead-bound kernels (HALOEXCHANGE) recover their scaling.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from repro.experiments.common import ExperimentResult, fast_config, run_groups
from repro.kernels.base import KernelClass
from repro.machine import catalog
from repro.machine.cache import CacheHierarchy, Sharing
from repro.machine.cpu import CPUModel
from repro.suite.config import Placement, Precision, RunConfig
from repro.suite.report import class_speedups
from repro.util.units import KIB


def _unified_l3(cpu: CPUModel) -> CPUModel:
    levels = list(cpu.caches.levels)
    l3 = levels[-1]
    levels[-1] = replace(
        l3,
        capacity_bytes=l3.capacity_bytes * cpu.topology.num_numa_nodes,
        sharing=Sharing.PACKAGE,
        aggregate_bandwidth_bytes_per_cycle=(
            (l3.aggregate_bandwidth_bytes_per_cycle or 0)
            * cpu.topology.num_numa_nodes
            or None
        ),
        contention_threshold=(
            None
            if l3.contention_threshold is None
            else l3.contention_threshold * cpu.topology.num_numa_nodes
        ),
    )
    return replace(
        cpu,
        name=cpu.name + " (unified L3)",
        caches=CacheHierarchy(levels=tuple(levels)),
    )


def _no_l3_contention(cpu: CPUModel) -> CPUModel:
    levels = list(cpu.caches.levels)
    levels[-1] = replace(levels[-1], contention_threshold=None)
    return replace(
        cpu,
        name=cpu.name + " (no L3 contention)",
        caches=CacheHierarchy(levels=tuple(levels)),
        memory=replace(cpu.memory, thrash_threshold=None),
    )


def _private_l2(cpu: CPUModel) -> CPUModel:
    levels = list(cpu.caches.levels)
    levels[1] = replace(
        levels[1],
        capacity_bytes=256 * KIB,
        sharing=Sharing.CORE,
    )
    return replace(
        cpu,
        name=cpu.name + " (private 256KiB L2)",
        caches=CacheHierarchy(levels=tuple(levels)),
    )


def _free_barriers(cpu: CPUModel) -> CPUModel:
    return replace(cpu, name=cpu.name + " (free barriers)",
                   fork_join_ns=0.0)


def _class_speedups(
    cpus: Sequence[CPUModel],
    klass: KernelClass,
    points: Sequence[tuple[int, Placement]],
    fast: bool,
) -> list[list[float]]:
    """Per machine, ``klass``'s FP32 speedup over one thread at each
    ``(threads, placement)`` point: each machine's 1-thread baseline
    runs once, and every suite in one ``run_suites`` call."""
    configs = [
        fast_config(
            RunConfig(threads=threads, precision=Precision.FP32,
                      placement=placement),
            fast,
        )
        for threads, placement in ((1, Placement.BLOCK), *points)
    ]
    return [
        [class_speedups(base, run)[klass][0] for run in runs]
        for base, *runs in run_groups(
            [[(cpu, config) for config in configs] for cpu in cpus]
        )
    ]


def ablation_l3_slicing(fast: bool = False) -> ExperimentResult:
    """Unified vs per-NUMA-sliced L3: the block/cyclic gap at 32
    threads."""
    sliced = catalog.sg2042()
    cpus = (sliced, _unified_l3(sliced))
    rows = []
    for cpu, (block, cyclic) in zip(cpus, _class_speedups(
        cpus, KernelClass.STREAM,
        ((32, Placement.BLOCK), (32, Placement.CYCLIC)), fast,
    )):
        rows.append(
            (cpu.name, f"{block:.2f}", f"{cyclic:.2f}",
             f"{cyclic / block:.1f}x")
        )
    return ExperimentResult(
        exp_id="ablation_l3_slicing",
        title="Ablation: per-NUMA L3 slicing drives the block-vs-cyclic "
        "gap (stream speedup at 32 threads)",
        headers=("machine", "block", "cyclic", "cyclic/block"),
        rows=tuple(rows),
        notes=(
            "with a unified package L3 the placement gap collapses — the "
            "paper's Table 1/2 contrast requires the per-region memory "
            "system",
        ),
    )


def ablation_l3_contention(fast: bool = False) -> ExperimentResult:
    """L3 crossbar contention: the 64-thread stream collapse."""
    base = catalog.sg2042()
    cpus = (base, _no_l3_contention(base))
    rows = []
    for cpu, (s32, s64) in zip(cpus, _class_speedups(
        cpus, KernelClass.STREAM,
        ((32, Placement.CYCLIC), (64, Placement.CYCLIC)), fast,
    )):
        rows.append(
            (cpu.name, f"{s32:.2f}", f"{s64:.2f}",
             "collapses" if s64 < 0.7 * s32 else "keeps scaling")
        )
    return ExperimentResult(
        exp_id="ablation_l3_contention",
        title="Ablation: L3 contention causes the 64-thread stream "
        "collapse (stream speedup, cyclic placement)",
        headers=("machine", "32 threads", "64 threads", "verdict"),
        rows=tuple(rows),
        notes=(
            "without the contention threshold, stream keeps scaling to "
            "64 threads — the opposite of the paper's Tables 1-3",
        ),
    )


def ablation_l2_sharing(fast: bool = False) -> ExperimentResult:
    """Cluster-shared L2: the Table 3 cluster-placement advantage."""
    base = catalog.sg2042()
    cpus = (base, _private_l2(base))
    rows = []
    for cpu, (cyclic, cluster) in zip(cpus, _class_speedups(
        cpus, KernelClass.STREAM,
        ((16, Placement.CYCLIC), (16, Placement.CLUSTER)), fast,
    )):
        rows.append(
            (cpu.name, f"{cyclic:.2f}", f"{cluster:.2f}",
             f"{cluster / cyclic:.2f}x")
        )
    return ExperimentResult(
        exp_id="ablation_l2_sharing",
        title="Ablation: the shared 1MiB cluster L2 is why cluster-aware "
        "placement wins (stream speedup at 16 threads)",
        headers=("machine", "cyclic", "cluster", "cluster/cyclic"),
        rows=tuple(rows),
        notes=(
            "with private per-core L2s the cluster policy loses its "
            "advantage over plain cyclic",
        ),
    )


def ablation_barrier(fast: bool = False) -> ExperimentResult:
    """Fork-join cost: the apps class's poor scaling."""
    base = catalog.sg2042()
    cpus = (base, _free_barriers(base))
    rows = []
    for cpu, (s2, s64) in zip(cpus, _class_speedups(
        cpus, KernelClass.APPS,
        ((2, Placement.CYCLIC), (64, Placement.CYCLIC)), fast,
    )):
        rows.append((cpu.name, f"{s2:.2f}", f"{s64:.2f}"))
    return ExperimentResult(
        exp_id="ablation_barrier",
        title="Ablation: fork-join cost limits the apps class "
        "(apps speedup, cyclic placement)",
        headers=("machine", "2 threads", "64 threads"),
        rows=tuple(rows),
        notes=(
            "HALOEXCHANGE launches 36 parallel regions per repetition; "
            "zeroing the barrier cost recovers most of the class's "
            "scaling",
        ),
    )


ABLATIONS = {
    "ablation_l3_slicing": ablation_l3_slicing,
    "ablation_l3_contention": ablation_l3_contention,
    "ablation_l2_sharing": ablation_l2_sharing,
    "ablation_barrier": ablation_barrier,
}
