"""The sequel papers' headline questions, answered by the model.

Two experiments over registry-only machines (neither exists as Python —
``sophon_sg2044`` and ``sg2042_2s`` are data files under
``repro/registry/data/machines/``):

* ``sequel_crossover`` — per-kernel SG2042-vs-SG2044 comparison. The
  SG2044 evaluation (arxiv 2508.13840) asks where the C930's native RVV
  1.0 (256-bit, Clang, no rollback penalty) and DDR5 actually land
  relative to the C920; the per-kernel table shows which kernel classes
  cross over and by how much.
* ``sequel_sockets`` — 1-socket vs 2-socket SG2042 scaling. The
  multi-socket study (arxiv 2502.10320) finds thread counts spanning
  sockets collapsing below single-socket performance; the sweep shows
  the same collapse from the socket-interconnect term in
  :mod:`repro.perfmodel.memory`.
"""

from __future__ import annotations

import math

from repro.experiments.common import ExperimentResult, fast_config
from repro.kernels.base import KernelClass
from repro.machine.cpu import CPUModel
from repro.openmp.affinity import assign_cores
from repro.suite.config import Placement, RunConfig
from repro.suite.runner import SuiteResult, run_suites


def _registry_machine(name: str) -> CPUModel:
    from repro.registry import default_registry

    return default_registry().machine(name)


def _geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def run_crossover(fast: bool = False) -> ExperimentResult:
    """Per-kernel SG2042 (C920, RVV 0.7.1) vs SG2044 (C930, RVV 1.0)."""
    config = fast_config(
        RunConfig(
            threads=32,
            precision="fp32",
            placement="cluster",
            noise_sigma=0.0,
        ),
        fast,
    )
    old = _registry_machine("sg2042")
    new = _registry_machine("sophon_sg2044")
    old_result, new_result = run_suites([(old, config), (new, config)])

    rows = []
    speedups: dict[str, list[float]] = {}
    new_seconds = dict(zip(new_result.names, new_result.seconds))
    for name, klass, old_s in sorted(zip(
        old_result.names, old_result.classes, old_result.seconds,
    )):
        new_s = new_seconds[name]
        ratio = old_s / new_s
        speedups.setdefault(klass.value, []).append(ratio)
        rows.append((
            name,
            klass.value,
            f"{old_s * 1e3:.3f}",
            f"{new_s * 1e3:.3f}",
            f"{ratio:.2f}x",
            "SG2044" if ratio > 1.0 else "SG2042",
        ))
    all_ratios = [r for rs in speedups.values() for r in rs]
    wins = sum(1 for r in all_ratios if r > 1.0)
    chart = tuple(
        (klass, _geomean(rs), min(rs), max(rs))
        for klass, rs in sorted(speedups.items())
    )
    notes = (
        f"SG2044 wins {wins}/{len(all_ratios)} kernels at "
        f"{config.threads} threads; geomean speedup "
        f"{_geomean(all_ratios):.2f}x",
        "per-class geomean (min..max): " + ", ".join(
            f"{klass} {_geomean(rs):.2f}x "
            f"({min(rs):.2f}..{max(rs):.2f})"
            for klass, rs in sorted(speedups.items())
        ),
        "SG2044 runs native RVV 1.0 under Clang 16 (no rollback "
        "penalty); SG2042 runs RVV 0.7.1 under XuanTie GCC 8.4",
    )
    return ExperimentResult(
        exp_id="sequel_crossover",
        title="SG2042 vs SG2044 per-kernel crossover "
              f"(FP32, {config.threads} threads, cluster placement)",
        headers=("kernel", "class", "SG2042 ms", "SG2044 ms",
                 "speedup", "faster"),
        rows=tuple(rows),
        notes=notes,
        chart_data=chart,
    )


def _stream_seconds(result: SuiteResult) -> float:
    return sum(
        seconds for klass, seconds in zip(result.classes, result.seconds)
        if klass is KernelClass.STREAM
    )


def run_scaling(fast: bool = False) -> ExperimentResult:
    """1-socket vs 2-socket SG2042 thread-scaling collapse."""
    one = _registry_machine("sg2042")
    two = _registry_machine("sg2042_2s")
    base_threads = 16
    sweeps: tuple[tuple[str, CPUModel, tuple[int, ...]], ...] = (
        ("SG2042 1S", one,
         (base_threads, 64) if fast else (base_threads, 32, 64)),
        ("SG2042 2S", two,
         (base_threads, 64, 128) if fast
         else (base_threads, 32, 64, 128)),
    )

    def config(threads: int) -> RunConfig:
        return fast_config(
            RunConfig(
                threads=threads,
                precision="fp32",
                placement=Placement.BLOCK,
                noise_sigma=0.0,
                # STREAM-style sizing: big enough that per-thread slices
                # cannot fall back into L2/L3 at high thread counts —
                # the socket question is a DRAM question.
                size_scale=16.0,
            ),
            fast,
        )

    results = iter(run_suites([
        (cpu, config(threads))
        for _, cpu, threads_sweep in sweeps for threads in threads_sweep
    ]))
    rows = []
    totals: dict[tuple[str, int], float] = {}
    stream_totals: dict[tuple[str, int], float] = {}
    for label, cpu, threads_sweep in sweeps:
        for threads, result in zip(threads_sweep, results):
            total = result.total_seconds()
            totals[(label, threads)] = total
            stream_totals[(label, threads)] = _stream_seconds(result)
            base = totals[(label, base_threads)]
            cores = assign_cores(
                cpu.topology, threads, Placement.BLOCK
            )
            spanned = cpu.topology.sockets_spanned(cores)
            speedup = base / total
            efficiency = speedup * base_threads / threads
            rows.append((
                label,
                threads,
                spanned,
                f"{total:.3f}",
                f"{stream_totals[(label, threads)]:.3f}",
                f"{speedup:.2f}x",
                f"{efficiency * 100:.0f}%",
            ))
    stream_collapse = (
        stream_totals[("SG2042 2S", 128)]
        / stream_totals[("SG2042 2S", 64)]
    )
    overall = (
        totals[("SG2042 2S", 128)] / totals[("SG2042 2S", 64)]
    )
    direction = "slower" if overall >= 1.0 else "faster"
    notes = (
        f"going 64 -> 128 threads (one socket -> two) makes the "
        f"stream class {stream_collapse:.2f}x slower: the extra "
        "socket's bandwidth is eaten by the interconnect term, the "
        "sequels' headline collapse",
        f"the whole suite ends up "
        f"{max(overall, 1 / overall):.2f}x {direction} at 128 threads "
        "than at 64 on one socket",
        f"speedups are vs the same machine at {base_threads} threads; "
        "efficiency is speedup over the ideal thread ratio",
    )
    return ExperimentResult(
        exp_id="sequel_sockets",
        title="SG2042 1-socket vs 2-socket scaling "
              "(FP32, block placement, 16x STREAM sizing, suite total)",
        headers=("machine", "threads", "sockets used", "total s",
                 "stream s", "speedup", "efficiency"),
        rows=tuple(rows),
        notes=notes,
        chart_data=tuple(
            (f"{label} @{threads}", totals[(label, threads)],
             totals[(label, threads)], totals[(label, threads)])
            for label, _, sweep in sweeps for threads in sweep
        ),
    )


#: Default entry point: the crossover study.
run = run_crossover
