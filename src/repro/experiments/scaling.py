"""Shared implementation of Tables 1-3: thread-scaling on the SG2042.

Each table sweeps thread counts {2, 4, 8, 16, 32, 64} at FP32 under one
placement policy and reports class-level speedup and parallel efficiency
against the single-thread run.
"""

from __future__ import annotations

from repro.experiments.common import (
    CLASS_ORDER,
    ExperimentResult,
    FAST_THREAD_SWEEP,
    THREAD_SWEEP,
    fast_config,
)
from repro.machine import catalog
from repro.suite.config import Placement, Precision, RunConfig
from repro.suite.report import class_speedups
from repro.suite.runner import run_suites


def scaling_table(
    exp_id: str,
    title: str,
    placement: Placement,
    fast: bool = False,
    notes: tuple[str, ...] = (),
) -> ExperimentResult:
    sg = catalog.sg2042()
    sweep = FAST_THREAD_SWEEP if fast else THREAD_SWEEP
    configs = [RunConfig(threads=1, precision=Precision.FP32)] + [
        RunConfig(
            threads=threads,
            precision=Precision.FP32,
            placement=placement,
        )
        for threads in sweep
    ]
    baseline, *results = run_suites(
        [(sg, fast_config(config, fast)) for config in configs]
    )

    headers = ["Threads"]
    for klass in CLASS_ORDER:
        headers.extend([f"{klass.value} speedup", "PE"])

    rows = []
    for threads, result in zip(sweep, results):
        speedups = class_speedups(baseline, result)
        row: list[object] = [threads]
        for klass in CLASS_ORDER:
            s, pe = speedups[klass]
            row.extend([f"{s:.2f}", f"{pe:.2f}"])
        rows.append(tuple(row))

    return ExperimentResult(
        exp_id=exp_id,
        title=title,
        headers=tuple(headers),
        rows=tuple(rows),
        notes=notes,
    )
