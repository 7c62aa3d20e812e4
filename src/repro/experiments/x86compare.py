"""Shared implementation of Figures 4-7: x86 CPUs vs the SG2042.

Figures 4/5 compare single cores (FP64/FP32); Figures 6/7 compare the
most performant multithreaded configuration of each machine. In every
case the SG2042 is the baseline and bars report times faster (positive)
or slower (negative), class-averaged with min/max whiskers.
"""

from __future__ import annotations

from repro.experiments.common import (
    ExperimentResult,
    fast_config,
    fastest,
    figure_headers,
    relative_chart_data,
    relative_figure_rows,
    run_groups,
    threaded_requests,
)
from repro.machine import catalog
from repro.suite.config import Precision, RunConfig
from repro.suite.runner import run_suites


def single_core_figure(
    exp_id: str,
    precision: Precision,
    fast: bool = False,
    notes: tuple[str, ...] = (),
) -> ExperimentResult:
    sg = catalog.sg2042()
    x86 = list(catalog.x86_cpus().values())
    cfg = fast_config(RunConfig(threads=1, precision=precision), fast)
    baseline, *results = run_suites([(cpu, cfg) for cpu in (sg, *x86)])
    others = [(cpu.name, result) for cpu, result in zip(x86, results)]
    return ExperimentResult(
        exp_id=exp_id,
        title=(
            f"{exp_id.capitalize().replace('figure', 'Figure ')}: "
            f"{precision.label.upper()} single core comparison against "
            "x86, baselined against the SG2042"
        ),
        headers=figure_headers(),
        rows=relative_figure_rows(baseline, others),
        notes=notes,
        chart_data=relative_chart_data(baseline, others),
    )


def multithreaded_figure(
    exp_id: str,
    precision: Precision,
    fast: bool = False,
    notes: tuple[str, ...] = (),
) -> ExperimentResult:
    sg = catalog.sg2042()
    x86 = list(catalog.x86_cpus().values())
    baseline, *results = [
        fastest(candidates)
        for candidates in run_groups([
            threaded_requests(cpu, precision, fast) for cpu in (sg, *x86)
        ])
    ]
    others = [(cpu.name, result) for cpu, result in zip(x86, results)]
    return ExperimentResult(
        exp_id=exp_id,
        title=(
            f"{exp_id.capitalize().replace('figure', 'Figure ')}: "
            f"{precision.label.upper()} multithreaded comparison against "
            "x86 (most performant thread count each), baselined against "
            "the SG2042"
        ),
        headers=figure_headers(),
        rows=relative_figure_rows(baseline, others),
        chart_data=relative_chart_data(baseline, others),
        notes=notes
        + (
            "x86 best thread count = all physical cores (SMT off); "
            "SG2042 best of 32 (cluster placement) and 64 threads",
        ),
    )
