"""Figure 1: single-core comparison of VisionFive V1/V2 and SG2042,
baselined against the V2 running at double precision.

Positive values mean "times faster than the baseline", negative "times
slower"; bars are class averages, whiskers [min, max] — exactly the
paper's plotting convention.
"""

from __future__ import annotations

from repro.experiments.common import (
    ExperimentResult,
    fast_config,
    figure_headers,
    relative_chart_data,
    relative_figure_rows,
)
from repro.machine import catalog
from repro.suite.config import Precision, RunConfig
from repro.suite.runner import SuiteRequest, run_suites


def run(fast: bool = False) -> ExperimentResult:
    v2 = catalog.visionfive_v2()
    v1 = catalog.visionfive_v1()
    sg = catalog.sg2042()

    def single(cpu, precision):
        return SuiteRequest(
            cpu,
            fast_config(RunConfig(threads=1, precision=precision), fast),
        )

    configurations = (
        ("VisionFive V2 / FP32", v2, Precision.FP32),
        ("VisionFive V1 / FP64", v1, Precision.FP64),
        ("VisionFive V1 / FP32", v1, Precision.FP32),
        ("SG2042 / FP64", sg, Precision.FP64),
        ("SG2042 / FP32", sg, Precision.FP32),
    )
    baseline, *results = run_suites(
        [single(v2, Precision.FP64)]
        + [single(cpu, precision) for _, cpu, precision in configurations]
    )
    others = [
        (label, result)
        for (label, _, _), result in zip(configurations, results)
    ]
    return ExperimentResult(
        exp_id="figure1",
        title=(
            "Figure 1: single core comparison baselined against StarFive "
            "VisionFive V2 at FP64 (times faster/slower)"
        ),
        headers=figure_headers(),
        rows=relative_figure_rows(baseline, others),
        chart_data=relative_chart_data(baseline, others),
        notes=(
            "paper: C920 4.3-6.5x faster than U74 (FP64 class averages), "
            "5.6-11.8x (FP32); no kernel slower on the C920; V1 3-6x "
            "slower than V2 at FP64, 1-3x at FP32",
        ),
    )
