"""Figure 2: single-core speedup from enabling vectorization on the
C920, FP32 and FP64, relative to the same precision compiled scalar.

The paper's reading: FP64 vectorization delivers essentially nothing
(the C920 has no FP64 vector arithmetic) except one integer kernel in
the basic class; FP32 benefits vary by kernel with the stream class —
fully vectorized by GCC — gaining most.
"""

from __future__ import annotations

from repro.experiments.common import (
    ExperimentResult,
    fast_config,
    figure_headers,
    relative_figure_rows,
)
from repro.machine import catalog
from repro.suite.config import Precision, RunConfig
from repro.suite.runner import SuiteRequest, run_suites


def run(fast: bool = False) -> ExperimentResult:
    sg = catalog.sg2042()
    precisions = (Precision.FP32, Precision.FP64)
    results = run_suites([
        SuiteRequest(
            sg,
            fast_config(
                RunConfig(
                    threads=1, precision=precision, vectorize=vectorize
                ),
                fast,
            ),
        )
        for precision in precisions
        for vectorize in (False, True)
    ])

    rows = []
    for i, precision in enumerate(precisions):
        scalar, vectorized = results[2 * i:2 * i + 2]
        rows.extend(
            relative_figure_rows(
                scalar,
                [(f"vectorized {precision.label}", vectorized)],
            )
        )

    return ExperimentResult(
        exp_id="figure2",
        title=(
            "Figure 2: single-core speedup from enabling vectorization "
            "on the C920 (times faster vs scalar build)"
        ),
        headers=figure_headers(),
        rows=tuple(rows),
        notes=(
            "paper: FP64 benefit is marginal (no FP64 vector support); "
            "the small positive basic-class FP64 average is one integer "
            "kernel (REDUCE3_INT); FP32 benefit is largest for stream, "
            "the only class GCC fully auto-vectorizes",
        ),
    )
