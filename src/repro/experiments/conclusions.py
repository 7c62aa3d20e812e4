"""The paper's Section 4 conclusions, recomputed.

The conclusions condense the whole evaluation into a handful of "N times
faster" statements. This experiment recomputes every one of them from
the model and prints paper-vs-measured side by side — the quantitative
summary behind EXPERIMENTS.md.
"""

from __future__ import annotations

from repro.experiments.common import (
    ExperimentResult,
    fast_config,
    fastest,
    run_groups,
    threaded_requests,
)
from repro.machine import catalog
from repro.suite.config import Precision, RunConfig
from repro.suite.report import suite_average_relative
from repro.suite.runner import SuiteRequest
from repro.util.stats import from_relative

#: The conclusions' stated factors: (label, paper value).
_PAPER = {
    ("single", "fp32", "amd_rome"): 3.0,
    ("single", "fp32", "intel_broadwell"): 4.0,
    ("single", "fp32", "intel_icelake"): 4.0,
    ("single", "fp32", "intel_sandybridge"): 2.0,
    ("single", "fp64", "amd_rome"): 4.0,
    ("single", "fp64", "intel_broadwell"): 4.0,
    ("single", "fp64", "intel_icelake"): 5.0,
    ("single", "fp64", "intel_sandybridge"): 1.2,
    ("multi", "fp32", "amd_rome"): 8.0,
    ("multi", "fp32", "intel_broadwell"): 6.0,
    ("multi", "fp32", "intel_icelake"): 6.0,
    ("multi", "fp64", "amd_rome"): 5.0,
    ("multi", "fp64", "intel_broadwell"): 4.0,
    ("multi", "fp64", "intel_icelake"): 8.0,
}


#: The paper cell of the Sandybridge rows, which print the loss.
_SG2042_WINS = "SG2042 wins"


def run(fast: bool = False) -> ExperimentResult:
    sg = catalog.sg2042()
    x86 = catalog.x86_cpus()
    v2 = catalog.visionfive_v2()

    def single(cpu, precision):
        return [SuiteRequest(
            cpu, fast_config(RunConfig(threads=1, precision=precision), fast)
        )]

    def multi(cpu, precision):
        return threaded_requests(cpu, precision, fast)

    # (claim, paper, the baseline's candidate requests, the other
    # machine's): each side is the fastest of its candidates.
    claims = []

    # C920 vs U74 (V2) averages.
    for precision, paper in ((Precision.FP64, "3-6x"),
                             (Precision.FP32, "5-10x")):
        claims.append((
            f"C920 vs U74, single core, {precision.label}", paper,
            single(v2, precision), single(sg, precision),
        ))

    # x86 vs SG2042, single core and multithreaded.
    for mode, requests in (("single", single), ("multi", multi)):
        for precision in (Precision.FP64, Precision.FP32):
            for name, cpu in x86.items():
                key = (mode, precision.label, name)
                if key in _PAPER:
                    claims.append((
                        f"{cpu.name} vs SG2042, {mode}, "
                        f"{precision.label}",
                        f"{_PAPER[key]:.1f}x",
                        requests(sg, precision), requests(cpu, precision),
                    ))

    # The Sandybridge multithreaded loss.
    sandybridge = catalog.intel_sandybridge()
    for precision in (Precision.FP64, Precision.FP32):
        claims.append((
            f"Sandybridge vs SG2042, multi, {precision.label}",
            _SG2042_WINS,
            multi(sg, precision), multi(sandybridge, precision),
        ))

    results = run_groups(
        [side for claim in claims for side in claim[2:]]
    )
    rows = []
    for i, (claim, paper, _, _) in enumerate(claims):
        measured = from_relative(suite_average_relative(
            fastest(results[2 * i]), fastest(results[2 * i + 1])
        ))
        if paper == _SG2042_WINS:
            text = f"{measured:.2f}x" + (
                " (SG2042 wins)" if measured < 1 else ""
            )
        else:
            text = f"{measured:.1f}x"
        rows.append((claim, paper, text))

    return ExperimentResult(
        exp_id="conclusions",
        title="Section 4 conclusions: paper-stated factors vs the "
        "model's suite averages",
        headers=("claim", "paper", "measured"),
        rows=tuple(rows),
        notes=(
            "suite averages over all 64 kernels (mean of signed "
            "times-faster values, converted back to a ratio)",
        ),
    )
