"""Shared machinery for the experiment modules."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Sequence

from repro.kernels.base import KernelClass
from repro.machine.cpu import CPUModel
from repro.suite.config import Placement, RunConfig
from repro.suite.report import class_summaries
from repro.suite.runner import SuiteRequest, SuiteResult, run_suites
from repro.util.errors import ConfigError
from repro.util.stats import Summary
from repro.util.tables import render_csv, render_table

#: Class display order used by every table/figure (the paper's order).
CLASS_ORDER = (
    KernelClass.ALGORITHM,
    KernelClass.APPS,
    KernelClass.BASIC,
    KernelClass.LCALS,
    KernelClass.POLYBENCH,
    KernelClass.STREAM,
)

#: Thread counts swept in Tables 1-3.
THREAD_SWEEP = (2, 4, 8, 16, 32, 64)
FAST_THREAD_SWEEP = (2, 8, 32)

#: Problem-size scale for ``fast`` runs — the model is analytic, so
#: scaling only changes cache-fit boundaries; keep it at 1 and reduce
#: sweeps/run counts instead.
FAST_RUNS = 1


@dataclass(frozen=True)
class ExperimentResult:
    """Rendered output of one experiment.

    Attributes:
        exp_id: Short id (``"table1"``, ``"figure4"``).
        title: Human-readable title matching the paper's caption.
        headers: Column headers of the data rows.
        rows: The data rows (pre-formatted strings or numbers).
        notes: Free-text caveats appended to the rendering.
    """

    exp_id: str
    title: str
    headers: tuple[str, ...]
    rows: tuple[tuple, ...]
    notes: tuple[str, ...] = ()
    #: Optional numeric bar data for figures: (label, mean, min, max).
    chart_data: tuple[tuple, ...] = ()

    def __post_init__(self) -> None:
        if not self.rows:
            raise ConfigError(f"{self.exp_id}: experiment produced no rows")

    def render(self, chart: bool = False) -> str:
        text = render_table(self.headers, self.rows, title=self.title)
        if chart and self.chart_data:
            from repro.util.tables import render_bar_chart

            labels = [c[0] for c in self.chart_data]
            means = [c[1] for c in self.chart_data]
            mins = [c[2] for c in self.chart_data]
            maxs = [c[3] for c in self.chart_data]
            text += "\n\n" + render_bar_chart(
                labels, means, mins, maxs,
                title="bars: times faster/slower vs baseline",
            )
        if self.notes:
            text += "\n" + "\n".join(f"note: {n}" for n in self.notes)
        return text

    def to_csv(self) -> str:
        return render_csv(self.headers, self.rows)


def fast_config(config: RunConfig, fast: bool) -> RunConfig:
    """Reduce averaging for fast mode (the model itself is O(1) per
    kernel, so runs dominate)."""
    if not fast:
        return config
    from dataclasses import replace

    return replace(config, runs=FAST_RUNS, noise_sigma=0.0)


def summary_row(
    label: str, summaries: dict[KernelClass, Summary]
) -> tuple:
    """One figure row: label + mean[min,max] per class."""
    cells: list[str] = [label]
    for klass in CLASS_ORDER:
        s = summaries.get(klass)
        if s is None:
            cells.append("-")
        else:
            # ".." separator keeps cells comma-free for CSV export.
            cells.append(
                f"{s.mean:+.2f} [{s.minimum:+.2f} .. {s.maximum:+.2f}]"
            )
    return tuple(cells)


def figure_headers() -> tuple[str, ...]:
    return ("configuration",) + tuple(k.value for k in CLASS_ORDER)


def relative_figure_rows(
    baseline: SuiteResult,
    others: Sequence[tuple[str, SuiteResult]],
) -> tuple[tuple, ...]:
    """Rows of a relative-performance figure: one per configuration."""
    rows = []
    for label, result in others:
        rows.append(summary_row(label, class_summaries(baseline, result)))
    return tuple(rows)


def relative_chart_data(
    baseline: SuiteResult,
    others: Sequence[tuple[str, SuiteResult]],
) -> tuple[tuple, ...]:
    """Numeric (label, mean, min, max) bars per configuration x class,
    for the ASCII chart rendering of a figure."""
    bars = []
    for label, result in others:
        for klass, summary in class_summaries(baseline, result).items():
            bars.append(
                (
                    f"{label} / {klass.value}",
                    summary.mean,
                    summary.minimum,
                    summary.maximum,
                )
            )
    return tuple(bars)


def run_groups(
    groups: Sequence[Sequence[SuiteRequest]],
) -> list[list[SuiteResult]]:
    """Each group's results, in request order, from one
    :func:`~repro.suite.runner.run_suites` call over every group's
    requests."""
    results = iter(run_suites([request for group in groups
                               for request in group]))
    return [list(islice(results, len(group))) for group in groups]


def threaded_requests(
    cpu: CPUModel,
    precision,
    fast: bool = False,
    candidates: Sequence[tuple[int, Placement]] | None = None,
) -> list[SuiteRequest]:
    """The candidate threaded configurations for ``cpu``, whose
    :func:`fastest` result is its most performant one.

    Section 3.3: on every x86 system the best thread count equals the
    physical core count; on the SG2042, 32 threads (cluster placement)
    beat 64 for some classes, so both are tried and the faster total
    wins.
    """
    if candidates is None:
        if cpu.part == "SG2042":
            candidates = [(32, Placement.CLUSTER), (64, Placement.CLUSTER)]
        else:
            candidates = [(cpu.num_cores, Placement.BLOCK)]
    return [
        SuiteRequest(
            cpu,
            fast_config(
                RunConfig(
                    threads=threads, precision=precision,
                    placement=placement,
                ),
                fast,
            ),
        )
        for threads, placement in candidates
    ]


def fastest(results: Sequence[SuiteResult]) -> SuiteResult:
    """The result with the smallest total time (the first of equals)."""
    return min(results, key=SuiteResult.total_seconds)


def best_threaded_run(
    cpu: CPUModel,
    precision,
    fast: bool = False,
    candidates: Sequence[tuple[int, Placement]] | None = None,
) -> SuiteResult:
    """The most performant threaded configuration for ``cpu``: the
    :func:`fastest` of its :func:`threaded_requests`."""
    return fastest(
        run_suites(threaded_requests(cpu, precision, fast, candidates))
    )
