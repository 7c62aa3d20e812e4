"""Aggregation: class-level bars, whiskers, speedups, efficiencies.

Implements the exact reporting conventions of the paper's figures and
tables (see :mod:`repro.util.stats` for the conventions themselves).
"""

from __future__ import annotations

from repro.kernels.base import KernelClass
from repro.suite.runner import SuiteResult
from repro.util.errors import ConfigError
from repro.util.stats import (
    Summary,
    arithmetic_mean,
    parallel_efficiency,
    relative_to_baseline,
    speedup,
    summarize,
)


def _pairs(a: SuiteResult, b: SuiteResult):
    """``(name, a's seconds, b's seconds)`` for each kernel both results
    ran, in ``a``'s kernel order."""
    theirs = dict(zip(b.names, b.seconds))
    return [
        (name, seconds, theirs[name])
        for name, seconds in zip(a.names, a.seconds)
        if name in theirs
    ]


def _by_class(
    result: SuiteResult, values: dict[str, float]
) -> dict[KernelClass, list[float]]:
    """``values`` of ``result``'s kernels grouped by class, in
    :class:`KernelClass` order and ``result``'s kernel order within a
    class."""
    pairs = [
        (klass, values[name])
        for name, klass in zip(result.names, result.classes)
        if name in values
    ]
    groups: dict[KernelClass, list[float]] = {}
    for klass in KernelClass:
        # An identity test per kernel: hashing an enum member runs
        # Python code.
        members = [value for member, value in pairs if member is klass]
        if members:
            groups[klass] = members
    return groups


def kernel_relative(
    baseline: SuiteResult, other: SuiteResult
) -> dict[str, float]:
    """Per-kernel signed times-faster/slower of ``other`` vs
    ``baseline`` (the figures' y-axis quantity)."""
    rel = {
        name: relative_to_baseline(base, seconds)
        for name, base, seconds in _pairs(baseline, other)
    }
    if not rel:
        raise ConfigError("results share no kernels")
    return rel


def class_summaries(
    baseline: SuiteResult, other: SuiteResult
) -> dict[KernelClass, Summary]:
    """Class-level bar + whiskers of ``other`` relative to ``baseline``
    — one figure's worth of data."""
    return {
        klass: summarize(values)
        for klass, values in _by_class(
            baseline, kernel_relative(baseline, other)
        ).items()
    }


def class_speedups(
    single_thread: SuiteResult, threaded: SuiteResult
) -> dict[KernelClass, tuple[float, float]]:
    """Class-level (speedup, parallel efficiency) — one row of
    Tables 1-3.

    The class speedup is the mean of per-kernel speedups; efficiency
    divides by the threaded run's thread count.
    """
    if single_thread.config.threads != 1:
        raise ConfigError("baseline must be a single-thread run")
    threads = threaded.config.threads
    speedups = {
        name: speedup(t1, tp)
        for name, t1, tp in _pairs(single_thread, threaded)
    }
    out: dict[KernelClass, tuple[float, float]] = {}
    for klass, values in _by_class(single_thread, speedups).items():
        s = arithmetic_mean(values)
        out[klass] = (s, parallel_efficiency(s, threads))
    return out


def suite_average_relative(
    baseline: SuiteResult, other: SuiteResult
) -> float:
    """Whole-suite mean of the signed relative values — the "on average
    N times faster" statements in the paper's conclusions."""
    rel = kernel_relative(baseline, other)
    return arithmetic_mean(list(rel.values()))


def telemetry_summary(result) -> str:
    """Render a result's telemetry digest.

    Accepts any result carrying the ``telemetry`` field
    (:class:`SuiteResult` or ``SweepResult``); explains how to enable
    telemetry when the run recorded none.
    """
    summary = getattr(result, "telemetry", None)
    if summary is None:
        return ("telemetry: off (run under telemetry_session() or pass "
                "--telemetry)")
    return summary.render()


def failure_summary(result: SuiteResult) -> str:
    """Render a suite's failures as an explicit gap report.

    Tables and figures computed from a degraded result carry this
    alongside, so a missing kernel reads as "failed after N attempts",
    never as silently absent data.
    """
    if not result.failures:
        return f"{result.cpu_name}: all {len(result.names)} kernels ok"
    lines = [
        f"{result.cpu_name}: {len(result.names)} kernels ok, "
        f"{len(result.failures)} failed"
    ]
    for record in result.failures:
        site = f" [injected: {record.site}]" if record.site else ""
        lines.append(
            f"  {record.kernel:<14} {record.error_type} after "
            f"{record.attempts} attempt(s): {record.message}{site}"
        )
    return "\n".join(lines)
