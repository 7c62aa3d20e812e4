"""RAJAPerf-style benchmark harness.

Couples the kernel suite, the compiler model and the performance model
into runnable experiments: a :class:`~repro.suite.config.RunConfig`
describes one configuration (threads, placement, precision, compiler,
vector flavour), ``run_suite`` produces per-kernel times averaged over
five simulated runs (like the paper), ``run_suites`` produces many
suites' in one call, and :mod:`repro.suite.report`
aggregates them into the paper's class-level bars, whiskers, speedups
and parallel efficiencies.
"""

from repro.resilience.retry import FailurePolicy, FailureRecord, RetrySpec
from repro.suite.config import Placement, Precision, RunConfig
from repro.suite.memo import SuiteCaches, machine_digest
from repro.suite.report import (
    class_speedups,
    class_summaries,
    failure_summary,
    kernel_relative,
)
from repro.suite.runner import (
    SuiteRequest,
    SuiteResult,
    run_suite,
    run_suites,
    verify_kernel,
)

__all__ = [
    "RunConfig",
    "Precision",
    "Placement",
    "run_suite",
    "run_suites",
    "SuiteRequest",
    "SuiteResult",
    "verify_kernel",
    "class_summaries",
    "class_speedups",
    "kernel_relative",
    "failure_summary",
    "FailurePolicy",
    "FailureRecord",
    "RetrySpec",
    "SuiteCaches",
    "machine_digest",
]
