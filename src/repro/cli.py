"""Command-line interface: ``sg2042-repro`` (or ``python -m repro``).

Subcommands::

    sg2042-repro list                 # machines, kernels, experiments
    sg2042-repro describe sg2042      # machine spec block + lscpu view
    sg2042-repro run --cpu sg2042 --threads 32 --placement cluster
    sg2042-repro experiment table2    # reproduce one table/figure
    sg2042-repro experiment all       # reproduce everything
    sg2042-repro verify               # execute all kernels numerically
    sg2042-repro lint --all           # static analysis of IRs + assembly
    sg2042-repro serve --port 8642    # the HTTP prediction service
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager, nullcontext

from repro.experiments import ALL_EXPERIMENTS, EXPERIMENTS
from repro.kernels.registry import all_kernels, kernel_names
from repro.resilience import inject_faults, load_fault_plan
from repro.resilience.retry import FailurePolicy, RetrySpec
from repro.suite.config import RunConfig
from repro.suite.report import failure_summary
from repro.suite.runner import run_suite, verify_kernel
from repro.util.errors import ReproError
from repro.util.tables import render_table
from repro.util.units import format_seconds


def _chaos_context(args: argparse.Namespace):
    """Context manager installing ``--fault-plan``, if given."""
    if getattr(args, "fault_plan", None):
        return inject_faults(load_fault_plan(args.fault_plan))
    return nullcontext()


def _parse_kernels(spec: str) -> list:
    """Kernel objects for a ``--kernels`` value (``all`` = catalog)."""
    from repro.kernels.registry import get_kernel

    if spec.strip().lower() == "all":
        return all_kernels()
    return [get_kernel(n) for n in spec.split(",")]


def _registry_paths(args: argparse.Namespace) -> tuple[str, ...]:
    return tuple(getattr(args, "registry_path", None) or ())


def _registry(args: argparse.Namespace):
    """The document registry for this invocation: the shipped data plus
    any ``--registry-path`` roots (later roots override by name)."""
    from repro.registry import registry_with_paths

    return registry_with_paths(_registry_paths(args))


def _resolve_cpu(args: argparse.Namespace, name: str | None = None):
    """Machine ``name`` (default ``args.cpu``) from the registry.

    Prints the unknown-machine message and returns ``None`` when the
    name is not registered (callers turn that into exit code 2).
    """
    registry = _registry(args)
    target = args.cpu if name is None else name
    known = registry.machine_names()
    if target not in known:
        print(f"unknown machine {target!r}; known: {sorted(known)}",
              file=sys.stderr)
        return None
    return registry.machine(target)


def _add_registry_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--registry-path", action="append", default=None, metavar="DIR",
        help="extra registry root holding <kind>/<name>.json documents, "
        "layered over the built-in data (repeatable; later roots "
        "override earlier names)",
    )


def _add_grid_flags(parser: argparse.ArgumentParser) -> None:
    """The sweep grid flags of ``sweep`` and ``trace``."""
    parser.add_argument("--cpu", default="sg2042")
    parser.add_argument("--kernels", default="TRIAD,DAXPY,GEMM",
                        help="comma-separated kernel names, or 'all'")
    parser.add_argument("--threads", default="1,8,32")
    parser.add_argument("--placements", default="cyclic,cluster")
    parser.add_argument("--precisions", default="fp32")


def _parse_grid(args: argparse.Namespace):
    """``(kernels, threads, placements, precisions)`` from the grid
    flags; a non-integer thread count is a :class:`ConfigError`."""
    from repro.suite.config import Placement, Precision
    from repro.util.errors import ConfigError

    try:
        threads = [int(t) for t in args.threads.split(",")]
    except ValueError:
        raise ConfigError(
            f"--threads must be comma-separated integers, got "
            f"{args.threads!r}"
        ) from None
    return (
        _parse_kernels(args.kernels),
        threads,
        [Placement.from_label(p) for p in args.placements.split(",")],
        [Precision.from_label(p) for p in args.precisions.split(",")],
    )


def _sweep_caches(args: argparse.Namespace):
    """The ``--store`` tier of a sweep.

    Returns ``(caches, store)``: both ``None`` without ``--store``,
    else the store's compile tier and the opened artifact store.
    :func:`_default_store_scope` installs the store as the process
    default for the sweep, which gives the SoA lowering cache its disk
    tier.
    """
    if getattr(args, "store", None):
        from repro.store import ArtifactStore
        from repro.suite.memo import SuiteCaches

        store = ArtifactStore(args.store)
        return SuiteCaches.persistent(store), store
    return None, None


@contextmanager
def _default_store_scope(store):
    """Install ``store`` (if any) as the process default store, and put
    the previous default back when the block ends, however it ends."""
    if store is None:
        yield
        return
    from repro.store import set_default_store

    previous = set_default_store(store)
    try:
        yield
    finally:
        set_default_store(previous)


def _failure_policy(args: argparse.Namespace) -> FailurePolicy:
    return FailurePolicy.from_label(args.on_failure)


def _retry_spec(args: argparse.Namespace) -> RetrySpec:
    return RetrySpec(max_retries=args.retries)


def _add_resilience_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--fault-plan", default=None, metavar="PLAN.json",
        help="inject faults from this seeded chaos plan (JSON)",
    )
    parser.add_argument(
        "--on-failure", default="abort",
        choices=["abort", "skip", "retry"],
        help="kernel failure policy: abort the run (default), skip and "
        "record, or retry with backoff then record",
    )
    parser.add_argument(
        "--retries", type=int, default=3,
        help="retry budget per kernel for --on-failure retry",
    )


def _add_telemetry_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--telemetry", action="store_true",
        help="record spans and metrics for this invocation and print "
        "the telemetry summary",
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="write the span trace to FILE — Chrome trace-event JSON, "
        "or JSONL when FILE ends in .jsonl (implies --telemetry)",
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="write the flat metrics dump to FILE (implies --telemetry)",
    )


@contextmanager
def _telemetry_scope(args: argparse.Namespace):
    """Install a telemetry session when the command asked for one.

    ``--trace-out`` / ``--metrics-out`` imply ``--telemetry``. On a
    successful exit the requested artifacts are written and announced on
    stderr. Yields the live recorder, or ``None`` when telemetry is off.
    """
    trace_out = getattr(args, "trace_out", None)
    metrics_out = getattr(args, "metrics_out", None)
    if not (getattr(args, "telemetry", False) or trace_out or metrics_out):
        yield None
        return
    from repro import telemetry
    from repro.telemetry.export import write_metrics, write_trace

    with telemetry.telemetry_session() as (recorder, registry):
        yield recorder
        if trace_out:
            write_trace(trace_out, recorder.records(), registry.snapshot())
            print(f"trace written to {trace_out}", file=sys.stderr)
        if metrics_out:
            write_metrics(metrics_out, registry.snapshot())
            print(f"metrics written to {metrics_out}", file=sys.stderr)


def _cmd_list(args: argparse.Namespace) -> int:
    print("machines:")
    for name in _registry(args).machine_names():
        print(f"  {name}")
    print("experiments:")
    for name in ALL_EXPERIMENTS:
        print(f"  {name}")
    print(f"kernels ({len(kernel_names())}):")
    for name in kernel_names():
        print(f"  {name}")
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    cpu = _resolve_cpu(args)
    if cpu is None:
        return 2
    print(cpu.describe())
    print()
    print(cpu.topology.lscpu())
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    if args.machine_file:
        from repro.machine.serialize import load_cpu

        cpu = load_cpu(args.machine_file)
    else:
        cpu = _resolve_cpu(args)
        if cpu is None:
            return 2
    config = RunConfig(
        threads=args.threads,
        precision=args.precision,
        placement=args.placement,
        vectorize=not args.no_vectorize,
        compiler=args.compiler,
        rollback=args.rollback,
    )
    with _telemetry_scope(args), _chaos_context(args):
        result = run_suite(
            cpu, config,
            policy=_failure_policy(args),
            retry=_retry_spec(args),
        )
    rows = [
        (
            run.kernel_name,
            run.klass.value,
            format_seconds(run.seconds),
            run.prediction.serving_level,
            run.prediction.bound,
            "vector" if run.prediction.vector_executed else "scalar",
        )
        for run in result.runs.values()
    ]
    print(
        render_table(
            ("kernel", "class", "time", "served by", "bound", "path"),
            rows,
            title=f"{cpu.name}: {config.threads} thread(s), "
            f"{config.precision.label}, {config.placement.value}",
        )
    )
    if result.failures:
        print()
        print(failure_summary(result))
    if result.telemetry is not None:
        print()
        print(result.telemetry.render())
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    if args.name == "all":
        names = list(EXPERIMENTS)  # the paper's tables and figures
    elif args.name == "ablations":
        names = [n for n in ALL_EXPERIMENTS if n.startswith("ablation")]
    else:
        names = [args.name]
    for name in names:
        if name not in ALL_EXPERIMENTS:
            print(f"unknown experiment {name!r}; known: "
                  f"{sorted(ALL_EXPERIMENTS)}, 'all' or 'ablations'",
                  file=sys.stderr)
            return 2
    with _telemetry_scope(args):
        for name in names:
            print(ALL_EXPERIMENTS[name](fast=args.fast).render(
                chart=args.chart))
            print()
    return 0


def _cmd_measure(args: argparse.Namespace) -> int:
    from repro.kernels.base import KernelClass
    from repro.kernels.registry import kernels_in_class
    from repro.machine.vector import DType
    from repro.suite.measured import measure_suite, render_measurements

    if args.kernel_class == "all":
        kernels = all_kernels()
    else:
        kernels = kernels_in_class(KernelClass.from_label(args.kernel_class))
    precision = DType.from_label(args.precision)
    with _telemetry_scope(args):
        measurements = measure_suite(kernels, n=args.size,
                                     precision=precision)
    print(render_measurements(measurements))
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.suite.explain import explain_kernel

    cpu = _resolve_cpu(args)
    if cpu is None:
        return 2
    with _telemetry_scope(args) as recorder:
        print(explain_kernel(args.kernel, cpu))
        if recorder is not None:
            from repro import telemetry

            summary = telemetry.TelemetrySummary.capture(
                recorder, telemetry.metrics()
            )
            print(f"\n{summary.render()}")
    return 0


#: Stack frames shown by ``repro sweep --profile``.
PROFILE_TOP_N = 25


def _emit_profile(profiler, out_path: str | None) -> None:
    """Render a finished cProfile run: top cumulative lines to stderr,
    or the full report to ``out_path`` when given."""
    import io
    import pstats

    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("cumulative")
    if out_path is not None:
        stats.print_stats()
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(buffer.getvalue())
        print(f"profile written to {out_path}", file=sys.stderr)
    else:
        stats.print_stats(PROFILE_TOP_N)
        sys.stderr.write(buffer.getvalue())


def _cmd_sweep(args: argparse.Namespace) -> int:
    import time

    from repro.suite.sweep import sweep

    cpu = _resolve_cpu(args)
    if cpu is None:
        return 2
    kernels, threads, placements, precisions = _parse_grid(args)
    caches, store = _sweep_caches(args)
    profiler = None
    if getattr(args, "profile_out", None) and not getattr(
        args, "profile", False
    ):
        print("note: --profile-out given without --profile; "
              "--profile is implied and profiling is enabled",
              file=sys.stderr)
    if getattr(args, "profile", False) or getattr(args, "profile_out",
                                                  None):
        import cProfile

        profiler = cProfile.Profile()
    with (_default_store_scope(store), _telemetry_scope(args),
          _chaos_context(args)):
        if profiler is not None:
            profiler.enable()
        started = time.perf_counter()
        try:
            result = sweep(
                cpu, kernels, threads, placements, precisions,
                policy=_failure_policy(args),
                retry=_retry_spec(args),
                checkpoint=args.checkpoint,
                caches=caches,
            )
        finally:
            elapsed = time.perf_counter() - started
            if profiler is not None:
                profiler.disable()
                _emit_profile(profiler, args.profile_out)
    if args.stats_out:
        _write_sweep_stats(args.stats_out, result, elapsed, store)
    if args.csv:
        print(result.to_csv())
    else:
        rows = [
            (kernel, row.threads, row.placement.value,
             row.precision.label, format_seconds(seconds))
            for row in result.rows
            for kernel, seconds in zip(row.kernels, row.seconds)
        ]
        print(render_table(
            ("kernel", "threads", "placement", "precision", "time"),
            rows, title=f"{cpu.name} sweep",
        ))
        if result.rows:
            best_t, best_pl, best_pr = result.best_overall()
            print(f"\nbest overall: {best_t} threads, {best_pl.value}, "
                  f"{best_pr.label}")
    if result.failures:
        if args.csv:
            # stdout stays one CSV.
            print(result.failure_summary(), file=sys.stderr)
        else:
            print()
            print(result.failure_summary())
    if not args.csv and result.telemetry is not None:
        print()
        print(result.telemetry.render())
    return 0


def _write_sweep_stats(path: str, result, elapsed: float,
                       store) -> None:
    """Machine-readable sweep stats for cross-process comparisons.

    The in-process wall time matters here: a subprocess's total runtime
    is dominated by interpreter + NumPy import, which would drown the
    store's effect; ``seconds`` times only the sweep call.
    """
    import json
    from dataclasses import asdict

    payload = {
        "seconds": elapsed,
        "points": result.point_count,
        "failures": len(result.failures),
        "store": (
            {
                namespace: asdict(stats)
                for namespace, stats in store.stats().items()
            }
            if store is not None else None
        ),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"sweep stats written to {path}", file=sys.stderr)


def _cmd_trace(args: argparse.Namespace) -> int:
    """Run a sweep or an experiment under telemetry and export the
    trace — observability-first front of ``sweep``/``experiment``."""
    from repro import telemetry
    from repro.telemetry.export import write_metrics, write_trace

    with telemetry.telemetry_session() as (recorder, registry):
        if args.target == "sweep":
            from repro.suite.sweep import sweep

            cpu = _resolve_cpu(args)
            if cpu is None:
                return 2
            result = sweep(cpu, *_parse_grid(args))
            summary = result.telemetry
        elif args.target in ALL_EXPERIMENTS:
            ALL_EXPERIMENTS[args.target](fast=args.fast)
            summary = telemetry.TelemetrySummary.capture(recorder,
                                                         registry)
        else:
            print(f"unknown trace target {args.target!r}; expected "
                  f"'sweep' or one of {sorted(ALL_EXPERIMENTS)}",
                  file=sys.stderr)
            return 2
        write_trace(args.trace_out, recorder.records(),
                    registry.snapshot())
        print(f"trace written to {args.trace_out}", file=sys.stderr)
        if args.metrics_out:
            write_metrics(args.metrics_out, registry.snapshot())
            print(f"metrics written to {args.metrics_out}",
                  file=sys.stderr)
    print(summary.render())
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis.bottleneck import render_bottleneck_report
    from repro.analysis.roofline import render_roofline_report
    from repro.machine.vector import DType

    cpu = _resolve_cpu(args)
    if cpu is None:
        return 2
    precision = DType.from_label(args.precision)
    kernels = all_kernels()
    if args.mode == "roofline":
        print(render_roofline_report(cpu, kernels, precision,
                                     args.threads))
    elif args.mode == "sensitivity":
        from repro.analysis.sensitivity import render_sensitivities

        config = RunConfig(threads=args.threads, precision=precision,
                           placement=args.placement, runs=1,
                           noise_sigma=0.0)
        print(render_sensitivities(cpu, config))
    else:
        config = RunConfig(threads=args.threads, precision=precision,
                           placement=args.placement)
        print(render_bottleneck_report(cpu, config, kernels))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    import json

    from repro.analyze.driver import lint_assembly_file, run_lint
    from repro.analyze.report import LintReport, Severity
    from repro.isa.rvv import RVV_0_7_1, RVV_1_0

    min_severity = Severity.from_label(args.min_severity)
    if args.asm_file:
        dialect = RVV_0_7_1 if args.dialect == "0.7.1" else RVV_1_0
        findings, count = lint_assembly_file(args.asm_file, dialect)
        report = LintReport(findings=findings, programs_checked=count)
    else:
        names = args.kernels.split(",") if args.kernels else None
        report = run_lint(
            kernels=True,
            asm=not args.no_asm,
            names=names,
            transval=args.transval,
            demo_miscompile=args.demo_miscompile,
            registry=args.registry,
            registry_paths=_registry_paths(args),
        )
    if args.format == "json":
        print(json.dumps(report.to_json(min_severity=min_severity),
                         indent=2))
    else:
        print(report.render(min_severity=min_severity))
    return report.exit_code


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.resilience import load_fault_plan
    from repro.serve import ServeConfig, serve_forever

    plan = load_fault_plan(args.fault_plan) if args.fault_plan else None
    config = ServeConfig(
        host=args.host,
        port=args.port,
        max_inflight=args.max_inflight,
        default_deadline_ms=args.deadline_ms,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown_s=args.breaker_cooldown,
        on_failure=args.on_failure,
        retries=args.retries,
        engine_workers=args.engine_workers,
        drain_timeout_s=args.drain_timeout,
        fault_plan=plan,
        respcache_entries=args.respcache_entries,
        respcache_bytes=int(args.respcache_mb * (1 << 20)),
        registry_paths=_registry_paths(args),
    )
    return asyncio.run(serve_forever(config))


def _cmd_registry(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.registry import KINDS, load_file, validate_document

    registry = _registry(args)
    if args.registry_command == "list":
        kinds = [args.kind] if args.kind else list(KINDS)
        for kind in kinds:
            names = registry.names(kind)
            print(f"{kind} ({len(names)}):")
            for name in names:
                print(f"  {name}")
        return 0
    if args.registry_command == "show":
        rdoc = registry.document(args.kind, args.name)
        print(json.dumps(
            {"schema": rdoc.schema, "name": rdoc.name, "doc": rdoc.doc},
            indent=2,
        ))
        return 0
    if args.registry_command == "validate":
        checked = registry.validate_all()
        roots = ", ".join(str(r) for r in registry.roots)
        print(f"{checked} document(s) valid across {roots}")
        return 0
    # add: validate a document file, then install it under a user root
    rdoc = load_file(Path(args.file), kind=args.kind)
    validate_document(rdoc)
    dest = Path(args.dest) / rdoc.kind / f"{rdoc.name}.json"
    dest.parent.mkdir(parents=True, exist_ok=True)
    dest.write_text(
        json.dumps(
            {"schema": rdoc.schema, "name": rdoc.name, "doc": rdoc.doc},
            indent=2,
        ) + "\n",
        encoding="utf-8",
    )
    print(f"added {rdoc.kind}/{rdoc.name} -> {dest}")
    print(f"use it with --registry-path {args.dest}")
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    from repro.store import ArtifactStore
    from repro.store.prune import prune_store

    store = ArtifactStore(args.store)
    namespaces = None
    if args.namespaces:
        namespaces = tuple(
            ns.strip() for ns in args.namespaces.split(",")
            if ns.strip()
        )
    max_bytes = (
        int(args.max_mb * (1 << 20)) if args.max_mb is not None else None
    )
    max_age_s = (
        args.max_age_days * 86400.0
        if args.max_age_days is not None else None
    )
    report = prune_store(
        store,
        max_bytes=max_bytes,
        max_age_s=max_age_s,
        namespaces=namespaces,
        dry_run=args.dry_run,
    )
    print(report.render())
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.machine.vector import DType

    failures = 0
    for kernel in all_kernels():
        try:
            checksum = verify_kernel(kernel, args.size, DType.FP64)
            print(f"  {kernel.name:24s} ok (checksum {checksum:.6g})")
        except Exception as exc:  # pragma: no cover - surfaced to user
            failures += 1
            print(f"  {kernel.name:24s} FAILED: {exc}")
    print(f"{64 - failures}/64 kernels verified")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sg2042-repro",
        description="Reproduction of the SC-W 2023 Sophon SG2042 "
        "benchmarking study",
    )
    parser.add_argument(
        "--debug", action="store_true",
        help="re-raise package errors with a full traceback instead of "
        "the one-line message",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list",
                            help="list machines, kernels, experiments")
    _add_registry_flag(p_list)

    p_desc = sub.add_parser("describe", help="describe a machine model")
    p_desc.add_argument("cpu")
    _add_registry_flag(p_desc)

    p_run = sub.add_parser("run", help="run the suite on one machine")
    p_run.add_argument("--cpu", default="sg2042")
    p_run.add_argument("--machine-file", default=None,
                       help="load a custom machine JSON instead of --cpu")
    p_run.add_argument("--threads", type=int, default=1)
    p_run.add_argument("--precision", default="fp64",
                       choices=["fp32", "fp64"])
    p_run.add_argument("--placement", default="block",
                       choices=["block", "cyclic", "cluster"])
    p_run.add_argument("--no-vectorize", action="store_true")
    p_run.add_argument("--compiler", default=None)
    p_run.add_argument("--rollback", action="store_true",
                       help="apply the RVV-rollback tool (Clang on C920)")
    _add_registry_flag(p_run)
    _add_resilience_flags(p_run)
    _add_telemetry_flags(p_run)

    p_exp = sub.add_parser("experiment", help="reproduce a table/figure")
    p_exp.add_argument(
        "name",
        help="experiment id, 'all' (paper tables/figures) or "
        "'ablations' (model-mechanism ablations)",
    )
    p_exp.add_argument("--fast", action="store_true",
                       help="reduced sweeps for quick checks")
    p_exp.add_argument("--chart", action="store_true",
                       help="append an ASCII bar chart (figures only)")
    _add_telemetry_flags(p_exp)

    p_ver = sub.add_parser("verify",
                           help="numerically execute every kernel")
    p_ver.add_argument("--size", type=int, default=10_000)

    p_lint = sub.add_parser(
        "lint",
        help="statically analyze kernel IRs and generated assembly "
        "(exit 0 clean, 3 on error findings)",
    )
    p_lint.add_argument(
        "--all", action="store_true",
        help="lint every kernel IR and every codegen output (default)",
    )
    p_lint.add_argument(
        "--kernels", default=None, metavar="A,B,...",
        help="restrict the race/traits cross-check to these kernels",
    )
    p_lint.add_argument(
        "--no-asm", action="store_true",
        help="skip the generated-assembly sweep",
    )
    p_lint.add_argument(
        "--asm-file", default=None, metavar="FILE.s",
        help="verify one assembly file instead of the model sweeps",
    )
    p_lint.add_argument(
        "--dialect", default="1.0", choices=["0.7.1", "1.0"],
        help="dialect an --asm-file claims to target",
    )
    p_lint.add_argument(
        "--min-severity", default="info",
        choices=["info", "warning", "error"],
        help="hide findings below this severity (exit code is "
        "unaffected)",
    )
    p_lint.add_argument(
        "--transval", action="store_true",
        help="translation-validate every v1.0->v0.7.1 rollback pair "
        "(spec shapes and the BLAS microkernel family) by symbolic "
        "lockstep execution",
    )
    p_lint.add_argument(
        "--demo-miscompile", action="store_true",
        help="run the transval sweep against a hypothetical "
        "tail-agnostic v0.7.1 machine: reduction microkernels provably "
        "miscompile (classified tail-policy ERROR, exit 3)",
    )
    p_lint.add_argument(
        "--registry", action="store_true",
        help="additionally sweep every registry document: schema + "
        "semantic validation, machine digests, and a cross-check of "
        "the compiler decision tables against the run-config defaults "
        "(inconsistencies are ERROR findings, exit 3)",
    )
    _add_registry_flag(p_lint)
    p_lint.add_argument(
        "--format", default="text", choices=["text", "json"],
        help="report format; json is the stable machine-readable "
        "schema the CI artifact uses",
    )

    p_explain = sub.add_parser(
        "explain", help="everything the models know about one kernel"
    )
    p_explain.add_argument("kernel")
    p_explain.add_argument("--cpu", default="sg2042")
    _add_registry_flag(p_explain)
    _add_telemetry_flags(p_explain)

    p_sweep = sub.add_parser(
        "sweep", help="sweep a configuration grid over selected kernels"
    )
    _add_grid_flags(p_sweep)
    p_sweep.add_argument("--csv", action="store_true")
    p_sweep.add_argument(
        "--checkpoint", default=None, metavar="FILE.jsonl",
        help="persist completed points here and resume from them",
    )
    p_sweep.add_argument(
        "--profile", action="store_true",
        help="run the sweep under cProfile and print the top "
        "cumulative-time functions to stderr",
    )
    p_sweep.add_argument(
        "--profile-out", default=None, metavar="FILE",
        help="write the full pstats text report to FILE instead of "
        "stderr (implies --profile)",
    )
    p_sweep.add_argument(
        "--store", default=None, metavar="DIR",
        help="persistent artifact store: compile reports and lowered "
        "kernels are read from and written to DIR, so a second process "
        "skips compiling and lowering",
    )
    p_sweep.add_argument(
        "--stats-out", default=None, metavar="FILE",
        help="write in-process sweep seconds + store counters as JSON "
        "to FILE (for cross-process benchmark comparisons)",
    )
    _add_registry_flag(p_sweep)
    _add_resilience_flags(p_sweep)
    _add_telemetry_flags(p_sweep)

    p_trace = sub.add_parser(
        "trace",
        help="run a sweep or experiment under telemetry and export "
        "the span trace",
    )
    p_trace.add_argument(
        "target",
        help="'sweep' (grid flags below) or an experiment name",
    )
    _add_grid_flags(p_trace)
    p_trace.add_argument("--fast", action="store_true",
                         help="reduced sweeps (experiment targets)")
    p_trace.add_argument(
        "--trace-out", default="trace.json", metavar="FILE",
        help="span trace output — Chrome trace-event JSON, or JSONL "
        "when FILE ends in .jsonl (default: trace.json)",
    )
    p_trace.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="also write the flat metrics dump to FILE",
    )
    _add_registry_flag(p_trace)

    p_serve = sub.add_parser(
        "serve",
        help="run the fault-tolerant prediction service (HTTP/JSON): "
        "/predict, /sweep, /explain, /machines, /healthz, /readyz, "
        "/metrics",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8642,
                         help="TCP port (0 picks a free one)")
    p_serve.add_argument(
        "--max-inflight", type=int, default=64,
        help="admission limit; beyond it requests are shed with a "
        "structured 429 and Retry-After",
    )
    p_serve.add_argument(
        "--deadline-ms", type=float, default=2000.0,
        help="default per-request deadline when the client sends none",
    )
    p_serve.add_argument(
        "--breaker-threshold", type=int, default=5,
        help="consecutive engine faults that open the circuit breaker",
    )
    p_serve.add_argument(
        "--breaker-cooldown", type=float, default=1.0, metavar="S",
        help="seconds the breaker stays open before probing half-open",
    )
    p_serve.add_argument(
        "--on-failure", default="retry", choices=["abort", "skip",
                                                  "retry"],
        help="engine failure policy of /predict and /sweep calls",
    )
    p_serve.add_argument(
        "--retries", type=int, default=2,
        help="retry budget per kernel for --on-failure retry",
    )
    p_serve.add_argument(
        "--engine-workers", type=int, default=2,
        help="engine thread pool size (forced to 1 under --fault-plan)",
    )
    p_serve.add_argument(
        "--drain-timeout", type=float, default=10.0, metavar="S",
        help="seconds to wait for in-flight requests on shutdown",
    )
    p_serve.add_argument(
        "--fault-plan", default=None, metavar="PLAN.json",
        help="mount this seeded chaos plan inside the server "
        "(resilience drills)",
    )
    p_serve.add_argument(
        "--respcache-entries", type=int, default=2048, metavar="N",
        help="response-cache entry cap (0 disables the response "
        "cache entirely)",
    )
    p_serve.add_argument(
        "--respcache-mb", type=float, default=64.0, metavar="MB",
        help="response-cache body-byte budget in megabytes",
    )
    _add_registry_flag(p_serve)

    p_reg = sub.add_parser(
        "registry",
        help="inspect, validate and extend the document registry "
        "(machines, kernels, compilers, faults, placements)",
    )
    reg_sub = p_reg.add_subparsers(dest="registry_command",
                                   required=True)
    p_reg_list = reg_sub.add_parser(
        "list", help="list registered documents by kind")
    p_reg_list.add_argument(
        "--kind", default=None,
        choices=["machines", "kernels", "compilers", "faults",
                 "placements"],
        help="restrict the listing to one kind (default: all kinds)",
    )
    _add_registry_flag(p_reg_list)
    p_reg_show = reg_sub.add_parser(
        "show", help="print one document's JSON envelope")
    p_reg_show.add_argument("kind",
                            choices=["machines", "kernels", "compilers",
                                     "faults", "placements"])
    p_reg_show.add_argument("name")
    _add_registry_flag(p_reg_show)
    p_reg_val = reg_sub.add_parser(
        "validate",
        help="semantically validate every registered document "
        "(exit 2 on the first inconsistency)",
    )
    _add_registry_flag(p_reg_val)
    p_reg_add = reg_sub.add_parser(
        "add",
        help="validate a document file and install it under a user "
        "registry root (usable via --registry-path)",
    )
    p_reg_add.add_argument("file", help="document file (JSON or TOML)")
    p_reg_add.add_argument(
        "--dest", required=True, metavar="DIR",
        help="user registry root to install into (created if missing)",
    )
    p_reg_add.add_argument(
        "--kind", default=None,
        choices=["machines", "kernels", "compilers", "faults",
                 "placements"],
        help="kind the document must declare (default: from its "
        "schema field)",
    )
    _add_registry_flag(p_reg_add)

    p_store = sub.add_parser(
        "store",
        help="manage a persistent artifact store",
    )
    store_sub = p_store.add_subparsers(dest="store_command",
                                       required=True)
    p_prune = store_sub.add_parser(
        "prune",
        help="size-cap + age-based garbage collection for a store "
        "directory; deleted artifacts recompute on demand",
    )
    p_prune.add_argument(
        "--store", required=True, metavar="DIR",
        help="artifact store directory to prune",
    )
    p_prune.add_argument(
        "--max-mb", type=float, default=None, metavar="MB",
        help="keep the store under this many megabytes (oldest "
        "artifacts deleted first, across namespaces)",
    )
    p_prune.add_argument(
        "--max-age-days", type=float, default=None, metavar="DAYS",
        help="delete artifacts older than this many days",
    )
    p_prune.add_argument(
        "--namespaces", default=None, metavar="NS[,NS...]",
        help="restrict the prune to these namespaces "
        "(default: all known namespaces)",
    )
    p_prune.add_argument(
        "--dry-run", action="store_true",
        help="report what would be deleted without deleting anything",
    )

    p_an = sub.add_parser(
        "analyze",
        help="roofline or bottleneck analysis of a machine",
    )
    p_an.add_argument("mode",
                      choices=["roofline", "bottleneck", "sensitivity"])
    p_an.add_argument("--cpu", default="sg2042")
    p_an.add_argument("--threads", type=int, default=1)
    p_an.add_argument("--precision", default="fp64",
                      choices=["fp32", "fp64"])
    p_an.add_argument("--placement", default="cluster",
                      choices=["block", "cyclic", "cluster"])
    _add_registry_flag(p_an)

    p_meas = sub.add_parser(
        "measure",
        help="time the NumPy kernel implementations on this host",
    )
    p_meas.add_argument("--kernel-class", default="stream",
                        choices=["all", "algorithm", "apps", "basic",
                                 "lcals", "polybench", "stream"])
    p_meas.add_argument("--size", type=int, default=100_000)
    p_meas.add_argument("--precision", default="fp64",
                        choices=["fp32", "fp64"])
    _add_telemetry_flags(p_meas)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "list": _cmd_list,
        "describe": _cmd_describe,
        "run": _cmd_run,
        "experiment": _cmd_experiment,
        "verify": _cmd_verify,
        "lint": _cmd_lint,
        "measure": _cmd_measure,
        "analyze": _cmd_analyze,
        "sweep": _cmd_sweep,
        "explain": _cmd_explain,
        "trace": _cmd_trace,
        "serve": _cmd_serve,
        "store": _cmd_store,
        "registry": _cmd_registry,
    }
    try:
        code = handlers[args.command](args)
        sys.stdout.flush()
        return code
    except ReproError as exc:
        if args.debug:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed stdout early (``repro sweep ... | head``).
        # Python flushes stdout again at exit, so point it at os.devnull
        # first; exit 1, as Python does on EPIPE.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
