"""Per-kernel deep dive: everything the models know about one kernel.

Backs the ``sg2042-repro explain`` command: traits, IR-derived features,
per-compiler vectorization verdicts, the roofline placement, and
predicted times across the key configurations — the full story the
paper's figures summarize statistically, one kernel at a time.
"""

from __future__ import annotations

from repro.analysis.roofline import classify_kernels
from repro.compiler.analysis import DECISIVE_FEATURES, derive_features
from repro.compiler.model import CLANG_16
from repro.compiler.vectorizer import VectorizationReport, analyze
from repro.kernels.ir_defs import ir_for
from repro.kernels.registry import get_kernel
from repro.machine.cpu import CPUModel
from repro.machine.vector import DType
from repro.openmp.affinity import PlacementPolicy, assign_cores
from repro.perfmodel.execution import simulate_kernel
from repro.suite.config import RunConfig
from repro.util.errors import ReproError
from repro.util.units import format_bytes, format_seconds


def explain_kernel(kernel_name: str, cpu: CPUModel) -> str:
    """Render the full model view of one kernel on one machine.

    The text depends only on the kernel and the machine, never on a
    telemetry session: ``explain --telemetry`` prints its digest after
    it, and serve's ``/explain`` bodies carry none."""
    kernel = get_kernel(kernel_name)
    traits = kernel.traits
    lines = [
        f"{kernel.name} ({kernel.klass.value} class)",
        "=" * (len(kernel.name) + len(kernel.klass.value) + 9),
        "",
        "characterization:",
        f"  flops/iter: {traits.flops_per_iter}, "
        f"reads/iter: {traits.reads_per_iter}, "
        f"writes/iter: {traits.writes_per_iter}",
        f"  default size: {kernel.default_size:,} "
        f"(footprint {format_bytes(int(kernel.footprint_bytes(kernel.default_size, DType.FP64)))} "
        "at FP64)",
        f"  parallel fraction: {traits.parallel_fraction}, "
        f"parallel regions/rep: {traits.regions_per_rep}",
        f"  arithmetic intensity: "
        f"{traits.arithmetic_intensity(DType.FP64):.3f} flops/byte (FP64)",
    ]

    derived = derive_features(ir_for(kernel.name))
    lines += [
        "",
        "loop features (derived from IR):",
        "  " + (", ".join(
            sorted(f.value for f in derived & DECISIVE_FEATURES)
        ) or "(none decisive)"),
    ]

    # The machine's default compiler, which the predicted times below
    # use (run_suite compiles under a default RunConfig); on an RVV
    # v0.7.1 core also the paper's comparison, Clang's RVV v1.0 output
    # rolled back.
    config = RunConfig()
    compiler = config.resolve_compiler(cpu)
    isa = cpu.core.isa
    verdicts = [(compiler.name, compiler, config.rollback)]
    if isa.version == "0.7.1":
        verdicts.append(("Clang 16 (+rollback)", CLANG_16, True))
    lines += ["", f"compilation on the {cpu.core.name} ({isa.name}):"]
    outcomes: list[VectorizationReport | ReproError] = []
    for label, candidate, rollback in verdicts:
        try:
            outcomes.append(analyze(
                candidate, kernel, isa, flavor=config.flavor,
                rollback=rollback,
            ))
            verdict = outcomes[-1].reason
        except ReproError as exc:
            # A compiler that cannot target this machine is an explicit
            # gap, like a failed prediction below.
            outcomes.append(exc)
            verdict = f"compilation failed ({type(exc).__name__}: {exc})"
        lines.append(f"  {label}: {verdict}")
    # The predictions below take the default compiler's report.
    report = outcomes[0]

    (point,) = classify_kernels(cpu, [kernel], DType.FP64)
    lines += [
        "",
        f"roofline ({cpu.name}, 1 thread, FP64): {point.bound}-bound at "
        f"{point.intensity:.3f} flops/byte, attainable "
        f"{point.attainable_flops / 1e9:.2f} GFLOP/s",
    ]

    lines += ["", f"predicted times on {cpu.name}:"]
    for threads, placement, precision in (
        (1, PlacementPolicy.BLOCK, DType.FP64),
        (1, PlacementPolicy.BLOCK, DType.FP32),
        (32, PlacementPolicy.CLUSTER, DType.FP32),
        (cpu.num_cores, PlacementPolicy.CLUSTER, DType.FP32),
    ):
        try:
            if isinstance(report, ReproError):
                raise report
            cores = assign_cores(cpu.topology, threads, placement)
            result = simulate_kernel(
                kernel, cpu, cores, precision, report
            )
        except ReproError as exc:
            # Degrade to an explicit gap: one failed configuration must
            # not take down the rest of the explanation.
            lines.append(
                f"  {threads:>3} thread(s) {placement.value:<8} "
                f"{precision.label}: prediction failed "
                f"({type(exc).__name__}: {exc})"
            )
            continue
        lines.append(
            f"  {threads:>3} thread(s) {placement.value:<8} "
            f"{precision.label}: {format_seconds(result.seconds):>12} "
            f"({result.bound}-bound, served by {result.serving_level}, "
            f"{'vector' if result.vector_executed else 'scalar'} path)"
        )
    return "\n".join(lines)
