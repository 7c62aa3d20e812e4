"""Per-kernel deep dive: everything the models know about one kernel.

Backs the ``sg2042-repro explain`` command: traits, IR-derived features,
per-compiler vectorization verdicts, the roofline placement, and
predicted times across the key configurations — the full story the
paper's figures summarize statistically, one kernel at a time.
"""

from __future__ import annotations

from repro.analysis.roofline import classify_kernels
from repro.compiler.analysis import DECISIVE_FEATURES, derive_features
from repro.compiler.model import CLANG_16, VectorFlavor, XUANTIE_GCC_8_4
from repro.compiler.vectorizer import analyze
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

    lines += ["", "compilation on the C920 (RVV v0.7.1):"]
    for label, compiler, rollback in (
        ("XuanTie GCC 8.4", XUANTIE_GCC_8_4, False),
        ("Clang 16 (+rollback)", CLANG_16, True),
    ):
        try:
            verdict = analyze(
                compiler, kernel, cpu.core.isa, flavor=VectorFlavor.VLS,
                rollback=rollback,
            ).reason
        except ReproError as exc:
            # A compiler that cannot target this machine (GCC 8.4 emits
            # RVV v0.7.1 only) is an explicit gap, like a failed
            # prediction below.
            verdict = f"compilation failed ({type(exc).__name__}: {exc})"
        lines.append(f"  {label}: {verdict}")

    (point,) = classify_kernels(cpu, [kernel], DType.FP64)
    lines += [
        "",
        f"roofline ({cpu.name}, 1 thread, FP64): {point.bound}-bound at "
        f"{point.intensity:.3f} flops/byte, attainable "
        f"{point.attainable_flops / 1e9:.2f} GFLOP/s",
    ]

    # Predicted with the machine's default compiler, as run_suite
    # compiles under a default RunConfig.
    config = RunConfig()
    lines += ["", f"predicted times on {cpu.name}:"]
    for threads, placement, precision in (
        (1, PlacementPolicy.BLOCK, DType.FP64),
        (1, PlacementPolicy.BLOCK, DType.FP32),
        (32, PlacementPolicy.CLUSTER, DType.FP32),
        (cpu.num_cores, PlacementPolicy.CLUSTER, DType.FP32),
    ):
        try:
            report = analyze(
                config.resolve_compiler(cpu), kernel, cpu.core.isa,
                flavor=config.flavor, rollback=config.rollback,
            )
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
