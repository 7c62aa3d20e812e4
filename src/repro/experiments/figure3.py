"""Figure 3: Clang VLA and VLS single-core comparison against GCC for
the Polybench kernels in FP32 on the C920.

This experiment exercises the full paper pipeline: Clang can only emit
RVV v1.0 assembly, so the RVV-rollback tool rewrites it to v0.7.1 before
it can "run" on the C920 — the experiment actually pushes generated
assembly through :func:`repro.isa.rollback.rollback` to prove the path
works, then compares the modelled runtimes against the XuanTie GCC
baseline.
"""

from __future__ import annotations

from repro.compiler.model import VectorFlavor
from repro.experiments.common import ExperimentResult, fast_config
from repro.isa.codegen import LoopSpec, generate_loop
from repro.isa.encoding import render_assembly
from repro.isa.rollback import rollback
from repro.kernels.base import KernelClass
from repro.kernels.registry import kernels_in_class
from repro.machine import catalog
from repro.machine.vector import DType
from repro.suite.config import Precision, RunConfig
from repro.suite.report import kernel_relative
from repro.suite.runner import SuiteRequest, run_suites


def _prove_rollback_path(flavor: VectorFlavor) -> int:
    """Generate a representative Clang RVV v1.0 loop, roll it back to
    v0.7.1 and return the rewritten instruction count (sanity: > 0).

    Raises if the rollback pipeline is broken — making the experiment
    fail loudly rather than silently reporting modelled numbers for an
    impossible compilation path.
    """
    spec = LoopSpec(
        dtype=DType.FP32, num_inputs=2, ops=("vfmacc.vv",), has_store=True
    )
    v10 = generate_loop(spec, flavor, rvv_version="1.0")
    rewritten = rollback(render_assembly(v10))
    return len(rewritten.splitlines())


def run(fast: bool = False) -> ExperimentResult:
    sg = catalog.sg2042()
    polybench = kernels_in_class(KernelClass.POLYBENCH)

    # Prove the Clang -> rollback -> C920 path actually translates.
    vls_insns = _prove_rollback_path(VectorFlavor.VLS)
    vla_insns = _prove_rollback_path(VectorFlavor.VLA)

    def fp32(**options) -> SuiteRequest:
        return SuiteRequest(
            sg,
            fast_config(
                RunConfig(threads=1, precision=Precision.FP32, **options),
                fast,
            ),
            polybench,
        )

    gcc, vls, vla = run_suites([
        fp32(),
        *(
            fp32(compiler="clang-16", flavor=flavor, rollback=True)
            for flavor in (VectorFlavor.VLS, VectorFlavor.VLA)
        ),
    ])

    rel_vls = kernel_relative(gcc, vls)
    rel_vla = kernel_relative(gcc, vla)

    rows = tuple(
        (
            kernel.name,
            f"{rel_vla[kernel.name]:+.2f}",
            f"{rel_vls[kernel.name]:+.2f}",
        )
        for kernel in polybench
    )
    return ExperimentResult(
        exp_id="figure3",
        title=(
            "Figure 3: Clang VLA and VLS single-core comparison against "
            "GCC, Polybench kernels, FP32 (times faster/slower than GCC)"
        ),
        headers=("kernel", "Clang VLA", "Clang VLS"),
        rows=rows,
        notes=(
            "paper: Clang slower for 2MM/3MM/GEMM (its cost model picks "
            "the scalar path); faster for FLOYD_WARSHALL and HEAT_3D "
            "(GCC cannot vectorize them); JACOBI_2D anomalously slower "
            "with Clang; VLS tends to outperform VLA",
            f"rollback proof: VLS loop -> {vls_insns} v0.7.1 "
            f"instructions, VLA loop -> {vla_insns}",
        ),
    )
