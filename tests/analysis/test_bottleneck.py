"""Bottleneck attribution tests."""

import dataclasses

import numpy as np
import pytest

from repro.analysis.bottleneck import (
    attribute_bottlenecks,
    render_bottleneck_report,
)
from repro.kernels.registry import get_kernel
from repro.perfmodel.threading import barrier_seconds
from repro.suite.config import RunConfig
from repro.suite.runner import run_suite
from repro.util.errors import ConfigError, SimulationError


@pytest.fixture(scope="module")
def config32():
    return RunConfig(threads=32, precision="fp32", placement="cluster")


class TestAttribution:
    def test_all_kernels_attributed(self, sg2042, config32, kernels):
        reports = attribute_bottlenecks(sg2042, config32, kernels)
        assert len(reports) == 64
        for r in reports:
            assert 0 <= r.parallel_share <= 1
            assert r.balance > 0

    def test_gemm_pipeline_bound(self, sg2042, config32):
        (report,) = attribute_bottlenecks(
            sg2042, config32, [get_kernel("GEMM")]
        )
        assert report.bound == "pipeline"
        assert report.balance > 1

    def test_triad_cache_bound_at_one_thread(self, sg2042):
        cfg = RunConfig(threads=1, precision="fp32")
        (report,) = attribute_bottlenecks(
            sg2042, cfg, [get_kernel("TRIAD")]
        )
        assert report.bound in ("L2", "L3", "DRAM")
        assert report.balance < 1

    def test_sort_serial_bound_at_scale(self, sg2042):
        cfg = RunConfig(threads=64, precision="fp32")
        (report,) = attribute_bottlenecks(
            sg2042, cfg, [get_kernel("SORT")]
        )
        assert report.bound == "serial"
        assert report.serial_share > 0.5

    def test_haloexchange_overhead_bound_at_scale(self, sg2042):
        cfg = RunConfig(threads=64, precision="fp32")
        (report,) = attribute_bottlenecks(
            sg2042, cfg, [get_kernel("HALOEXCHANGE")]
        )
        assert report.overhead_share > 0.2

    def test_single_thread_has_no_overhead(self, sg2042):
        cfg = RunConfig(threads=1, precision="fp64")
        (report,) = attribute_bottlenecks(
            sg2042, cfg, [get_kernel("DAXPY")]
        )
        assert report.overhead_share == 0.0

    def test_size_scale_is_honoured(self, sg2042):
        """At ``sequel_sockets``' 16x problem sizes TRIAD streams from
        DRAM and HALOEXCHANGE's fork-join share falls to the engine's,
        as ``run_suite`` predicts at that scale."""
        halo, triad = get_kernel("HALOEXCHANGE"), get_kernel("TRIAD")
        base = RunConfig(threads=64, precision="fp32")
        scaled = RunConfig(threads=64, precision="fp32", size_scale=16.0)
        halo1, triad1 = attribute_bottlenecks(sg2042, base, [halo, triad])
        halo16, triad16 = attribute_bottlenecks(
            sg2042, scaled, [halo, triad]
        )
        runs = run_suite(sg2042, scaled, kernels=[halo, triad]).runs
        assert triad1.bound == "L3"
        assert triad16.bound == runs["TRIAD"].prediction.serving_level
        assert triad16.bound == "DRAM"
        overhead = (
            barrier_seconds(sg2042, 64) * halo.traits.regions_per_rep
        )
        assert halo16.overhead_share == pytest.approx(
            overhead / runs["HALOEXCHANGE"].prediction.seconds_per_rep
        )
        assert halo16.overhead_share < 0.5 < halo1.overhead_share

    def test_invalid_cell_names_kernel_and_configuration(
        self, sg2042, config32, monkeypatch
    ):
        import repro.analysis.bottleneck as bottleneck

        predict_grid = bottleneck.predict_grid

        def abstaining(*args):
            grid = predict_grid(*args)
            return dataclasses.replace(
                grid, invalid=np.ones_like(grid.invalid)
            )

        monkeypatch.setattr(bottleneck, "predict_grid", abstaining)
        with pytest.raises(
            SimulationError,
            match=r"^TRIAD: no valid prediction on .+ at 32 thread\(s\), "
                  r"cluster, fp32$",
        ):
            attribute_bottlenecks(sg2042, config32, [get_kernel("TRIAD")])

    def test_empty_kernels_rejected(self, sg2042, config32):
        with pytest.raises(ConfigError):
            attribute_bottlenecks(sg2042, config32, [])


class TestReport:
    def test_render(self, sg2042, config32):
        text = render_bottleneck_report(
            sg2042, config32,
            [get_kernel("TRIAD"), get_kernel("GEMM"),
             get_kernel("SORT")],
        )
        assert "bottleneck attribution" in text
        assert "GEMM" in text
