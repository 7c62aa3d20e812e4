"""Unit tests for the per-kernel explain view."""

import pytest

from repro import telemetry
from repro.suite.explain import explain_kernel
from repro.util.errors import ConfigError


class TestExplainKernel:
    def test_triad_sections(self, sg2042):
        text = explain_kernel("TRIAD", sg2042)
        for section in ("characterization:", "loop features",
                        "compilation on the C920", "roofline",
                        "predicted times"):
            assert section in text

    def test_reports_scalar_fp64_vector_fp32(self, sg2042):
        text = explain_kernel("TRIAD", sg2042)
        assert "fp64" in text and "scalar path" in text
        assert "fp32" in text and "vector path" in text

    def test_gemm_compute_bound(self, sg2042):
        text = explain_kernel("GEMM", sg2042)
        assert "compute-bound" in text

    def test_sort_not_vectorized(self, sg2042):
        text = explain_kernel("SORT", sg2042)
        assert "not vectorized: library_call" in text

    def test_halo_region_count_shown(self, sg2042):
        text = explain_kernel("HALOEXCHANGE", sg2042)
        assert "parallel regions/rep: 36" in text

    def test_unknown_kernel(self, sg2042):
        with pytest.raises(ConfigError):
            explain_kernel("NOPE", sg2042)

    def test_text_ignores_the_telemetry_session(self, sg2042):
        plain = explain_kernel("TRIAD", sg2042)
        with telemetry.telemetry_session():
            traced = explain_kernel("TRIAD", sg2042)
        assert traced == plain
        assert "telemetry:" not in traced


class TestExperimentDeterminism:
    def test_experiments_render_identically_across_runs(self):
        """The whole pipeline is deterministic: two invocations of an
        experiment must render byte-identical output."""
        from repro.experiments import EXPERIMENTS

        for name in ("figure2", "table4"):
            a = EXPERIMENTS[name](fast=True).render()
            b = EXPERIMENTS[name](fast=True).render()
            assert a == b, name

    def test_full_fidelity_matches_noise_seeding(self):
        """Even with noise enabled, seeding makes repeated full runs
        identical."""
        from repro.experiments import EXPERIMENTS

        assert (
            EXPERIMENTS["figure2"]().render()
            == EXPERIMENTS["figure2"]().render()
        )
