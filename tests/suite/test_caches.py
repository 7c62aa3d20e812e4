"""The suite cache layer: compile reports only, predictions recomputed.

:class:`SuiteCaches` carries nothing but the optional ``--store`` tier
of compile reports; without one, reports resolve through the process's
compile table (``analyze_suite``). Predictions are never cached: running the same
suite twice reuses every compile report and computes every prediction
again, to the same bits.
"""

from contextlib import nullcontext

import pytest

from repro import telemetry
from repro.kernels.registry import all_kernels, clear_tables
from repro.perfmodel.placement import reference_mode
from repro.store import ArtifactStore
from repro.suite.config import RunConfig
from repro.suite.memo import SuiteCaches
from repro.suite.runner import run_suite

KERNELS = tuple(all_kernels()[:4])


class TestSuiteCaches:
    def test_default_carries_no_store(self, sg2042, compile_counts):
        config = RunConfig(threads=4)
        assert SuiteCaches().compile is None
        result = run_suite(sg2042, config, kernels=KERNELS,
                           caches=SuiteCaches())
        assert result == run_suite(sg2042, config, kernels=KERNELS)
        assert compile_counts["analyze"] == len(KERNELS)

    def test_persistent_writes_one_suite_artifact(self, sg2042, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        run_suite(sg2042, RunConfig(threads=4), kernels=KERNELS,
                  caches=SuiteCaches.persistent(store))
        assert store.artifact_count("compile") == 1
        assert set(store.stats()) == {"compile"}

    def test_persistent_caches_over_one_store_share_reports(
        self, sg2042, tmp_path, compile_counts
    ):
        store = ArtifactStore(tmp_path / "store")
        config = RunConfig(threads=4)
        first = run_suite(sg2042, config, kernels=KERNELS,
                          caches=SuiteCaches.persistent(store))
        clear_tables()
        second = run_suite(sg2042, config, kernels=KERNELS,
                           caches=SuiteCaches.persistent(
                               ArtifactStore(store.root)))
        assert second == first
        assert compile_counts["analyze"] == len(KERNELS)


class TestPredictionsAreRecomputed:
    @pytest.mark.parametrize("mode", ["batch", "scalar"])
    def test_repeat_run_recomputes_bit_identically(self, sg2042, mode,
                                                   compile_counts):
        config = RunConfig(threads=8)
        path = reference_mode() if mode == "scalar" else nullcontext()
        with telemetry.telemetry_session(), path:
            first = run_suite(sg2042, config, kernels=KERNELS)
            second = run_suite(sg2042, config, kernels=KERNELS)
        assert second == first
        # The second run reuses every compile report but predicts
        # every kernel again.
        assert compile_counts["analyze"] == len(KERNELS)
        assert "compile.analyze" not in second.telemetry.phase_counts
        phase = "predict.batch" if mode == "batch" else "predict.scalar"
        for result in (first, second):
            assert result.telemetry.phase_counts["compile.resolve"] == 1
            assert phase in result.telemetry.phase_counts
            assert "memo.peek" not in result.telemetry.phase_counts
            assert not [
                name for name in result.telemetry.gauges
                if name.startswith("cache.")
            ]
