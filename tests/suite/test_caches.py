"""The suite cache layer: compile cache only, predictions recomputed.

:class:`SuiteCaches` carries one compile cache (memory-only, disabled
or store-backed) and :class:`CacheCounters` reports it, as the
``cache_stats`` view and as ``cache.compile.*`` gauges. Predictions are
never cached: running the same suite twice over one caches object
reuses every compile report and computes every prediction again, to the
same bits.
"""

import pytest

from repro import telemetry
from repro.compiler.cache import CompileCache
from repro.kernels.registry import all_kernels
from repro.store import ArtifactStore
from repro.suite.config import RunConfig
from repro.suite.memo import CacheCounters, SuiteCaches
from repro.suite.runner import run_suite
from repro.telemetry.metrics import MetricsRegistry

KERNELS = tuple(all_kernels()[:4])


class TestCacheCounters:
    def test_publish_sets_one_compile_gauge_per_counter(self):
        counters = CacheCounters(
            compile_hits=5, compile_misses=3, compile_entries=3,
            compile_disk_hits=2,
        )
        registry = MetricsRegistry()
        counters.publish(registry)
        assert registry.snapshot().gauges == {
            "cache.compile.hits": 5,
            "cache.compile.misses": 3,
            "cache.compile.entries": 3,
            "cache.compile.disk_hits": 2,
        }

    def test_render_without_disk_hits(self):
        text = CacheCounters(compile_hits=5, compile_misses=3).render()
        assert text == "compile cache: 3 compiled, 5 reused"

    def test_render_with_disk_hits(self):
        text = CacheCounters(
            compile_hits=1, compile_misses=0, compile_disk_hits=4,
        ).render()
        assert text.endswith("; disk: 4 reports restored")


class TestSuiteCaches:
    def test_default_is_a_memory_only_compile_cache(self, sg2042):
        caches = SuiteCaches()
        assert isinstance(caches.compile, CompileCache)
        run_suite(sg2042, RunConfig(threads=4), kernels=KERNELS,
                  caches=caches)
        assert caches.stats().compile_misses == len(KERNELS)
        assert caches.stats().compile_disk_hits == 0
        assert not hasattr(caches, "store")

    def test_disabled_has_no_cache_and_zero_counters(self, sg2042):
        caches = SuiteCaches.disabled()
        run_suite(sg2042, RunConfig(threads=4), kernels=KERNELS,
                  caches=caches)
        assert caches.compile is None
        assert caches.stats() == CacheCounters()

    def test_persistent_writes_compile_reports_to_its_store(self, sg2042,
                                                           tmp_path):
        store = ArtifactStore(tmp_path / "store")
        caches = SuiteCaches.persistent(store)
        run_suite(sg2042, RunConfig(threads=4), kernels=KERNELS,
                  caches=caches)
        assert caches.stats().compile_misses == len(KERNELS)
        # One report per kernel plus the suite's composite.
        assert store.artifact_count("compile") == len(KERNELS) + 1
        assert set(store.stats()) == {"compile"}

    def test_persistent_caches_over_one_store_share_reports(self, sg2042,
                                                            tmp_path):
        store = ArtifactStore(tmp_path / "store")
        config = RunConfig(threads=4)
        first = run_suite(sg2042, config, kernels=KERNELS,
                          caches=SuiteCaches.persistent(store))
        caches = SuiteCaches.persistent(ArtifactStore(store.root))
        second = run_suite(sg2042, config, kernels=KERNELS,
                           caches=caches)
        assert second == first
        stats = caches.stats()
        assert (stats.compile_misses, stats.compile_disk_hits) == (
            0, len(KERNELS)
        )

    def test_stats_mirror_the_compile_cache(self, sg2042):
        caches = SuiteCaches()
        for _ in range(2):
            run_suite(sg2042, RunConfig(threads=4), kernels=KERNELS,
                      caches=caches)
        stats = caches.stats()
        compile_stats = caches.compile.stats
        assert stats == CacheCounters(
            compile_hits=compile_stats.hits,
            compile_misses=compile_stats.misses,
            compile_entries=compile_stats.entries,
            compile_disk_hits=compile_stats.disk_hits,
        )
        assert stats.compile_misses == len(KERNELS)
        assert stats.compile_hits == len(KERNELS)


class TestPredictionsAreRecomputed:
    @pytest.mark.parametrize("engine", ["batch", "scalar"])
    def test_repeat_run_recomputes_bit_identically(self, sg2042, engine):
        caches = SuiteCaches()
        config = RunConfig(threads=8)
        with telemetry.telemetry_session():
            first = run_suite(sg2042, config, kernels=KERNELS,
                              caches=caches, engine=engine)
            second = run_suite(sg2042, config, kernels=KERNELS,
                               caches=caches, engine=engine)
        assert second == first
        # The second run reuses every compile report but predicts
        # every kernel again.
        assert second.cache_stats.compile_hits == len(KERNELS)
        phase = "predict.batch" if engine == "batch" else "predict.scalar"
        for result in (first, second):
            assert phase in result.telemetry.phase_counts
            assert "memo.peek" not in result.telemetry.phase_counts
            assert not [
                name for name in result.telemetry.gauges
                if name.startswith("cache.predict.")
            ]
