"""Response cache unit behaviour: keys, LRU, pre-serialization."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.machine import catalog
from repro.serve import http
from repro.serve.respcache import (
    CachedResponse,
    ResponseCache,
    config_digest,
    explain_key,
    predict_key,
    sweep_key,
)
from repro.suite.config import Placement, Precision, RunConfig
from repro.util.errors import ConfigError

_SRC = str(Path(__file__).resolve().parents[2] / "src")

_KEY_SCRIPT = (
    "from repro.machine import catalog;"
    "from repro.serve.respcache import predict_key;"
    "from repro.suite.config import RunConfig;"
    "cfg = RunConfig(threads=8, precision='fp32', placement='cyclic',"
    "                runs=1, noise_sigma=0.0);"
    "print(predict_key(catalog.sg2042(), cfg, 'TRIAD'))"
)


def _serving_config(**overrides):
    base = dict(runs=1, noise_sigma=0.0)
    base.update(overrides)
    return RunConfig(**base)


class TestKeys:
    def test_config_digest_is_content_addressed(self):
        assert config_digest(_serving_config()) == config_digest(
            _serving_config()
        )
        assert config_digest(_serving_config()) != config_digest(
            _serving_config(threads=2)
        )
        assert config_digest(_serving_config()) != config_digest(
            _serving_config(flavor="vla")
        )
        assert config_digest(_serving_config()) != config_digest(
            _serving_config(rollback=True)
        )

    def test_predict_key_separates_endpoints_machines_kernels(self):
        sg = catalog.sg2042()
        cfg = _serving_config()
        key = predict_key(sg, cfg, "TRIAD")
        assert key != predict_key(sg, cfg, "DAXPY")
        assert key != explain_key(sg, "TRIAD")
        others = [
            cpu for name, cpu in catalog.all_cpus().items()
            if name != "sg2042"
        ]
        assert key != predict_key(others[0], cfg, "TRIAD")

    def test_sweep_key_preserves_request_order(self):
        # /sweep bodies list points in request order, so ordering is
        # part of the identity — two orderings are two entries.
        sg = catalog.sg2042()
        axes = ([1, 8], [Placement.BLOCK], [Precision.FP64])
        assert sweep_key(sg, ["TRIAD", "DAXPY"], *axes) != sweep_key(
            sg, ["DAXPY", "TRIAD"], *axes
        )
        assert sweep_key(sg, ["TRIAD"], [1, 8], [Placement.BLOCK],
                         [Precision.FP64]) != sweep_key(
            sg, ["TRIAD"], [8, 1], [Placement.BLOCK], [Precision.FP64]
        )

    def test_keys_are_pinned(self):
        config = RunConfig(
            threads=8, placement=Placement.CYCLIC, precision=Precision.FP32,
        )
        assert config_digest(config) == "8e72588a0d2783b03800934ea5e1f15c"
        assert sweep_key(
            catalog.sg2042(), ["TRIAD", "GEMM"], [1, 8],
            [Placement.BLOCK], [Precision.FP64],
        ) == (
            "sweep", "1150852492293290706",
            "90a6a35678db2cef8642c71a1af754df", ("TRIAD", "GEMM"),
        )

    def test_keys_never_import_the_store(self):
        # The server opens no store, so building its keys must not
        # load the store package.
        script = (
            "import sys\n"
            "from repro.machine import catalog\n"
            "from repro.serve.respcache import config_digest, sweep_key\n"
            "from repro.suite.config import Placement, Precision, "
            "RunConfig\n"
            "config_digest(RunConfig())\n"
            "sweep_key(catalog.sg2042(), ['TRIAD'], [1],"
            " [Placement.BLOCK], [Precision.FP64])\n"
            "print(sorted(m for m in sys.modules"
            " if m.startswith('repro.store')))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True,
            text=True, env=dict(os.environ, PYTHONPATH=_SRC), check=True,
        )
        assert proc.stdout.strip() == "[]"

    def test_key_is_stable_across_processes_and_hash_seeds(self):
        cfg = _serving_config(
            threads=8, precision="fp32", placement="cyclic"
        )
        key = str(predict_key(catalog.sg2042(), cfg, "TRIAD"))
        for seed in ("0", "424242"):
            env = dict(
                os.environ, PYTHONPATH=_SRC, PYTHONHASHSEED=seed
            )
            proc = subprocess.run(
                [sys.executable, "-c", _KEY_SCRIPT],
                capture_output=True, text=True, env=env, check=True,
            )
            assert proc.stdout.strip() == key


class TestCachedResponse:
    def test_head_matches_write_response_exactly(self):
        """A cached hit must put the same bytes on the wire as the
        render path it replaces."""

        class _Collector:
            def __init__(self):
                self.data = b""

            def write(self, chunk):
                self.data += chunk

        body = http.json_body({"kernel": "TRIAD", "seconds": 0.125})
        cached = CachedResponse.for_body(body)
        for keep_alive in (True, False):
            writer = _Collector()
            # The fresh path emits the same ETag header, so the wire
            # bytes of a hit and a render stay identical.
            http.write_response(writer, 200, body,
                                keep_alive=keep_alive,
                                extra_headers={"ETag": cached.etag})
            assert cached.head(keep_alive) + cached.body == writer.data

    def test_content_length_is_precomputed(self):
        body = b'{"a":1}'
        cached = CachedResponse.for_body(body)
        assert f"Content-Length: {len(body)}".encode() in cached.head_keep
        assert len(cached) == len(body)


class TestMemoryTier:
    def test_miss_then_hit(self):
        cache = ResponseCache()
        key = ("predict", "1", "d", ("TRIAD",))
        assert cache.get(key) is None
        cache.put(key, b'{"x":1}')
        hit = cache.get(key)
        assert hit is not None and hit.body == b'{"x":1}'
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.stores) == (1, 1, 1)
        assert stats.hit_rate == pytest.approx(0.5)

    def test_lru_evicts_oldest_entry_first(self):
        cache = ResponseCache(max_entries=2)
        cache.put(("a",), b"1")
        cache.put(("b",), b"2")
        assert cache.get(("a",)) is not None  # touch: a is now newest
        cache.put(("c",), b"3")  # evicts b
        assert cache.get(("b",)) is None
        assert cache.get(("a",)) is not None
        assert cache.get(("c",)) is not None
        assert cache.stats().evictions == 1

    def test_byte_budget_bounds_the_cache(self):
        cache = ResponseCache(max_entries=100, max_bytes=10)
        cache.put(("a",), b"x" * 6)
        cache.put(("b",), b"y" * 6)  # 12 bytes > 10: evicts a
        assert cache.get(("a",)) is None
        assert cache.get(("b",)) is not None
        assert cache.stats().bytes <= 10

    def test_oversized_body_is_never_cached(self):
        cache = ResponseCache(max_bytes=4)
        cache.put(("a",), b"x" * 5)
        assert len(cache) == 0

    def test_put_is_idempotent_per_key(self):
        cache = ResponseCache()
        cache.put(("a",), b"1")
        cache.put(("a",), b"1")
        assert cache.stats().stores == 1

    def test_zero_entries_disables_everything(self):
        cache = ResponseCache(max_entries=0)
        assert not cache.enabled
        cache.put(("a",), b"1")
        assert cache.get(("a",)) is None
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.stores) == (0, 0, 0)

    def test_invalid_caps_are_config_errors(self):
        with pytest.raises(ConfigError):
            ResponseCache(max_entries=-1)
        with pytest.raises(ConfigError):
            ResponseCache(max_bytes=0)

    def test_the_cache_lives_in_process_memory_only(self):
        # No store parameter, and no disk tier in the counters: a hit
        # rate is memory hits over lookups.
        with pytest.raises(TypeError):
            ResponseCache(store=None)
        cache = ResponseCache()
        cache.put(("a",), b"1")
        for key in (("a",), ("a",), ("b",)):
            cache.get(key)
        stats = cache.stats()
        assert not hasattr(stats, "disk_hits")
        assert stats.hit_rate == pytest.approx(2 / 3)
