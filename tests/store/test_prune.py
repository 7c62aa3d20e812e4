"""Store GC: age horizon, global size cap, dry-run, tmp cleanup."""

import os

import pytest

from repro.store import ArtifactStore, prune_store
from repro.store.prune import TMP_GRACE_S
from repro.util.errors import ConfigError

NOW = 1_000_000.0


def _store_with(tmp_path, artifacts):
    """Build a store whose artifacts have controlled mtimes.

    ``artifacts`` is ``[(namespace, key, payload, age_s), ...]``; each
    file's mtime is backdated ``age_s`` seconds before ``NOW``.
    """
    store = ArtifactStore(tmp_path / "store")
    for namespace, key, payload, age_s in artifacts:
        store.put(namespace, key, payload)
        path = store._path(namespace, key)
        os.utime(path, (NOW - age_s, NOW - age_s))
    return store


def _names(store, namespace):
    directory = store.root / namespace
    if not directory.is_dir():
        return set()
    return {p.name for p in directory.iterdir()}


class TestValidation:
    def test_no_caps_is_a_config_error(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        with pytest.raises(ConfigError):
            prune_store(store)

    def test_negative_caps_are_config_errors(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        with pytest.raises(ConfigError):
            prune_store(store, max_bytes=-1)
        with pytest.raises(ConfigError):
            prune_store(store, max_age_s=-1.0)

    def test_path_escaping_namespace_is_rejected(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        for bad in ("..", ".", "", "a/b"):
            with pytest.raises(ConfigError):
                prune_store(
                    store, max_bytes=0, namespaces=(bad,)
                )


class TestAgeHorizon:
    def test_old_artifacts_drain_out(self, tmp_path):
        store = _store_with(tmp_path, [
            ("soa", ("old",), {"v": 1}, 7200.0),
            ("soa", ("new",), {"v": 2}, 60.0),
        ])
        report = prune_store(store, max_age_s=3600.0, now=NOW)
        assert report.deleted == 1 and report.scanned == 2
        assert len(_names(store, "soa")) == 1
        assert store.get("soa", ("new",)) is not None
        assert store.get("soa", ("old",)) is None

    def test_deletions_land_on_eviction_counters(self, tmp_path):
        store = _store_with(tmp_path, [
            ("soa", ("old",), {"v": 1}, 7200.0),
            ("compile", ("old",), {"v": 2}, 7200.0),
        ])
        prune_store(store, max_age_s=3600.0, now=NOW)
        stats = store.stats()
        assert stats["soa"].evictions == 1
        assert stats["compile"].evictions == 1


class TestSizeCap:
    def test_oldest_artifacts_go_first_across_namespaces(self, tmp_path):
        store = _store_with(tmp_path, [
            ("compile", ("a",), {"v": "x" * 64}, 300.0),  # oldest
            ("soa", ("b",), {"v": "x" * 64}, 200.0),
            ("compile", ("c",), {"v": "x" * 64}, 100.0),  # newest
        ])
        sizes = {
            key: store._path(ns, key).stat().st_size
            for ns, key in (("compile", ("a",)), ("soa", ("b",)),
                            ("compile", ("c",)))
        }
        # Cap to exactly the newest two: the oldest (a compile
        # report) goes, although its namespace holds the newest too.
        cap = sizes[("b",)] + sizes[("c",)]
        report = prune_store(store, max_bytes=cap, now=NOW)
        assert report.deleted == 1
        assert store.get("compile", ("a",)) is None
        assert store.get("soa", ("b",)) is not None
        assert store.get("compile", ("c",)) is not None
        assert report.bytes_after <= cap

    def test_zero_cap_empties_the_store(self, tmp_path):
        store = _store_with(tmp_path, [
            ("soa", ("a",), {"v": 1}, 10.0),
            ("soa", ("b",), {"v": 2}, 20.0),
        ])
        report = prune_store(store, max_bytes=0, now=NOW)
        assert report.deleted == 2
        assert report.bytes_after == 0
        assert _names(store, "soa") == set()

    def test_age_and_size_compose_in_one_pass(self, tmp_path):
        store = _store_with(tmp_path, [
            ("soa", ("stale",), {"v": 1}, 7200.0),
            ("soa", ("old",), {"v": 2}, 600.0),
            ("soa", ("new",), {"v": 3}, 10.0),
        ])
        # Age kills "stale"; the cap then squeezes out "old" as the
        # oldest survivor.
        new_size = store._path("soa", ("new",)).stat().st_size
        report = prune_store(
            store, max_age_s=3600.0, max_bytes=new_size, now=NOW
        )
        assert report.deleted == 2
        assert store.get("soa", ("new",)) is not None
        assert store.get("soa", ("old",)) is None


class TestDryRun:
    def test_dry_run_touches_nothing(self, tmp_path):
        store = _store_with(tmp_path, [
            ("soa", ("old",), {"v": 1}, 7200.0),
            ("soa", ("new",), {"v": 2}, 60.0),
        ])
        report = prune_store(
            store, max_age_s=3600.0, dry_run=True, now=NOW
        )
        assert report.deleted == 1 and report.dry_run
        assert len(_names(store, "soa")) == 2  # nothing removed
        assert store.stats()["soa"].evictions == 0
        assert "would delete 1/2" in report.render()

    def test_real_run_renders_deleted(self, tmp_path):
        store = _store_with(tmp_path, [
            ("soa", ("old",), {"v": 1}, 7200.0),
        ])
        report = prune_store(store, max_age_s=3600.0, now=NOW)
        assert "deleted 1/1" in report.render()
        assert "soa: deleted 1/1" in report.render()


class TestTmpCleanup:
    def test_orphaned_tmp_files_are_removed_after_grace(self, tmp_path):
        store = _store_with(tmp_path, [
            ("soa", ("keep",), {"v": 1}, 10.0),
        ])
        stale = store.root / "soa" / "dead-writer.json.tmp"
        stale.write_text("{")
        os.utime(stale, (NOW - TMP_GRACE_S - 1, NOW - TMP_GRACE_S - 1))
        fresh = store.root / "soa" / "live-writer.json.tmp"
        fresh.write_text("{")
        os.utime(fresh, (NOW - 1, NOW - 1))
        report = prune_store(store, max_age_s=86400.0, now=NOW)
        assert report.tmp_removed == 1
        assert not stale.exists()
        assert fresh.exists()  # might belong to a live writer
        assert store.get("soa", ("keep",)) is not None

    def test_dry_run_reports_tmp_without_removing(self, tmp_path):
        store = _store_with(tmp_path, [])
        ns_dir = store.root / "soa"
        ns_dir.mkdir(parents=True)
        stale = ns_dir / "dead.json.tmp"
        stale.write_text("{")
        os.utime(stale, (NOW - TMP_GRACE_S - 1, NOW - TMP_GRACE_S - 1))
        report = prune_store(
            store, max_bytes=0, dry_run=True, now=NOW
        )
        assert report.tmp_removed == 1
        assert stale.exists()


class TestNamespaceSelection:
    def test_unselected_namespaces_are_untouched(self, tmp_path):
        store = _store_with(tmp_path, [
            ("soa", ("a",), {"v": 1}, 7200.0),
            ("responses", ("b",), {"v": 2}, 7200.0),
        ])
        report = prune_store(
            store, max_age_s=3600.0, namespaces=("responses",),
            now=NOW,
        )
        assert report.deleted == 1
        assert store.get("soa", ("a",)) is not None
        assert store.get("responses", ("b",)) is None

    def test_unknown_namespace_directory_is_just_empty(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        report = prune_store(
            store, max_bytes=0, namespaces=("nonesuch",), now=NOW
        )
        assert report.scanned == 0 and report.deleted == 0
