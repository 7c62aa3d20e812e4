"""ArtifactStore robustness: every failure mode degrades to recompute."""

import json
import threading

import pytest

from repro.store import (
    STORE_SCHEMA_VERSION,
    ArtifactStore,
    StoreStats,
    StoreWarning,
    stable_digest,
)

KEY = ("unit", "sg2042", 64, ["a", "b"])
PAYLOAD = {"payload_version": 1, "value": 1.5}


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


def _artifact_path(store):
    files = list((store.root / "compile").glob("*.json"))
    assert len(files) == 1
    return files[0]


class TestRoundTrip:
    def test_put_then_get(self, store):
        assert store.put("compile", KEY, PAYLOAD)
        assert store.get("compile", KEY) == PAYLOAD

    def test_floats_round_trip_exactly(self, store):
        value = 0.1 + 0.2  # not representable exactly; repr round-trips
        store.put("compile", KEY, {"v": value})
        assert store.get("compile", KEY)["v"] == value

    def test_missing_key_is_a_silent_miss(self, store, recwarn):
        assert store.get("compile", KEY) is None
        assert not recwarn.list
        assert store.stats()["compile"] == StoreStats(misses=1)

    def test_distinct_keys_distinct_artifacts(self, store):
        store.put("compile", KEY, {"v": 1})
        store.put("compile", ("other",), {"v": 2})
        assert store.get("compile", KEY) == {"v": 1}
        assert store.get("compile", ("other",)) == {"v": 2}
        assert store.artifact_count("compile") == 2

    def test_namespaces_do_not_collide(self, store):
        store.put("compile", KEY, {"v": 1})
        assert store.get("soa", KEY) is None
        assert store.artifact_count() == 1

    def test_total_count_covers_the_known_namespaces_only(self, store):
        store.put("compile", KEY, {"v": 1})
        store.put("soa", KEY, {"v": 2})
        # Namespaces an older build wrote are not counted.
        for leftover in ("predict", "sweep", "responses"):
            store.put(leftover, KEY, {"v": 3})
        assert store.artifact_count() == 2
        assert store.artifact_count("sweep") == 1

    def test_overwrite_wins(self, store):
        store.put("compile", KEY, {"v": 1})
        store.put("compile", KEY, {"v": 2})
        assert store.get("compile", KEY) == {"v": 2}
        assert store.artifact_count("compile") == 1


class TestCorruption:
    """Satellite (d): torn files, stale schema, collisions, tampering —
    all warn and miss, never raise."""

    def _corrupt(self, store, mutate):
        store.put("compile", KEY, PAYLOAD)
        path = _artifact_path(store)
        record = json.loads(path.read_text())
        path.write_text(mutate(path, record) or "")
        with pytest.warns(StoreWarning):
            assert store.get("compile", KEY) is None
        assert store.stats()["compile"].errors == 1

    def test_truncated_file(self, store):
        def truncate(path, _):
            text = path.read_text()
            return text[: len(text) // 2]

        self._corrupt(store, truncate)

    def test_empty_file(self, store):
        self._corrupt(store, lambda path, _: "")

    def test_binary_garbage(self, store):
        store.put("compile", KEY, PAYLOAD)
        _artifact_path(store).write_bytes(b"\xff\xfe\x00garbage")
        with pytest.warns(StoreWarning, match="corrupt artifact"):
            assert store.get("compile", KEY) is None

    def test_non_object_record(self, store):
        self._corrupt(store, lambda path, _: json.dumps([1, 2, 3]))

    def test_schema_version_mismatch(self, store):
        def bump(path, record):
            record["schema_version"] = STORE_SCHEMA_VERSION + 1
            return json.dumps(record)

        store.put("compile", KEY, PAYLOAD)
        path = _artifact_path(store)
        record = json.loads(path.read_text())
        path.write_text(bump(path, record))
        with pytest.warns(StoreWarning, match="schema_version"):
            assert store.get("compile", KEY) is None

    def test_key_echo_mismatch_is_a_miss(self, store):
        # A digest collision would serve another key's payload; the
        # stored key echo turns it into a warned miss instead.
        def swap_key(path, record):
            record["key"] = ["somebody", "else"]
            return json.dumps(record)

        self._corrupt(store, swap_key)

    def test_missing_payload(self, store):
        def drop(path, record):
            del record["payload"]
            return json.dumps(record)

        self._corrupt(store, drop)

    def test_corruption_does_not_poison_future_writes(self, store):
        store.put("compile", KEY, PAYLOAD)
        _artifact_path(store).write_text("torn")
        with pytest.warns(StoreWarning):
            assert store.get("compile", KEY) is None
        assert store.put("compile", KEY, PAYLOAD)
        assert store.get("compile", KEY) == PAYLOAD


class TestUnwritableStore:
    def test_put_degrades_and_warns_once(self, tmp_path, recwarn):
        # A *file* where the store root should be makes every mkdir and
        # write fail with OSError regardless of privileges (chmod-based
        # read-only dirs do not bind when the suite runs as root).
        root = tmp_path / "not-a-dir"
        root.write_text("occupied")
        store = ArtifactStore(root)
        with pytest.warns(StoreWarning, match="not writable"):
            assert store.put("compile", KEY, PAYLOAD) is False
        recwarn.clear()
        assert store.put("compile", KEY, ("x",)) is False
        assert not recwarn.list  # warned once per store, not per put
        assert store.stats()["compile"].errors == 2

    def test_reads_keep_working_after_write_failure(self, tmp_path):
        writable = ArtifactStore(tmp_path / "store")
        writable.put("compile", KEY, PAYLOAD)
        # Same directory, separate handle that has seen a write failure.
        reader = ArtifactStore(tmp_path / "store")
        reader._write_failed = True
        assert reader.get("compile", KEY) == PAYLOAD

    def test_no_temp_files_left_behind(self, store):
        store.put("compile", KEY, PAYLOAD)
        leftovers = [
            p for p in (store.root / "compile").iterdir()
            if p.suffix != ".json"
        ]
        assert leftovers == []


class TestConcurrency:
    def test_concurrent_writers_same_key(self, store):
        # Pure computations write identical bytes; os.replace is atomic,
        # so racing writers can only overwrite each other with the same
        # content — the final artifact must always read back whole.
        errors = []

        def write():
            try:
                for _ in range(25):
                    store.put("compile", KEY, PAYLOAD)
                    got = store.get("compile", KEY)
                    assert got == PAYLOAD, got
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        workers = [threading.Thread(target=write) for _ in range(8)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        assert errors == []
        assert store.get("compile", KEY) == PAYLOAD
        assert store.artifact_count("compile") == 1

    def test_stats_count_all_threads(self, store):
        store.put("compile", KEY, PAYLOAD)

        def read():
            for _ in range(50):
                store.get("compile", KEY)

        workers = [threading.Thread(target=read) for _ in range(4)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        assert store.stats()["compile"].hits == 200


class TestStableDigest:
    def test_equal_parts_equal_digest(self):
        assert stable_digest("a", [1, 2]) == stable_digest("a", [1, 2])

    def test_order_matters(self):
        assert stable_digest("a", "b") != stable_digest("b", "a")

    def test_field_separator_prevents_concatenation_collisions(self):
        assert stable_digest("ab", "c") != stable_digest("a", "bc")

    def test_dict_key_order_is_canonical(self):
        assert stable_digest({"a": 1, "b": 2}) == stable_digest(
            {"b": 2, "a": 1}
        )
