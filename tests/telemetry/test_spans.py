"""Unit tests: span records, nesting, thread safety, ring buffering."""

import pickle
import threading

import pytest

from repro import telemetry
from repro.telemetry.spans import (
    NULL_RECORDER,
    NULL_SPAN,
    TraceRecorder,
)
from repro.util.errors import ConfigError


class TestSpanBasics:
    def test_records_name_duration_and_attrs(self):
        rec = TraceRecorder()
        with rec.span("phase", kernel="TRIAD", n=100):
            pass
        (record,) = rec.records()
        assert record.name == "phase"
        assert record.duration_ns >= 0
        assert record.attributes() == {"kernel": "TRIAD", "n": 100}
        assert record.parent_id is None
        assert record.seconds == record.duration_ns / 1e9
        assert record.end_ns == record.start_ns + record.duration_ns

    def test_set_attaches_attributes_mid_span(self):
        rec = TraceRecorder()
        with rec.span("phase") as sp:
            sp.set(hits=3, misses=1)
        (record,) = rec.records()
        assert record.attributes() == {"hits": 3, "misses": 1}

    def test_nesting_links_parents_per_thread(self):
        rec = TraceRecorder()
        with rec.span("outer"):
            with rec.span("inner"):
                with rec.span("leaf"):
                    pass
        by_name = {r.name: r for r in rec.records()}
        assert by_name["outer"].parent_id is None
        assert by_name["inner"].parent_id == by_name["outer"].span_id
        assert by_name["leaf"].parent_id == by_name["inner"].span_id

    def test_sibling_spans_share_parent(self):
        rec = TraceRecorder()
        with rec.span("parent"):
            with rec.span("a"):
                pass
            with rec.span("b"):
                pass
        by_name = {r.name: r for r in rec.records()}
        assert by_name["a"].parent_id == by_name["parent"].span_id
        assert by_name["b"].parent_id == by_name["parent"].span_id

    def test_exception_recorded_and_reraised(self):
        rec = TraceRecorder()
        with pytest.raises(ValueError):
            with rec.span("failing"):
                raise ValueError("boom")
        (record,) = rec.records()
        assert record.attributes()["error"] == "ValueError"

    def test_records_sorted_by_start_time(self):
        rec = TraceRecorder()
        for name in ("a", "b", "c"):
            with rec.span(name):
                pass
        starts = [r.start_ns for r in rec.records()]
        assert starts == sorted(starts)

    def test_span_records_are_picklable(self):
        rec = TraceRecorder()
        with rec.span("phase", kernel="TRIAD"):
            pass
        (record,) = rec.records()
        assert pickle.loads(pickle.dumps(record)) == record


class TestRingBuffer:
    def test_bounded_memory_drops_oldest(self):
        rec = TraceRecorder(max_spans=3)
        for i in range(5):
            with rec.span(f"s{i}"):
                pass
        records = rec.records()
        assert [r.name for r in records] == ["s2", "s3", "s4"]
        assert rec.dropped == 2
        assert len(rec) == 3

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            TraceRecorder(max_spans=0)

    def test_clear_resets(self):
        rec = TraceRecorder(max_spans=1)
        with rec.span("a"):
            pass
        with rec.span("b"):
            pass
        rec.clear()
        assert len(rec) == 0 and rec.dropped == 0


class TestMarks:
    def test_mark_counts_every_append(self):
        rec = TraceRecorder(max_spans=2)
        assert rec.mark() == 0
        for name in ("a", "b", "c"):
            with rec.span(name):
                pass
        assert rec.mark() == 3  # evictions do not lower the count

    def test_since_reads_only_later_records_in_append_order(self):
        rec = TraceRecorder()
        with rec.span("before"):
            pass
        mark = rec.mark()
        with rec.span("outer"):
            with rec.span("inner"):
                pass
        records, evicted = rec.since(mark)
        assert [r.name for r in records] == ["inner", "outer"]
        assert evicted == 0
        assert rec.since(rec.mark()) == ([], 0)

    def test_since_reports_evictions_after_the_mark(self):
        rec = TraceRecorder(max_spans=3)
        for i in range(4):
            with rec.span(f"old{i}"):
                pass
        mark = rec.mark()
        for i in range(5):
            with rec.span(f"new{i}"):
                pass
        records, evicted = rec.since(mark)
        assert [r.name for r in records] == ["new2", "new3", "new4"]
        assert evicted == 2
        assert rec.dropped == 6  # the session total, old records included

    def test_since_keeps_the_calling_threads_records(self):
        rec = TraceRecorder()

        def other():
            with rec.span("other"):
                pass

        mark = rec.mark()
        worker = threading.Thread(target=other)
        with rec.span("mine"):
            worker.start()
            worker.join()
        records, evicted = rec.since(mark)
        assert [r.name for r in records] == ["mine"]
        assert evicted == 0

    def test_null_recorder_marks(self):
        assert NULL_RECORDER.mark() == 0
        assert NULL_RECORDER.since(0) == ([], 0)


class TestThreadSafety:
    def test_concurrent_spans_keep_per_thread_parents(self):
        rec = TraceRecorder()
        barrier = threading.Barrier(4)

        def work(i):
            barrier.wait()
            for _ in range(50):
                with rec.span(f"outer-{i}"):
                    with rec.span(f"inner-{i}"):
                        pass

        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        records = rec.records()
        assert len(records) == 4 * 50 * 2
        outers = {r.span_id: r for r in records
                  if r.name.startswith("outer")}
        for r in records:
            if r.name.startswith("inner"):
                parent = outers[r.parent_id]
                # inner-i nests under outer-i of the same thread
                assert parent.name == "outer" + r.name[5:]
                assert parent.tid == r.tid


class TestNullObjects:
    def test_null_recorder_is_inert(self):
        assert NULL_RECORDER.active is False
        assert NULL_RECORDER.span("x", a=1) is NULL_SPAN
        with NULL_RECORDER.span("x") as sp:
            sp.set(ignored=True)
        assert NULL_RECORDER.records() == []
        assert len(NULL_RECORDER) == 0
        assert NULL_RECORDER.dropped == 0


class TestSession:
    def test_session_installs_and_restores(self):
        assert telemetry.active() is False
        with telemetry.telemetry_session() as (rec, reg):
            assert telemetry.active() is True
            assert telemetry.recorder() is rec
            assert telemetry.metrics() is reg
        assert telemetry.active() is False
        assert telemetry.recorder() is NULL_RECORDER

    def test_sessions_nest(self):
        with telemetry.telemetry_session() as (outer, _):
            with telemetry.telemetry_session() as (inner, _):
                assert telemetry.recorder() is inner
            assert telemetry.recorder() is outer

    def test_session_restored_on_error(self):
        with pytest.raises(ConfigError):
            with telemetry.telemetry_session():
                raise ConfigError("boom")
        assert telemetry.active() is False

    def test_session_max_spans_forwarded(self):
        with telemetry.telemetry_session(max_spans=1) as (rec, _):
            with rec.span("a"):
                pass
            with rec.span("b"):
                pass
            assert len(rec) == 1 and rec.dropped == 1
