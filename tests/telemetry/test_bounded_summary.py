"""A result's telemetry summary covers its own call, not the session.

A long-lived session (``repro serve`` keeps one for its whole uptime)
must not make each ``run_suite`` or ``sweep`` summary dearer or
different: the summary holds the spans the call recorded on its own
thread, read from the ring's tail, plus the session's metrics. These
tests count spans and calls; none of them times anything.
"""

import sys
import threading

from repro import telemetry
from repro.kernels.registry import all_kernels, get_kernel
from repro.machine import catalog
from repro.perfmodel.placement import reference_mode
from repro.suite.config import Placement, Precision, RunConfig
from repro.suite.runner import run_suite
from repro.suite.sweep import sweep
from repro.telemetry.spans import TraceRecorder

CPU = catalog.sg2042()
KERNELS = all_kernels()[:8]
GRID = dict(
    threads=(1, 8),
    placements=(Placement.BLOCK, Placement.CYCLIC),
    precisions=(Precision.FP32,),
)


def _shape(summary):
    return summary.span_count, summary.phase_counts


def _one_kernel(name, threads=4):
    return run_suite(CPU, RunConfig(threads=threads),
                     kernels=[get_kernel(name)])


class TestSuiteSummaryIsBounded:
    def test_old_session_summary_matches_the_first(self, monkeypatch):
        names = ("TRIAD", "DAXPY", "GEMM", "COPY")
        # Compiled before the session, so no call records the
        # ``compile.analyze`` spans of a compile LRU miss.
        _one_kernel("TRIAD")
        with telemetry.telemetry_session() as (rec, _):
            first = _one_kernel("TRIAD", threads=1).telemetry
            for i in range(1000):
                _one_kernel(names[i % 4], threads=1 + i % 8)
            assert len(rec) > 1000
            full_reads = []
            records = TraceRecorder.records

            def spy(self):
                full_reads.append(self)
                return records(self)

            monkeypatch.setattr(TraceRecorder, "records", spy)
            last = _one_kernel("TRIAD", threads=1).telemetry
        assert _shape(last) == _shape(first)
        assert last.phase_counts["suite.run"] == 1
        assert full_reads == []
        # Metrics stay the session's: they count every suite so far.
        assert last.counters["suite.runs"] == 1002

    def test_concurrent_suites_keep_their_own_spans(self, per_kernel_loop):
        # More threads than a small host has cores, switching often, so
        # the suites' spans interleave in the shared ring. Each suite
        # takes the per-kernel loop, so its kernel.run spans count its
        # kernels.
        names = ("TRIAD", "DAXPY", "GEMM", "COPY")
        lists = [[get_kernel(n) for n in names[:size]]
                 for size in (1, 2, 3, 4)]
        rounds = 10
        barrier = threading.Barrier(len(lists), timeout=60)
        summaries = [[] for _ in lists]

        def work(slot):
            for _ in range(rounds):
                barrier.wait()
                result = run_suite(CPU, RunConfig(threads=4),
                                   kernels=lists[slot])
                summaries[slot].append(result.telemetry)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with telemetry.telemetry_session() as (rec, _), \
                    per_kernel_loop():
                threads = [threading.Thread(target=work, args=(slot,))
                           for slot in range(len(lists))]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for slot, kernels in enumerate(lists):
            assert len(summaries[slot]) == rounds
            for summary in summaries[slot]:
                assert summary.phase_counts["suite.run"] == 1
                assert summary.phase_counts["kernel.run"] == len(kernels)
                assert summary.dropped_spans == 0
        # Every span the session holds belongs to exactly one summary.
        assert sum(summary.span_count for per_slot in summaries
                   for summary in per_slot) == rec.mark() == len(rec)

    def test_ring_overflow_within_the_call_counts_its_evictions(self):
        # Reference mode records a kernel.run and a predict.scalar span
        # per kernel, more than the ring holds.
        with telemetry.telemetry_session(max_spans=8) as (rec, _), \
                reference_mode():
            run_suite(CPU, RunConfig(threads=4), kernels=KERNELS)
            evicted_before = rec.dropped
            assert evicted_before > 0
            mark = rec.mark()
            result = run_suite(CPU, RunConfig(threads=4), kernels=KERNELS)
            appended = rec.mark() - mark
        summary = result.telemetry
        assert appended > 8
        assert summary.span_count == 8
        assert summary.dropped_spans == appended - 8
        assert rec.dropped == evicted_before + appended


class TestSweepSummaryIsBounded:
    def test_later_sweep_summary_matches_the_first(self):
        sweep(CPU, KERNELS, **GRID)  # compiled before the session
        with telemetry.telemetry_session():
            first = sweep(CPU, KERNELS, **GRID).telemetry
            for _ in range(3):
                sweep(CPU, KERNELS, **GRID)
            last = sweep(CPU, KERNELS, **GRID).telemetry
        assert _shape(last) == _shape(first)
        assert last.phase_counts["sweep"] == 1
        assert last.counters["sweep.runs"] == 5
