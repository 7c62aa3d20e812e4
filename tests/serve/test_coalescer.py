"""Coalescer: batching, grouping, dedupe, deadline drops, faults."""

import asyncio
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest

from repro import telemetry
from repro.kernels.registry import get_kernel
from repro.machine import catalog
from repro.resilience.retry import FailurePolicy
from repro.serve.breaker import CircuitBreaker
from repro.serve.coalescer import (
    Coalescer,
    CoalescerConfig,
    EngineState,
    PredictJob,
)
from repro.serve.errors import DeadlineExceeded, EngineFault
from repro.store import ArtifactStore
from repro.suite.config import RunConfig
from repro.suite.runner import run_suite


def predict_jobs(loop, names, threads=4):
    cpu = catalog.sg2042()
    config = RunConfig(threads=threads, runs=1, noise_sigma=0.0)
    return [
        PredictJob(
            kernel=get_kernel(name), cpu=cpu, config=config,
            future=loop.create_future(),
        )
        for name in names
    ]


def run_coalesced(names, *, config=None, deadline_past=(),
                  breaker=None):
    """Submit one batch of jobs and return their future outcomes."""

    async def main():
        loop = asyncio.get_running_loop()
        jobs = predict_jobs(loop, names)
        for index in deadline_past:
            jobs[index].deadline = loop.time() - 1.0
        with ThreadPoolExecutor(max_workers=1) as executor:
            coalescer = Coalescer(
                EngineState(), executor,
                config or CoalescerConfig(window_s=0.01),
                breaker=breaker,
            )
            coalescer.start()
            for job in jobs:
                await coalescer.submit(job)
            results = await asyncio.gather(
                *(job.future for job in jobs), return_exceptions=True
            )
            await coalescer.stop()
        return results

    return asyncio.run(main())


class TestCoalescing:
    def test_one_window_one_engine_batch(self):
        with telemetry.telemetry_session() as (_, registry):
            results = run_coalesced(["TRIAD", "DAXPY", "GEMM"])
        assert [r.kernel_name for r in results] == [
            "TRIAD", "DAXPY", "GEMM"
        ]
        snapshot = registry.snapshot()
        assert snapshot.counters["serve.batches"] == 1
        assert snapshot.counters["serve.coalesced"] == 2

    def test_duplicate_kernels_deduped_into_one_run(self):
        with telemetry.telemetry_session() as (_, registry):
            results = run_coalesced(["TRIAD", "TRIAD", "TRIAD"])
        assert len({id(r) for r in results}) <= 3
        assert all(r.kernel_name == "TRIAD" for r in results)
        # One engine batch, one kernel actually run.
        snapshot = registry.snapshot()
        assert snapshot.counters["suite.kernel_runs"] == 1

    def test_results_match_direct_run_suite(self):
        cpu = catalog.sg2042()
        config = RunConfig(threads=4, runs=1, noise_sigma=0.0)
        direct = run_suite(
            cpu, config, kernels=[get_kernel("TRIAD")]
        ).runs["TRIAD"]
        (served,) = run_coalesced(["TRIAD"])
        assert served.seconds == direct.seconds
        assert served.prediction.serving_level == (
            direct.prediction.serving_level
        )

    def test_different_configs_get_separate_groups(self):
        async def main():
            loop = asyncio.get_running_loop()
            cpu = catalog.sg2042()
            jobs = [
                PredictJob(
                    kernel=get_kernel("TRIAD"), cpu=cpu,
                    config=RunConfig(threads=t, runs=1, noise_sigma=0.0),
                    future=loop.create_future(),
                )
                for t in (1, 8)
            ]
            with ThreadPoolExecutor(max_workers=1) as executor:
                coalescer = Coalescer(
                    EngineState(), executor,
                    CoalescerConfig(window_s=0.01),
                )
                coalescer.start()
                for job in jobs:
                    await coalescer.submit(job)
                results = await asyncio.gather(
                    *(job.future for job in jobs)
                )
                await coalescer.stop()
            return results

        with telemetry.telemetry_session() as (_, registry):
            one, eight = asyncio.run(main())
        cpu = catalog.sg2042()
        for threads, served in ((1, one), (8, eight)):
            direct = run_suite(
                cpu, RunConfig(threads=threads, runs=1,
                               noise_sigma=0.0),
                kernels=[get_kernel("TRIAD")],
            ).runs["TRIAD"]
            assert served.seconds == direct.seconds
        assert registry.snapshot().counters["serve.batches"] == 2


class TestRobustness:
    def test_expired_jobs_never_reach_the_engine(self):
        with telemetry.telemetry_session() as (_, registry):
            results = run_coalesced(
                ["TRIAD", "DAXPY"], deadline_past=(1,)
            )
        assert results[0].kernel_name == "TRIAD"
        assert isinstance(results[1], DeadlineExceeded)
        snapshot = registry.snapshot()
        assert snapshot.counters["serve.deadline_exceeded"] == 1
        assert snapshot.counters["suite.kernel_runs"] == 1

    def test_repeat_traffic_recomputes_identically(self):
        async def main(state):
            loop = asyncio.get_running_loop()
            windows = []
            with ThreadPoolExecutor(max_workers=1) as executor:
                coalescer = Coalescer(
                    state, executor, CoalescerConfig(window_s=0.005)
                )
                coalescer.start()
                for _ in range(2):
                    jobs = predict_jobs(loop, ["TRIAD", "GEMM"])
                    for job in jobs:
                        await coalescer.submit(job)
                    windows.append(await asyncio.gather(
                        *(j.future for j in jobs)
                    ))
                    await asyncio.sleep(0.02)  # separate windows
                await coalescer.stop()
            return windows

        state = EngineState()
        with telemetry.telemetry_session() as (_, registry):
            first, second = asyncio.run(main(state))
        assert [r.seconds for r in second] == [r.seconds for r in first]
        # Both windows reach the engine: every prediction is computed,
        # only the compile reports are reused.
        snapshot = registry.snapshot()
        assert snapshot.counters["serve.batches"] == 2
        assert snapshot.counters["suite.kernel_runs"] == 4
        stats = state.caches_for(catalog.sg2042()).stats()
        assert (stats.compile_misses, stats.compile_hits) == (2, 2)

    def test_breaker_hears_every_success(self):
        breaker = CircuitBreaker(failure_threshold=2)
        run_coalesced(["TRIAD", "DAXPY"], breaker=breaker)
        breaker.record_failure()  # streak was reset by the successes
        assert breaker.state.value == "closed"

    def test_whole_group_failure_faults_every_job(self):
        class ExplodingCaches:
            def caches_for(self, cpu):
                raise RuntimeError("engine blew up")

        async def main():
            loop = asyncio.get_running_loop()
            jobs = predict_jobs(loop, ["TRIAD", "DAXPY"])
            with ThreadPoolExecutor(max_workers=1) as executor:
                coalescer = Coalescer(
                    ExplodingCaches(), executor,
                    CoalescerConfig(window_s=0.01),
                )
                coalescer.start()
                for job in jobs:
                    await coalescer.submit(job)
                results = await asyncio.gather(
                    *(job.future for job in jobs),
                    return_exceptions=True,
                )
                await coalescer.stop()
            return results

        breaker_results = asyncio.run(main())
        assert all(
            isinstance(r, EngineFault) for r in breaker_results
        )
        assert all(
            r.details["error_type"] == "RuntimeError"
            for r in breaker_results
        )

    def test_exhausted_kernel_comes_back_as_engine_fault(self):
        """A kernel whose retries exhaust comes back as EngineFault
        carrying the FailureRecord summary, not a traceback."""
        from repro.resilience import chaos
        from repro.resilience.faults import FaultPlan, FaultRule

        plan = FaultPlan(seed=7, rules=(
            FaultRule(site="run", probability=1.0,
                      kernels=("TRIAD",)),
        ))
        with chaos.inject_faults(plan):
            results = run_coalesced(
                ["TRIAD", "DAXPY"],
                config=CoalescerConfig(
                    window_s=0.01, policy=FailurePolicy.RETRY,
                ),
            )
        fault, ok = results
        assert isinstance(fault, EngineFault)
        assert fault.details["error_type"] == "TransientError"
        assert fault.details["attempts"] == 3
        assert fault.details["fault_site"] == "run"
        assert "TRIAD" in str(fault)
        assert ok.kernel_name == "DAXPY"


class TestEngineState:
    def test_equal_machines_share_one_caches_object(self):
        state = EngineState()
        first = state.caches_for(catalog.sg2042())
        assert state.caches_for(catalog.sg2042()) is first

    def test_retuned_machine_gets_its_own_caches(self):
        state = EngineState()
        cpu = catalog.sg2042()
        retuned = replace(
            cpu, core=replace(cpu.core, clock_hz=cpu.core.clock_hz + 1)
        )
        assert state.caches_for(retuned) is not state.caches_for(cpu)

    def test_store_backs_every_machine(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        state = EngineState(store)
        assert state.store is store
        for cpu in (catalog.sg2042(), catalog.amd_rome()):
            assert state.caches_for(cpu).store is store
        assert EngineState().caches_for(catalog.sg2042()).store is None


class TestLifecycle:
    def test_submit_after_stop_fails_fast(self):
        async def main():
            loop = asyncio.get_running_loop()
            with ThreadPoolExecutor(max_workers=1) as executor:
                coalescer = Coalescer(EngineState(), executor)
                coalescer.start()
                await coalescer.stop()
                (job,) = predict_jobs(loop, ["TRIAD"])
                await coalescer.submit(job)
                return job.future.exception()

        exc = asyncio.run(main())
        assert exc is not None
        assert exc.code == "unavailable"

    def test_double_start_rejected(self):
        async def main():
            with ThreadPoolExecutor(max_workers=1) as executor:
                coalescer = Coalescer(EngineState(), executor)
                coalescer.start()
                try:
                    with pytest.raises(RuntimeError):
                        coalescer.start()
                finally:
                    await coalescer.stop()

        asyncio.run(main())
