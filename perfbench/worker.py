"""Child process for the ``paper`` and ``sweep`` workloads.

Started by ``run.py`` with ``src/`` on ``PYTHONPATH``::

    python perfbench/worker.py paper --seed 1 --seconds 8 --out res.json
    python perfbench/worker.py sweep --phase store_cold --seed 1 \\
        --blocks 10 --out cold.json --store-dir .perfbench/x/store \\
        [--spans spans.json]
    python perfbench/worker.py sweep --phase store_warm ... \\
        --cold cold.json --reference cold.json
    python perfbench/worker.py paper --setup-only

It imports the program and loads its registries, prints ``READY`` (the
parent times set-up up to that line) and then the host speed, runs the
workload's closed loop (``paper`` for ``--seconds``, a ``sweep`` phase
for ``--blocks``) and writes the measurements and output checks to
``--out``. A ``sweep`` worker runs one phase; the phases run in
separate processes, so none inherits another's process-wide caches.
With ``--spans`` the tracing probes are installed before ``READY`` and
the spans are written there when the loop ends.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
import os
import random
import resource
import sys
import time
from pathlib import Path

from common import (
    REFERENCE_FSYNC_S,
    host_probe,
    read_json,
    to_reference,
    write_json,
)

#: The experiments pinned in ``results/experiments_snapshot.txt``:
#: the paper's tables and figures, the ablations, the extensions and
#: the conclusions.
PAPER_EXPERIMENTS = (
    "figure1", "table1", "table2", "table3", "figure2", "figure3",
    "table4", "figure4", "figure5", "figure6", "figure7",
    "ablation_l3_slicing", "ablation_l3_contention", "ablation_l2_sharing",
    "ablation_barrier", "extension_mpi", "extension_yardsticks",
    "conclusions",
)
SNAPSHOT = Path("results") / "experiments_snapshot.txt"
#: Wrong outputs reported by message (the count is always exact).
MAX_ERRORS = 10
#: The sweep requests are fixed by this constant, not by ``--seed``:
#: the seed only orders them, so every run measures the same mix.
MIX_SEED = 2042
#: Draws after which a catalogue slot counts as used up.
SLOT_TRIES = 1000
#: Largest number of store_warm rounds over the store_cold requests.
WARM_ROUNDS = 64


class Outcome:
    """Operations attempted/failed plus the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(message)


@contextlib.contextmanager
def _no_span(name: str, data=None):
    yield


# -- paper -------------------------------------------------------------------


def snapshot_sections(text: str) -> dict[str, str]:
    """``{title: rendering}`` for every section of the snapshot file: a
    title line underlined by ``=`` of the same length, up to the blank
    lines that separate renderings."""
    lines = text.split("\n")
    starts = [
        i for i in range(len(lines) - 1)
        if lines[i] and lines[i + 1] == "=" * len(lines[i])
    ]
    sections = {}
    for start, end in zip(starts, starts[1:] + [len(lines)]):
        sections[lines[start]] = "\n".join(lines[start:end]).rstrip("\n")
    return sections


def run_paper(args, span, outcome: Outcome) -> dict:
    from repro.experiments import ALL_EXPERIMENTS

    expected = snapshot_sections(SNAPSHOT.read_text(encoding="utf-8"))
    rng = random.Random(args.seed)
    pass_times: list[float] = []
    pass_ref: list[float] = []
    order = list(PAPER_EXPERIMENTS)
    probe = host_probe()
    # Passes run until ``--seconds`` at the reference host speed are
    # spent, so a run does the same work on a slow or a fast host.
    while not pass_ref or sum(pass_ref) < args.seconds:
        rng.shuffle(order)
        renders: list[tuple[str, str | None]] = []
        started = time.perf_counter()
        with span("paper.pass"):
            for name in order:
                try:
                    with span("experiments.run"):
                        result = ALL_EXPERIMENTS[name]()
                    with span("experiments.render"):
                        renders.append((name, result.render()))
                except Exception as exc:  # a failed experiment is a result
                    renders.append((name, None))
                    outcome.fail(f"{name}: {type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - started
        after = host_probe()
        pass_times.append(elapsed)
        pass_ref.append(to_reference(elapsed, (probe + after) / 2))
        probe = after
        for name, text in renders:
            outcome.attempted += 1
            if text is None:
                continue
            title = text.split("\n", 1)[0]
            if expected.get(title) != text:
                outcome.fail(f"{name}: rendering differs from {SNAPSHOT}")
    return {
        "pass_s": pass_times,
        "pass_ref_s": pass_ref,
        "props": {"experiments": len(PAPER_EXPERIMENTS),
                  "passes": len(pass_times)},
    }


# -- sweep -------------------------------------------------------------------


def _thread_choices(cores: int) -> list[int]:
    counts = {1 << i for i in range(cores.bit_length()) if 1 << i <= cores}
    counts.add(cores)
    return sorted(counts)


def catalogue(machines: dict, classes: list):
    """The fixed stream of distinct requests ``(machine, kernels,
    threads, placements, precisions)``, in blocks. Every block asks each
    registry machine for each number of kernel classes once, so every
    block has the same mix of machines and grid sizes. A request takes
    2-4 thread counts valid for its machine, 1-3 placements and 1-2
    precisions. The smallest slot (all kernels on the 2-core
    ``visionfive_v1``) has 21 distinct requests, so the first 21 blocks
    hold distinct requests and then the stream starts over."""
    rng = random.Random(MIX_SEED)
    seen: set[tuple] = set()
    while True:
        block = []
        for machine in sorted(machines):
            options = _thread_choices(machines[machine].topology.num_cores)
            for n_classes in range(1, len(classes) + 1):
                for tries in itertools.count(1):
                    picked = set(rng.sample(range(len(classes)), n_classes))
                    kernels = tuple(
                        k for i, members in enumerate(classes)
                        if i in picked for k in members
                    )
                    threads = tuple(sorted(rng.sample(
                        options, min(len(options), rng.randint(2, 4)))))
                    placements = tuple(sorted(rng.sample(
                        ["block", "cyclic", "cluster"], rng.randint(1, 3))))
                    precisions = tuple(sorted(rng.sample(
                        ["fp32", "fp64"], rng.randint(1, 2))))
                    request = (machine, kernels, threads, placements,
                               precisions)
                    if request in seen and tries >= SLOT_TRIES:
                        seen.clear()  # the slot is used up: start over
                    if request not in seen:
                        seen.add(request)
                        block.append(request)
                        break
        yield block


def _sub_grids(request: tuple) -> list[tuple]:
    """Every strictly smaller grid of ``request`` (same machine and
    kernels, a non-empty subset of each axis), in a fixed order."""
    machine, kernels, *axes = request
    choices = [
        [c for size in range(1, len(axis) + 1)
         for c in itertools.combinations(axis, size)]
        for axis in axes
    ]
    grids = [(machine, kernels, *picked)
             for picked in itertools.product(*choices)]
    grids.remove(request)
    random.Random(f"{MIX_SEED}:{request}").shuffle(grids)
    return grids


def warm_blocks(cold_blocks: list[list[tuple]]):
    """store_warm blocks over the store_cold requests: round by round,
    each store_cold block once, with every request in it asked again
    exactly (served by the whole-sweep artifact) and as one sub-grid not
    asked before (served by prediction pages)."""
    cold = {r for block in cold_blocks for r in block}
    used: set[tuple] = set()
    options = {r: iter(_sub_grids(r)) for r in cold}
    for _ in range(WARM_ROUNDS):
        for block in cold_blocks:
            out = []
            for request in block:
                out.append(request)
                for grid in options[request]:
                    if grid not in cold and grid not in used:
                        used.add(grid)
                        out.append(grid)
                        break
            yield out


def cells(request: tuple) -> int:
    _, kernels, threads, placements, precisions = request
    return len(kernels) * len(threads) * len(placements) * len(precisions)


def _digest(csv: str) -> str:
    return hashlib.blake2b(csv.encode()).hexdigest()


def run_sweep(args, span, outcome: Outcome) -> dict:
    from repro.kernels.base import KernelClass
    from repro.kernels.registry import get_kernel, kernels_in_class
    from repro.registry import registry_with_paths
    from repro.store import ArtifactStore, set_default_store
    from repro.suite.config import Placement, Precision
    from repro.suite.memo import SuiteCaches
    from repro.suite.sweep import sweep

    machines = registry_with_paths(()).machines()
    classes = [
        tuple(k.name for k in kernels_in_class(klass))
        for klass in KernelClass
    ]
    store_root = None if args.phase == "default" else Path(args.store_dir)

    def execute(request: tuple, root: Path | None):
        machine, kernels, threads, placements, precisions = request
        caches = None
        store = None
        if root is not None:
            # As ``repro sweep --store DIR`` attaches a store, for this
            # request only: the output checks must not read or fill it.
            store = ArtifactStore(root)
            set_default_store(store)
            caches = SuiteCaches.persistent(store)
        try:
            with span("suite.sweep"):
                result = sweep(
                    machines[machine],
                    [get_kernel(k) for k in kernels],
                    list(threads),
                    [Placement.from_label(p) for p in placements],
                    [Precision.from_label(p) for p in precisions],
                    caches=caches,
                )
        finally:
            set_default_store(None)
        with span("suite.to_csv"):
            csv = result.to_csv()
        return result, csv, store

    if args.phase == "store_warm":
        cold_blocks = [[_request(r) for r in block]
                       for block in read_json(Path(args.cold))["blocks"]]
        cold = {r for block in cold_blocks for r in block}
        blocks = warm_blocks(cold_blocks)
    else:
        blocks = catalogue(machines, classes)

    # Closed loop over the phase's first ``--blocks`` blocks, so every
    # run does the same work whatever the host speed. Cells are checked
    # between requests, outside the timed region; the host probe runs
    # between blocks.
    rng = random.Random(args.seed)
    fsyncs = _FsyncClock() if store_root is not None else None
    oracle = _CellOracle(machines)
    done_blocks: list[list[tuple]] = []
    digests: list[tuple[tuple, str]] = []
    store_stats: dict[str, list[int]] = {}
    busy = busy_ref = 0.0
    block_s: list[float] = []
    block_ref_s: list[float] = []
    probe = host_probe()
    for block in itertools.islice(blocks, args.blocks):
        synced = fsyncs.mark() if fsyncs else (0, 0.0)
        order = list(block)
        rng.shuffle(order)
        block_busy = block_user = 0.0
        for request in order:
            started = time.perf_counter()
            user = _user_seconds()
            result, csv, store = execute(request, store_root)
            block_user += _user_seconds() - user
            block_busy += time.perf_counter() - started
            if store is not None:
                for ns, st in store.stats().items():
                    acc = store_stats.setdefault(ns, [0, 0, 0])
                    acc[0] += st.hits + st.misses + st.errors
                    acc[1] += st.hits
                    acc[2] += st.puts
            with span("bench.check"):
                outcome.attempted += 1
                wrong = 0 if args.skip_cell_check else oracle.wrong_cells(
                    request, result)
                if wrong:
                    outcome.fail(f"{args.phase}: {wrong} cell(s) of a "
                                 f"{request[0]} request differ from "
                                 f"uncached run_suite")
                digests.append((request, _digest(csv)))
        after = host_probe()
        busy += block_busy
        block_s.append(block_busy)
        # Request time is counted as the user CPU time the requests
        # used, at the reference host speed, plus each of the store's
        # fsyncs at the reference disk latency. On the shared disk the
        # fsync latency changes many times over between runs, and the
        # kernel's time for the store's other file operations varied
        # 3.6x between runs of the same work; steal and waits for a CPU
        # do not count either.
        count, _ = fsyncs.since(synced) if fsyncs else (0, 0.0)
        block_ref = (to_reference(block_user, (probe + after) / 2)
                     + count * REFERENCE_FSYNC_S)
        busy_ref += block_ref
        block_ref_s.append(block_ref)
        probe = after
        done_blocks.append(block)

    # Every store-phase CSV must equal the same request's CSV without a
    # store: computed here, or read from ``--reference`` (the checked
    # store_cold CSVs) where that has the request.
    if store_root is not None:
        with span("bench.check"):
            reference = {} if args.reference is None else {
                _request(r): d
                for r, d in read_json(Path(args.reference))["digests"]
            }
            for request, digest in digests:
                expected = reference.get(request)
                if expected is None:
                    expected = reference[request] = _digest(
                        execute(request, None)[1])
                if expected != digest:
                    outcome.fail(f"{args.phase}: CSV of a {request[0]} "
                                 f"request differs from its CSV without "
                                 f"a store")
    requests = [r for block in done_blocks for r in block]
    props = {"oracle_configs": len(oracle.results)}
    if args.phase == "store_warm":
        props["warm_exact_repeats"] = sum(1 for r in requests if r in cold)
        props["warm_sub_grids"] = len(requests) - props["warm_exact_repeats"]
    return {
        "requests": len(requests),
        "cells": sum(map(cells, requests)),
        "seconds": busy,
        "ref_seconds": busy_ref,
        "block_s": block_s,
        "block_ref_s": block_ref_s,
        "fsyncs": fsyncs.count if fsyncs else 0,
        "fsync_s": fsyncs.seconds if fsyncs else 0.0,
        "store": store_stats,
        "blocks": done_blocks,
        "digests": digests,
        "props": props,
    }


class _FsyncClock:
    """Counts and times every ``os.fsync`` of this process (the store's
    durable writes) from the benchmark's side."""

    def __init__(self) -> None:
        self.count = 0
        self.seconds = 0.0
        real = os.fsync

        def fsync(fd) -> None:
            started = time.perf_counter()
            try:
                real(fd)
            finally:
                self.seconds += time.perf_counter() - started
                self.count += 1

        os.fsync = fsync

    def mark(self) -> tuple[int, float]:
        return self.count, self.seconds

    def since(self, mark: tuple[int, float]) -> tuple[int, float]:
        return self.count - mark[0], self.seconds - mark[1]


def _user_seconds() -> float:
    """User CPU time of this process (every thread) and its reaped
    children."""
    return (resource.getrusage(resource.RUSAGE_SELF).ru_utime
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_utime)


def _request(raw: list) -> tuple:
    """A request read back from JSON (lists) as the tuple it was."""
    machine, kernels, *axes = raw
    return (machine, tuple(kernels), *(tuple(axis) for axis in axes))


class _CellOracle:
    """Uncached ``run_suite`` results per (machine, configuration),
    computed once for the union of kernels requested."""

    def __init__(self, machines: dict) -> None:
        self.machines = machines
        self.results: dict[tuple, dict[str, float]] = {}

    def wrong_cells(self, request: tuple, result) -> int:
        from repro.kernels.registry import get_kernel
        from repro.suite.config import RunConfig
        from repro.suite.runner import run_suite

        machine, kernels, threads, placements, precisions = request
        expected_cells = cells(request)
        wrong = abs(len(result.points) - expected_cells) + len(
            result.failures)
        for point in result.points:
            key = (machine, point.threads, point.placement.value,
                   point.precision.label)
            table = self.results.get(key)
            if table is None or point.kernel not in table:
                config = RunConfig(
                    threads=point.threads, placement=point.placement,
                    precision=point.precision, runs=1, noise_sigma=0.0,
                )
                names = sorted(set(kernels) | set(table or ()))
                suite = run_suite(self.machines[machine], config,
                                  kernels=[get_kernel(k) for k in names])
                table = {name: run.seconds
                         for name, run in suite.runs.items()}
                self.results[key] = table
            if table.get(point.kernel) != point.seconds:
                wrong += 1
        return wrong


# -- entry -------------------------------------------------------------------


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=("paper", "sweep"))
    parser.add_argument("--phase", default="default",
                        choices=("default", "store_cold", "store_warm"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--blocks", type=int, default=1)
    parser.add_argument("--out")
    parser.add_argument("--store-dir")
    parser.add_argument("--reference")
    parser.add_argument("--cold")
    parser.add_argument("--spans")
    parser.add_argument("--setup-only", action="store_true")
    # The store_cold run that fills sweep_store_warm's store: its CSVs
    # are still checked, its cells again as store_warm's exact repeats.
    parser.add_argument("--skip-cell-check", action="store_true")
    args = parser.parse_args(argv)

    # Set-up: everything a first operation needs, nothing it does.
    import repro
    from repro.registry import registry_with_paths

    if args.workload == "paper":
        import repro.experiments  # noqa: F401
    else:
        import repro.store  # noqa: F401
        import repro.suite.sweep  # noqa: F401
    registry_with_paths(()).machines()
    tracer = None
    if args.spans:
        import probes

        tracer = probes.Tracer()
        probes.install_library(tracer)
    print("READY", flush=True)
    # The host speed right after set-up, for the parent's set-up time.
    print(f"PROBE {host_probe()!r}", flush=True)
    if args.setup_only:
        return 0

    outcome = Outcome()
    runner = run_paper if args.workload == "paper" else run_sweep
    span = tracer.span if tracer is not None else _no_span
    result = runner(args, span, outcome)
    if tracer is not None:
        tracer.dump(Path(args.spans))
    result.update(
        attempted=outcome.attempted, failed=outcome.failed,
        errors=outcome.errors, program=repro.__file__,
    )
    write_json(Path(args.out), result)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
