"""The repository benchmark: ``paper``, the three ``sweep`` workloads
and ``serve``.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper --seed 1 --seconds 8 --trace 0

Each workload runs in fresh processes built from ``src/``; this parent
process measures their set-up time and peak resident set, prints every
metric with its unit and sample count, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are ``BENCHMARK.json``'s ``end_to_end``
metrics, which every workload measures: ``setup_s``, ``peak_rss_mb``
and ``op_ms``, the time of the workload's own operation. With
``--trace 1`` the workload runs twice, each time with ``TRACE_SHARE``
of the work, untraced and then with the probes of ``probes.py``
installed; the metrics are the ``per_layer`` list: the
per-layer values of the traced run (0 for a layer the workload never
enters), the untraced serve latencies (0 on the other workloads), and
``overhead.<metric>``, the traced minus the untraced value of each
end-to-end metric. A wrong output makes the run exit 1; a run that
cannot measure exits 2 without a result line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import sys
from pathlib import Path

from common import (
    SCRATCH_DIR,
    SETUP_LAUNCHES,
    TRACE_SHARE,
    BenchError,
    Child,
    median,
    read_json,
    source_root,
    use_source,
)

HERE = Path(__file__).resolve().parent
#: The metric catalogue: names, units and directions live only there.
BENCHMARK = read_json(HERE.parent / "BENCHMARK.json")
UNITS = {m["name"]: m["unit"]
         for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
END_TO_END = [m["name"] for m in BENCHMARK["end_to_end"]]
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
#: Per-child wall-clock limit beyond its measured seconds.
CHILD_SLACK_S = 120.0
#: The sweep workloads and the phase each measures, and the request
#: blocks per second of ``--seconds`` of each phase. A phase runs a
#: fixed number of blocks, so every run measures the same work (the
#: first blocks of a phase cost more, as the process's caches and the
#: store fill).
SWEEP_PHASE = {
    "sweep": "default",
    "sweep_store_cold": "store_cold",
    "sweep_store_warm": "store_warm",
}
BLOCKS_PER_S = {"default": 3.0, "store_cold": 1.0, "store_warm": 1.6}


class Measurement:
    """One workload measurement: end-to-end values with sample counts,
    operation counts, wrong outputs and (traced) per-layer values."""

    def __init__(self) -> None:
        self.metrics: dict[str, tuple[float, int]] = {}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.errors: list[str] = []
        self.layers: dict[str, float] = {}
        self.absent: list[str] = []
        self.details: dict = {}


def _library_run(workload: str, args, src: Path, root: Path,
                 run_dir: Path, traced: bool) -> Measurement:
    """``paper``, or one ``sweep`` phase, in one fresh worker process;
    plus set-up-only launches. ``sweep_store_warm`` first fills its
    store with an untimed, untraced ``store_cold`` worker."""
    worker = str(HERE / "worker.py")
    tag = "traced" if traced else "plain"
    span_files: list[Path] = []
    m = Measurement()
    setups: list[float] = []
    rss: list[float] = []
    kind = "paper" if workload == "paper" else "sweep"
    seconds = args.seconds * (TRACE_SHARE if args.trace else 1.0)

    def launch(*extra: str, seconds: float = 0.0, name: str = "setup",
               prep: bool = False) -> Child:
        index = len(setups)
        argv = [sys.executable, worker, kind, *extra]
        if traced and not prep:
            # Traced set-ups install the probes too (and write no spans).
            spans = run_dir / f"spans-{tag}-{index}.json"
            argv += ["--spans", str(spans)]
            if name != "setup":
                span_files.append(spans)
        child = Child(argv, src, root, run_dir / f"{name}-{tag}-{index}.err")
        try:
            ready_s = child.wait_ready()
            code = child.finish(seconds * 3 + CHILD_SLACK_S)
        except BaseException:
            child.kill()
            raise
        if code != 0:
            raise BenchError(f"{workload} {name} child exited {code}: "
                             f"{child.stderr_tail()}")
        if not prep:
            setups.append(ready_s)
            if name != "setup":
                rss.append(child.peak_rss_mb)
        return child

    def measured(name: str, *extra: str, prep: bool = False) -> dict:
        out = run_dir / f"{name}-{tag}.json"
        launch("--seed", str(args.seed), "--out", str(out), *extra,
               seconds=args.seconds, name=name, prep=prep)
        result = read_json(out)
        if not Path(result["program"]).resolve().is_relative_to(src):
            raise BenchError(f"worker imported {result['program']}, "
                             f"not the checkout's source")
        m.attempted += result["attempted"]
        m.failed += result["failed"]
        m.errors += result["errors"]
        return result

    if workload == "paper":
        result = measured("paper", "--seconds", str(seconds))
        passes = result["pass_ref_s"]
        m.metrics["op_ms"] = (median(passes) * 1e3, len(passes))
        m.details["props"] = dict(
            result["props"], raw_pass_s=median(result["pass_s"]))
    else:
        phase = SWEEP_PHASE[workload]

        def blocks(of: str) -> list[str]:
            count = max(1, round(seconds * BLOCKS_PER_S[of]))
            return ["--phase", of, "--blocks", str(count)]

        extra = blocks(phase)
        if phase != "default":
            store = str(run_dir / f"store-{tag}")
            extra += ["--store-dir", store]
        if phase == "store_warm":
            # The store_cold requests reach the store_warm worker, and
            # serve as its reference CSVs, through the cold result file.
            measured("store_cold", *blocks("store_cold"),
                     "--store-dir", store, "--skip-cell-check", prep=True)
            cold = str(run_dir / f"store_cold-{tag}.json")
            extra += ["--cold", cold, "--reference", cold]
        p = measured(phase, *extra)
        per_request = [t / len(block) * 1e3
                       for t, block in zip(p["block_ref_s"], p["blocks"])]
        m.metrics["op_ms"] = (median(per_request), len(per_request))
        m.details["phases"] = {phase: p}
        m.details["props"] = p["props"]
    # The measured workers' own set-ups, then set-up-only launches.
    while len(setups) < SETUP_LAUNCHES:
        launch("--setup-only")
    m.metrics["setup_s"] = (median(setups), len(setups))
    m.metrics["peak_rss_mb"] = (max(rss), len(rss))
    m.wrong = m.failed
    if traced:
        import probes

        span_rows, m.absent = probes.load_spans(span_files)
        m.layers = probes.layer_metrics(span_rows)
    return m


def _serve_run(args, src: Path, root: Path, run_dir: Path,
               traced: bool) -> Measurement:
    import serve_load

    spans_dir = None
    if traced:
        spans_dir = run_dir / "serve-spans"
        spans_dir.mkdir()
    # The capacity search feeds only per-layer metrics, so it runs in
    # traced runs (in both halves) and not in timed ones.
    result = serve_load.run(src, root, run_dir, args.seed, args.seconds,
                            spans_dir, short=bool(args.trace),
                            search=bool(args.trace))
    m = Measurement()
    setups = result["setup_s"]
    m.metrics["setup_s"] = (median(setups), len(setups))
    m.metrics["peak_rss_mb"] = (result["peak_rss_mb"],
                                len(result["steps"]))
    m.metrics.update(result["metrics"])
    m.attempted = result["attempted"]
    m.failed = result["failed"]
    m.wrong = result["wrong"]
    m.errors = result["errors"]
    m.details = {"props": result["props"], "steps": result["steps"]}
    if traced:
        import probes

        span_rows, m.absent = probes.load_spans(
            sorted(spans_dir.iterdir()))
        m.layers = probes.layer_metrics(span_rows)
    return m


def measure(args, src: Path, root: Path, run_dir: Path,
            traced: bool) -> Measurement:
    if args.workload == "serve":
        return _serve_run(args, src, root, run_dir, traced)
    return _library_run(args.workload, args, src, root, run_dir, traced)


def _print_table(title: str, rows: list[tuple]) -> None:
    print(title)
    for row in rows:
        print("  " + "  ".join(str(cell) for cell in row))


def report(args, plain: Measurement, traced: Measurement | None) -> dict:
    """Print the human-readable report; return the result ``metrics``."""
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds}  trace {args.trace}")
    rows = []
    for name, (value, samples) in plain.metrics.items():
        rows.append((f"{name:<24}", f"{value:>14.6g}",
                     f"{UNITS[name]:<8}", f"n={samples}",
                     "" if name in END_TO_END else "(no bound)"))
    share = plain.failed / plain.attempted if plain.attempted else 0.0
    rows.append((f"{'failed_share':<24}", f"{share:>14.6g}",
                 f"{'fraction':<8}",
                 f"n={plain.attempted} ({plain.failed} failed)"))
    _print_table("end-to-end (untraced):", rows)
    for key, value in plain.details.get("props", {}).items():
        print(f"  input {key} = {value}")
    for step in plain.details.get("steps", []):
        print("  step " + " ".join(f"{k}={v:.4g}" if isinstance(v, float)
                                   else f"{k}={v}" for k, v in step.items()))
    for phase, p in plain.details.get("phases", {}).items():
        print(f"  phase {phase}: {p['requests']} requests, {p['cells']} "
              f"cells, {len(p['block_s'])} blocks, {p['seconds']:.3f} s "
              f"({p['ref_seconds']:.3f} s at reference speed, mean "
              f"{p['ref_seconds'] / p['requests'] * 1e3:.4f} ms a request), "
              f"{p['fsyncs']} fsyncs {p['fsync_s']:.3f} s, "
              f"store {p['store']}")
    for error in plain.errors + (traced.errors if traced else []):
        print(f"  WRONG: {error}")
    if traced is None:
        return {name: {"value": plain.metrics[name][0], "unit": UNITS[name]}
                for name in END_TO_END}
    import serve_load

    metrics = {}
    for entry in BENCHMARK["per_layer"]:
        name = entry["name"]
        base = name.removeprefix("overhead.")
        if base != name and base in plain.metrics:
            value = traced.metrics[base][0] - plain.metrics[base][0]
        elif name in plain.metrics:
            value = plain.metrics[name][0]
        elif name in traced.layers:
            value = traced.layers[name]
        elif base in serve_load.LATENCY_METRICS:
            value = 0.0  # a serve latency, on another workload
        else:
            raise BenchError(f"no probe computes per-layer metric {name}")
        metrics[name] = {"value": value, "unit": UNITS[name]}
    _print_table("per-layer (traced run):", [
        (f"{name:<36}", f"{entry['value']:>14.6g}", entry["unit"])
        for name, entry in metrics.items()
        if not name.startswith("overhead.")
    ])
    if traced.absent:
        print(f"  absent layers (probe target missing): {traced.absent}")
    for key, value in traced.details.get("props", {}).items():
        print(f"  traced input {key} = {value}")
    _print_table("tracing overhead (traced minus untraced):", [
        (f"{name:<24}", f"untraced {value:.6g}",
         f"traced {traced.metrics[name][0]:.6g}",
         f"overhead {metrics['overhead.' + name]['value']:+.6g} "
         f"{UNITS[name]}")
        for name, (value, _) in plain.metrics.items()
    ])
    return metrics


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an error, so every child is stopped and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd()
    try:
        src = source_root(root)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    use_source(src)
    run_dir = root / SCRATCH_DIR / f"{args.workload}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        plain = measure(args, src, root, run_dir, traced=False)
        traced = (measure(args, src, root, run_dir, traced=True)
                  if args.trace else None)
        metrics = report(args, plain, traced)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()
        except OSError:
            pass  # another run's directory is still there
    runs = [plain] + ([traced] if traced is not None else [])
    for name, entry in metrics.items():
        if not math.isfinite(entry["value"]):
            print(f"error: {name} is not finite", file=sys.stderr)
            return 2
    wrong = sum(m.wrong for m in runs)
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": sum(m.attempted for m in runs),
        "failed": sum(m.failed for m in runs),
        "metrics": metrics,
    }))
    return 0 if wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
