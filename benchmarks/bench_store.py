"""Cross-process benchmark: the persistent store's second-process win.

``bench_sweep.py`` measures the store's warm tiers *in-process*; this
benchmark proves the same story across real process boundaries — the
scenario the store exists for. Four subprocesses run against one
artifact store directory:

1. ``repro warm --store DIR`` — persist the compile catalog + SoA;
2. ``repro sweep --store DIR`` — the priming sweep: computes the grid
   cold-ish (compiles restored from disk) and persists the whole-sweep
   artifact;
3. ``repro sweep --store DIR`` again — the *second process*: fresh
   interpreter, fresh caches, warmed store. Must restore the whole
   sweep from one artifact read (``restored: true`` in its stats),
   recompile nothing and write nothing to the store;
4. ``repro sweep --no-cache --engine scalar`` — the uncached scalar
   reference the speedup is measured against.

The CSV output of the warm run (3) and the uncached reference (4) must
be identical line for line, and the in-process sweep seconds (reported
via ``--stats-out``, which excludes interpreter/NumPy start-up) must
clear ``warm_disk_speedup >= FLOOR``. Results land in
``BENCH_store.json``.

Run directly (``python benchmarks/bench_store.py [--smoke]``) or via
pytest.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
OUTPUT = REPO / "BENCH_store.json"

#: Speedup floor of the second-process sweep over the uncached scalar
#: reference (in-process seconds, so interpreter start-up is excluded).
#: The in-process bench clears >= 8x; the cross-process floor is looser
#: because the subprocess grids run nearer the fixed-cost regime.
FULL_FLOOR = 4.0
SMOKE_FLOOR = 2.0

_FULL_GRID = ("--threads", "1,4,8,16,32,64", "--placements",
              "block,cyclic", "--precisions", "fp32,fp64")
_SMOKE_GRID = ("--threads", "1,8,64", "--placements", "block,cyclic",
               "--precisions", "fp32,fp64")


def _run_cli(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, env=env, cwd=str(REPO),
    )
    if proc.returncode != 0:
        raise AssertionError(
            f"repro {' '.join(args)} exited {proc.returncode}:\n"
            f"{proc.stderr}"
        )
    return proc


def run_benchmark(smoke: bool = False) -> dict:
    grid = _SMOKE_GRID if smoke else _FULL_GRID
    floor = SMOKE_FLOOR if smoke else FULL_FLOOR
    sweep_args = ("sweep", "--cpu", "sg2042", "--kernels", "all",
                  *grid, "--csv")
    with tempfile.TemporaryDirectory(prefix="bench-store-") as tmp:
        store_dir = str(Path(tmp) / "store")
        stats = {name: str(Path(tmp) / f"{name}.json")
                 for name in ("prime", "warm", "cold")}

        t0 = time.perf_counter()
        warm_out = _run_cli("warm", "--store", store_dir,
                            "--cpu", "sg2042")
        warm_cmd_seconds = time.perf_counter() - t0

        prime = _run_cli(*sweep_args, "--store", store_dir,
                         "--stats-out", stats["prime"])
        second = _run_cli(*sweep_args, "--store", store_dir,
                          "--stats-out", stats["warm"])
        cold = _run_cli(*sweep_args, "--no-cache", "--engine", "scalar",
                        "--stats-out", stats["cold"])

        prime_stats = json.loads(Path(stats["prime"]).read_text())
        second_stats = json.loads(Path(stats["warm"]).read_text())
        cold_stats = json.loads(Path(stats["cold"]).read_text())

    # The second process must have restored the whole sweep from disk:
    # nothing compiled, nothing written, one sweep-artifact hit.
    assert not prime_stats["restored"], (
        "the priming sweep found a sweep artifact in a fresh store"
    )
    assert second_stats["restored"], (
        "the second process recomputed a grid the store already holds"
    )
    cache = second_stats["cache_stats"]
    assert cache["compile_misses"] == 0, (
        f"second process recompiled {cache['compile_misses']} kernels"
    )
    puts = {ns: st["puts"] for ns, st in second_stats["store"].items()}
    assert not any(puts.values()), (
        f"second process wrote store artifacts: {puts}"
    )
    assert second_stats["store"]["sweep"]["hits"] >= 1
    assert "StoreWarning" not in second.stderr, second.stderr

    # Same answer, across processes and engines: the warm run's CSV
    # must match the uncached scalar reference byte for byte.
    assert second.stdout == cold.stdout, (
        "store-restored sweep CSV diverged from the uncached reference"
    )
    assert second_stats["points"] == cold_stats["points"]
    assert second_stats["failures"] == 0 == cold_stats["failures"]

    warm_disk_speedup = cold_stats["seconds"] / second_stats["seconds"]
    return {
        "benchmark": "store_cross_process",
        "mode": "smoke" if smoke else "full",
        "points": second_stats["points"],
        "warm_cmd_seconds": round(warm_cmd_seconds, 3),
        "warm_cmd_report": warm_out.stdout.splitlines()[0],
        "prime_seconds": round(prime_stats["seconds"], 6),
        "second_process_seconds": round(second_stats["seconds"], 6),
        "cold_scalar_seconds": round(cold_stats["seconds"], 6),
        "warm_disk_speedup": round(warm_disk_speedup, 2),
        "warm_disk_speedup_floor": floor,
        "second_process_restored": second_stats["restored"],
        "store_stats": second_stats["store"],
        "csv_identical": True,
    }


def _report(record: dict) -> str:
    return (
        f"cross-process store benchmark ({record['mode']}, "
        f"{record['points']} points):\n"
        f"  warm command:        {record['warm_cmd_seconds']:7.2f} s  "
        f"({record['warm_cmd_report']})\n"
        f"  priming sweep:       "
        f"{record['prime_seconds'] * 1e3:7.1f} ms (in-process)\n"
        f"  second process:      "
        f"{record['second_process_seconds'] * 1e3:7.1f} ms "
        f"(restored: {record['second_process_restored']})\n"
        f"  cold scalar:         "
        f"{record['cold_scalar_seconds'] * 1e3:7.1f} ms\n"
        f"  warm-disk speedup: {record['warm_disk_speedup']:6.1f}x  "
        f"(floor {record['warm_disk_speedup_floor']}x)   "
        f"CSV identical: {record['csv_identical']}"
    )


def test_store_survives_process_boundaries():
    record = run_benchmark(smoke=True)
    print("\n" + _report(record))
    assert record["warm_disk_speedup"] >= record["warm_disk_speedup_floor"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="reduced grid with a looser speedup floor (CI)",
    )
    parser.add_argument(
        "--output", default=str(OUTPUT), metavar="PATH",
        help="where to write the JSON record (default: repo root)",
    )
    args = parser.parse_args(argv)
    record = run_benchmark(smoke=args.smoke)
    Path(args.output).write_text(json.dumps(record, indent=2) + "\n")
    print(_report(record))
    print(f"wrote {args.output}")
    if record["warm_disk_speedup"] < record["warm_disk_speedup_floor"]:
        print("FAIL: cross-process warm-disk speedup below floor",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
