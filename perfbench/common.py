"""Helpers shared by ``run.py``, its workers and the traced launcher.

Nothing here imports the program under test: the ``run.py`` process
stays free of ``repro`` until it checks outputs, and the child
processes it measures start from a fresh interpreter.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

#: Where the benchmark keeps stores, span files and worker results:
#: inside the checkout, so a run reads and writes nothing outside it.
SCRATCH_DIR = ".perfbench"
#: :func:`host_probe` on the reference host (a 2-vCPU virtual machine
#: at its faster speed). Timings are reported at this host speed.
REFERENCE_PROBE_S = 0.005
#: One ``os.fsync`` of a small file on the reference host's disk.
REFERENCE_FSYNC_S = 0.0005
#: The one CPU every measured ``paper`` and ``sweep`` process runs on,
#: from its launch: the host's CPUs change speed independently, and the
#: host probe must time the CPU the work runs on.
MEASURED_CPU = min(os.sched_getaffinity(0))
#: Set-up samples per run: ``setup_s`` is their median.
SETUP_LAUNCHES = 5
#: Share of a run's work that each half of a traced run (the untraced
#: baseline and the traced run) measures, so the pair fits in one run's
#: time limit.
TRACE_SHARE = 0.5


class BenchError(Exception):
    """A benchmark run that cannot produce a valid result."""


def source_root(root: Path) -> Path:
    """The checkout's ``src`` directory, or :class:`BenchError`.

    The benchmark always measures the source tree it sits next to,
    never an installed copy of the package.
    """
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise BenchError(
            f"no program source at {src / 'repro'}; run from the root "
            f"of a checkout"
        )
    return src.resolve()


def use_source(src: Path) -> None:
    """Make ``import repro`` resolve to ``src`` in this process."""
    path = str(src)
    if path in sys.path:
        sys.path.remove(path)
    sys.path.insert(0, path)


def child_env(src: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    # Measured processes load cached bytecode, as an installed package
    # does; the first launch in a checkout writes the cache.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONSTARTUP", None)
    return env


def median(values: list[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise BenchError("median of no samples")
    mid = n // 2
    if n % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


#: The records :func:`host_probe` works on (built on its first call).
_PROBE_ROWS: list[dict] = []


def host_probe() -> float:
    """Seconds a fixed pure-Python object workload takes right now (best
    of three).

    The speed of a shared virtual machine's CPUs changes by up to 1.6x
    between states lasting from a second to minutes, and the two CPUs
    change independently. A measured process runs this probe before and
    after each timed stretch of its own work, and :func:`to_reference`
    scales the stretch to the reference host speed, so a run's figures
    do not depend on the host state it happened to meet. Like the
    program, the probe allocates, serializes, hashes and sorts Python
    objects (2,000 small records through JSON, a dict and a key
    function), so it also slows with the host's cache and memory
    contention, which a tight arithmetic loop does not see. A change to
    the program moves its own time, not the probe's, so it still
    shows."""
    if not _PROBE_ROWS:
        _PROBE_ROWS.extend(
            {"k": f"key{i}", "v": i * 0.5, "t": [i, i + 1, "x" * (i % 7)]}
            for i in range(2000)
        )
    payload = {"rows": _PROBE_ROWS}
    best = math.inf
    for _ in range(3):
        started = time.perf_counter()
        rows = json.loads(json.dumps(payload))["rows"]
        index = {row["k"]: row for row in rows}
        sorted(index, key=lambda k: index[k]["v"])
        best = min(best, time.perf_counter() - started)
    return best


def to_reference(seconds: float, probe_s: float) -> float:
    """``seconds`` measured while :func:`host_probe` took ``probe_s``,
    scaled to the reference host speed."""
    return seconds * REFERENCE_PROBE_S / probe_s


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    if not ordered:
        raise BenchError("percentile of no samples")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[min(rank, len(ordered)) - 1])


class Child:
    """One measured child process, pinned to :data:`MEASURED_CPU`
    unless ``pinned`` is false.

    ``ready_s`` is the time from launch until the child printed its
    ``READY`` line (its set-up time), and ``probe_s`` the host probe the
    child ran right after; :meth:`finish` reaps it with ``wait4`` so the
    peak resident set is that child's own.
    """

    def __init__(self, argv: list[str], src: Path, cwd: Path,
                 stderr_path: Path, ready_line: bool = True,
                 pinned: bool = True) -> None:
        self._stderr = open(stderr_path, "wb")
        self.stderr_path = stderr_path
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=cwd, env=child_env(src), stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE if ready_line else subprocess.DEVNULL,
            stderr=self._stderr,
            preexec_fn=(lambda: os.sched_setaffinity(0, {MEASURED_CPU}))
            if pinned else None,
        )
        self.ready_s: float | None = None
        self.probe_s: float | None = None
        self.peak_rss_mb: float | None = None
        self.exit_code: int | None = None

    def wait_ready(self) -> float:
        """Set-up time at the reference host speed."""
        line = self.proc.stdout.readline()
        self.ready_s = time.perf_counter() - self.started
        probe = self.proc.stdout.readline().split()
        if line.strip() != b"READY" or probe[:1] != [b"PROBE"]:
            self.kill()
            raise BenchError(
                f"child {self.proc.args[1:3]} did not start: "
                f"{self.stderr_tail()}"
            )
        self.probe_s = float(probe[1])
        return to_reference(self.ready_s, self.probe_s)

    def finish(self, timeout_s: float) -> int:
        """Wait for exit (killing it past ``timeout_s``); record the
        exit code and peak RSS."""
        deadline = time.monotonic() + timeout_s
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                self.proc.kill()
                pid, status, usage = os.wait4(self.proc.pid, 0)
                break
            time.sleep(0.01)
        self.exit_code = os.waitstatus_to_exitcode(status)
        self.proc.returncode = self.exit_code
        # ru_maxrss is in KiB on Linux.
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._stderr.close()
        return self.exit_code

    def kill(self) -> None:
        if self.proc.returncode is None:
            self.proc.kill()
            self.finish(5.0)

    def stderr_tail(self, limit: int = 800) -> str:
        if not self._stderr.closed:
            self._stderr.flush()
        try:
            text = self.stderr_path.read_text(errors="replace")
        except OSError:
            return ""
        return text[-limit:].strip()


def write_json(path: Path, payload: object) -> None:
    path.write_text(json.dumps(payload, separators=(",", ":")))


def read_json(path: Path) -> object:
    return json.loads(path.read_text())
