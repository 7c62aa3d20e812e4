"""Tracing probes installed from outside the program under test.

A probe wraps one layer's entry function where its caller looks it up:
a module global such as ``repro.suite.runner:derive_seed``, every
``repro`` module's binding of a function (``...:run_suite*``), or a
class attribute such as ``ArtifactStore.get``. Each call records a span
``(id, parent, name, start, end, request id, data)``; parents come from
a context variable, so spans nest correctly across threads and asyncio
tasks. Spans stay in memory and are written out once, when the process
ends; :func:`layer_metrics` turns them into per-layer counts, self
times and ratios.

A probe whose target no longer exists is reported absent and skipped,
so the benchmark keeps running while the program's layers change.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict, deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

#: Store namespaces reported per layer metric.
STORE_NAMESPACES = ("compile", "soa", "predict", "sweep")


class Tracer:
    """In-memory span recorder shared by every probe of one process.

    A span is a tuple of numbers, strings and tuples, so the cyclic
    garbage collector stops tracking it after one pass; a recorded
    history does not slow the traced program's collections."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.ids = itertools.count(1)
        self.current = contextvars.ContextVar("perfbench_span", default=0)
        self.request = contextvars.ContextVar("perfbench_request",
                                              default=None)
        self.in_cache = contextvars.ContextVar("perfbench_cache",
                                               default=False)
        self.installed: list[str] = []
        self.absent: list[str] = []
        # Engine calls find their coalesced jobs here (see serve probes).
        self.pending_groups: dict[tuple, deque] = defaultdict(deque)
        self.pending_lock = threading.Lock()

    def begin(self) -> tuple:
        """Open a span; calls made until :meth:`end` are its children."""
        sid = next(self.ids)
        return sid, self.current.set(sid), time.perf_counter()

    def end(self, opened: tuple, name: str, data: Any = None,
            t1: float | None = None) -> None:
        """Close a span opened by :meth:`begin` (at ``t1``, or now)."""
        if t1 is None:
            t1 = time.perf_counter()
        sid, token, t0 = opened
        self.current.reset(token)
        self.spans.append((sid, self.current.get(), name, t0, t1,
                           self.request.get(), data))

    @contextmanager
    def span(self, name: str, data: Any = None):
        """Time a block of the benchmark's own code as a span."""
        opened = self.begin()
        try:
            yield
        finally:
            self.end(opened, name, data)

    def dump(self, path: Path) -> None:
        names: dict[str, int] = {}
        rows = []
        for sid, parent, name, t0, t1, rid, data in self.spans:
            index = names.setdefault(name, len(names))
            rows.append([sid, parent, index, t0, t1, rid, data])
        path.write_text(json.dumps({
            "names": list(names),
            "rows": rows,
            "installed": self.installed,
            "absent": self.absent,
        }, separators=(",", ":")))


def load_spans(paths: list[Path]) -> tuple[list[tuple], list[str]]:
    """``(spans, absent probe targets)`` of the span files of one run's
    processes; span ids are renumbered to stay unique across them."""
    spans: list[tuple] = []
    absent: list[str] = []
    base = 0
    for path in paths:
        raw = json.loads(path.read_text())
        names = raw["names"]
        top = base
        for sid, parent, index, t0, t1, rid, data in raw["rows"]:
            spans.append((sid + base, parent + base if parent else 0,
                          names[index], t0, t1, rid, data))
            top = max(top, sid + base)
        base = top
        absent.extend(a for a in raw["absent"] if a not in absent)
    return spans, absent


# -- installation ------------------------------------------------------------


def _sites(spec: str) -> list[tuple[Any, str, Any]]:
    """``(owner, attr, value)`` of every binding ``spec`` names, or none
    if its target no longer exists. ``module:attr`` and
    ``module:Class.method`` name one binding; a trailing ``*`` adds
    every loaded ``repro`` module's binding of the same function, which
    is where its callers look it up."""
    everywhere = spec.endswith("*")
    module_name, _, path = spec.rstrip("*").partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError:
        return []
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return []
    attr = parts[-1]
    if isinstance(owner, type):
        for klass in owner.__mro__:
            if attr in vars(klass):
                return [(owner, attr, vars(klass)[attr])]
        return []
    if not hasattr(owner, attr):
        return []
    value = getattr(owner, attr)
    if not everywhere:
        return [(owner, attr, value)]
    return [
        (module, key, value)
        for name, module in list(sys.modules.items())
        if name == "repro" or name.startswith("repro.")
        for key, bound in list(vars(module).items())
        if bound is value
    ]


def _patch(tracer: Tracer, spec: str,
           make: Callable[[Callable], Callable]) -> None:
    """Replace every binding ``spec`` names with ``make(original)``
    (one wrapper for all of them); a target that no longer exists is
    recorded absent."""
    sites = _sites(spec)
    if not sites:
        tracer.absent.append(spec)
        return
    value = sites[0][2]
    if isinstance(value, (classmethod, staticmethod)):
        wrapped = type(value)(make(value.__func__))
    else:
        wrapped = make(value)
    for owner, attr, _ in sites:
        setattr(owner, attr, wrapped)
    tracer.installed.append(spec)


DataFn = Callable[[tuple, dict, Any], Any]


def timed(tracer: Tracer, name: str | Callable[[tuple], str],
          data: DataFn | None = None) -> Callable[[Callable], Callable]:
    """A ``make`` for :func:`_patch`: one span per call, named ``name``
    (or ``name(args)``), carrying ``data(args, kwargs, result)``."""
    def label(args) -> str:
        return name(args) if callable(name) else name

    def make(fn: Callable) -> Callable:
        if inspect.iscoroutinefunction(fn):
            async def wrapper(*args, **kwargs):
                opened = tracer.begin()
                result = None
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    t1 = time.perf_counter()
                    tracer.end(opened, label(args), data and data(
                        args, kwargs, result), t1)
        else:
            def wrapper(*args, **kwargs):
                opened = tracer.begin()
                result = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    t1 = time.perf_counter()
                    tracer.end(opened, label(args), data and data(
                        args, kwargs, result), t1)
        return functools.wraps(fn)(wrapper)

    return make


# -- the layers --------------------------------------------------------------


def _cells_batch(args, kwargs, result):
    kernels = args[1] if len(args) > 1 else kwargs.get("kernels", ())
    return len(kernels)


def _cells_grid(args, kwargs, result):
    kernels = args[1] if len(args) > 1 else kwargs.get("kernels", ())
    placements = (args[2] if len(args) > 2
                  else kwargs.get("placements", ()))
    return len(kernels) * len(placements)


def _memo_one(args, kwargs, result):
    return (1, 0 if result is None else 1)


def _memo_many(args, kwargs, result):
    if result is None:
        return (len(args[1]), 0)
    return (len(result), sum(1 for r in result if r is not None))


def _store_name(op: str):
    def name(args) -> str:
        return f"store.{args[1]}.{op}"
    return name


def _hit(args, kwargs, result):
    return 0 if result is None else 1


def _store_write(args, kwargs, result):
    if not result:
        return 0
    store, namespace, key = args[0], args[1], args[2]
    try:
        return store._path(namespace, key).stat().st_size
    except (AttributeError, OSError):
        return 0


def _merged(args, kwargs, result):
    return 0 if result is None or result[1] else 1


def _acquired(args, kwargs, result):
    return 1 if result else 0


def _compile_cache(tracer: Tracer, lookups: Callable[[tuple], int]):
    """Compile-cache entry: one span per outermost lookup, so a
    composite miss that falls through to ``analyze_many`` is counted
    once. Real compilations inside are its ``compiler.analyze``
    children, which makes hits = lookups - children."""
    def make(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.in_cache.get():
                return fn(*args, **kwargs)
            flag = tracer.in_cache.set(True)
            opened = tracer.begin()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(opened, "compiler.cache", lookups(args))
                tracer.in_cache.reset(flag)
        return wrapper

    return make


def install_library(tracer: Tracer) -> None:
    """Probes of the library layers (every workload)."""
    probes = {
        "repro.suite.runner:run_suite*": timed(tracer, "suite.run_suite"),
        "repro.compiler.vectorizer:analyze*": timed(
            tracer, "compiler.analyze"),
        "repro.perfmodel.execution:simulate_kernel*": timed(
            tracer, "perfmodel.simulate_kernel"),
        "repro.suite.runner:derive_seed": timed(tracer, "util.rng.noise"),
        "repro.suite.runner:noise_factors": timed(tracer, "util.rng.noise"),
        "repro.perfmodel.batch:lower_kernels*": timed(
            tracer, "perfmodel.lower_kernels"),
        "repro.perfmodel.batch:predict_grid*": timed(
            tracer, "perfmodel.predict_grid", _cells_grid),
        "repro.perfmodel.batch:predict_batch*": timed(
            tracer, "perfmodel.predict_batch", _cells_batch),
        "repro.suite.memo:PredictionMemo.get_or_compute": timed(
            tracer, "suite.memo", _memo_one),
        "repro.suite.memo:PredictionMemo.peek": timed(
            tracer, "suite.memo", _memo_one),
        "repro.suite.memo:PredictionMemo.peek_many": timed(
            tracer, "suite.memo", _memo_many),
        "repro.suite.memo:PredictionMemo.put": timed(tracer, "suite.memo"),
        "repro.suite.memo:PredictionMemo.put_many": timed(tracer,
                                                          "suite.memo"),
        "repro.store.artifact:ArtifactStore.get": timed(
            tracer, _store_name("read"), _hit),
        "repro.store.artifact:ArtifactStore.put": timed(
            tracer, _store_name("write"), _store_write),
        "repro.telemetry:TelemetrySummary.capture": timed(
            tracer, "telemetry.capture"),
        "repro.compiler.cache:CompileCache.analyze": _compile_cache(
            tracer, lambda args: 1),
        "repro.compiler.cache:CompileCache.analyze_many": _compile_cache(
            tracer, lambda args: len(args[2])),
        "repro.compiler.cache:CompileCache.analyze_suite": _compile_cache(
            tracer, lambda args: len(args[2])),
    }
    for spec, make in probes.items():
        _patch(tracer, spec, make)


# -- serve-only probes -------------------------------------------------------


def _group_key(cpu, config, kernel_names) -> tuple:
    return (id(cpu), config, tuple(kernel_names))


def install_serve(tracer: Tracer) -> None:
    """The library probes plus the serving layers'."""
    install_library(tracer)

    def put(original):
        # Response-cache puts carry the evictions they caused.
        @functools.wraps(original)
        def probed_put(self, *args, **kwargs):
            before = getattr(self, "_evictions", 0)
            opened = tracer.begin()
            try:
                return original(self, *args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer.end(opened, "serve.respcache.put",
                           getattr(self, "_evictions", 0) - before, t1)
        return probed_put

    def dispatch(original):
        # The request root: one span per dispatched request, carrying the
        # client's X-Request-Id so server spans join client latencies.
        @functools.wraps(original)
        async def probed_dispatch(self, request, *args, **kwargs):
            rid = request.headers.get("x-request-id")
            rtoken = tracer.request.set(rid)
            opened = tracer.begin()
            try:
                return await original(self, request, *args, **kwargs)
            finally:
                tracer.end(opened, "serve.request")
                tracer.request.reset(rtoken)
        return probed_dispatch

    # Coalescer: stamp each job at submit; each group registers its jobs
    # so the engine call (on an executor thread) can report the
    # submit-to-engine-start wait and the request ids it served.
    def submit(original):
        @functools.wraps(original)
        async def probed_submit(self, job, *args, **kwargs):
            opened = tracer.begin()
            try:
                job._perfbench = (opened[2], tracer.request.get())
            except AttributeError:
                pass
            try:
                return await original(self, job, *args, **kwargs)
            finally:
                tracer.end(opened, "serve.coalescer.submit")
        return probed_submit

    def run_group(original):
        @functools.wraps(original)
        async def probed_run_group(self, jobs, *args, **kwargs):
            names: list[str] = []
            for job in jobs:
                if job.kernel.name not in names:
                    names.append(job.kernel.name)
            key = _group_key(jobs[0].cpu, jobs[0].config, names)
            with tracer.pending_lock:
                tracer.pending_groups[key].append(list(jobs))
            return await original(self, jobs, *args, **kwargs)
        return probed_run_group

    def engine(original):
        @functools.wraps(original)
        def probed_engine(cpu, config, *args, **kwargs):
            kernels = kwargs.get("kernels", args[0] if args else ())
            key = _group_key(cpu, config, [k.name for k in kernels])
            with tracer.pending_lock:
                queue = tracer.pending_groups.get(key)
                jobs = queue.popleft() if queue else []
                if queue is not None and not queue:
                    del tracer.pending_groups[key]
            opened = tracer.begin()
            stamps = [getattr(job, "_perfbench", (opened[2], None))
                      for job in jobs]
            try:
                return original(cpu, config, *args, **kwargs)
            finally:
                tracer.end(opened, "serve.engine", (
                    len(jobs), sum(opened[2] - s[0] for s in stamps),
                    tuple(s[1] for s in stamps)))
        return probed_engine

    probes = {
        "repro.serve.http:HttpRequest.json": timed(tracer,
                                                   "serve.http.parse"),
        "repro.serve.http:json_body": timed(tracer, "serve.http.render"),
        "asyncio.streams:StreamWriter.write": timed(tracer,
                                                    "serve.http.write"),
        "asyncio.streams:StreamWriter.drain": timed(tracer,
                                                    "serve.http.write"),
        "repro.serve.respcache:ResponseCache.get": timed(
            tracer, "serve.respcache.get", _hit),
        "repro.serve.singleflight:SingleFlight.join": timed(
            tracer, "serve.singleflight.join", _merged),
        "repro.serve.server:PredictionServer._await_flight": timed(
            tracer, "serve.singleflight.wait"),
        "repro.serve.admission:AdmissionController.try_acquire": timed(
            tracer, "serve.admission", _acquired),
        "repro.serve.respcache:ResponseCache.put": put,
        "repro.serve.server:PredictionServer._dispatch": dispatch,
        "repro.serve.coalescer:Coalescer.submit": submit,
        "repro.serve.coalescer:Coalescer._run_group": run_group,
        # The engine call the coalescer runs (a subset of run_suite).
        "repro.serve.coalescer:run_suite": engine,
    }
    for spec, make in probes.items():
        _patch(tracer, spec, make)


# -- aggregation -------------------------------------------------------------


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    data: list = field(default_factory=list)


def aggregate(spans: list[tuple]) -> dict[str, LayerStats]:
    """Per span name: calls, inclusive seconds, self seconds (duration
    minus the union of its children's intervals) and the data list."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for sid, parent, name, t0, t1, rid, data in spans:
        if parent:
            children[parent].append((t0, t1))
    out: dict[str, LayerStats] = {}
    for sid, parent, name, t0, t1, rid, data in spans:
        stats = out.get(name)
        if stats is None:
            stats = out[name] = LayerStats()
        duration = t1 - t0
        covered = 0.0
        kids = children.get(sid)
        if kids:
            kids.sort()
            end = t0
            for c0, c1 in kids:
                c0 = max(c0, end)
                c1 = min(c1, t1)
                if c1 > c0:
                    covered += c1 - c0
                    end = c1
        stats.calls += 1
        stats.total_s += duration
        stats.self_s += max(0.0, duration - covered)
        if data is not None:
            stats.data.append(data)
    return out


def _child_counts(spans: list[tuple], parent_name: str,
                  child_name: str) -> int:
    parents = {sid for sid, _, name, *_ in spans if name == parent_name}
    return sum(1 for _, parent, name, *_ in spans
               if name == child_name and parent in parents)


def _without_checks(spans: list[tuple]) -> list[tuple]:
    """Drop the benchmark's own output checks (``bench.check`` spans)
    and every call made inside them."""
    excluded: set[int] = set()
    kept = []
    # A child's id is always drawn after its parent's.
    for span in sorted(spans, key=lambda s: s[0]):
        if span[2] == "bench.check" or span[1] in excluded:
            excluded.add(span[0])
        else:
            kept.append(span)
    return kept


def layer_metrics(spans: list[tuple]) -> dict[str, float]:
    """Every per-layer value from one run's spans, by the name
    ``BENCHMARK.json`` lists it under. Layers the workload never entered
    read 0 (the "no change predicted" side of the benchmark's
    predictions)."""
    spans = _without_checks(spans)
    agg = aggregate(spans)
    empty = LayerStats()

    def get(name: str) -> LayerStats:
        return agg.get(name, empty)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: dict[str, float] = {}
    out["experiments.calls"] = get("experiments.run").calls
    out["experiments.render_s"] = get("experiments.render").self_s
    out["suite.run_suite.calls"] = get("suite.run_suite").calls
    out["suite.run_suite.self_s"] = get("suite.run_suite").self_s
    out["compiler.analyze.calls"] = get("compiler.analyze").calls
    out["compiler.analyze_s"] = get("compiler.analyze").self_s
    lookups = sum(get("compiler.cache").data)
    misses = _child_counts(spans, "compiler.cache", "compiler.analyze")
    out["compiler.cache.lookups"] = lookups
    out["compiler.cache.hit_ratio"] = ratio(lookups - misses, lookups)
    out["perfmodel.simulate_kernel.calls"] = get(
        "perfmodel.simulate_kernel").calls
    out["perfmodel.simulate_kernel_s"] = get(
        "perfmodel.simulate_kernel").self_s
    out["util.rng.noise.calls"] = get("util.rng.noise").calls
    out["util.rng.noise_s"] = get("util.rng.noise").self_s
    out["perfmodel.lower_kernels_s"] = get("perfmodel.lower_kernels").self_s
    for layer in ("predict_grid", "predict_batch"):
        stats = get(f"perfmodel.{layer}")
        out[f"perfmodel.{layer}.calls"] = stats.calls
        out[f"perfmodel.{layer}.cells"] = sum(stats.data)
        out[f"perfmodel.{layer}_s"] = stats.self_s
    memo = get("suite.memo")
    memo_lookups = sum(d[0] for d in memo.data)
    out["suite.memo.lookups"] = memo_lookups
    out["suite.memo.hit_ratio"] = ratio(sum(d[1] for d in memo.data),
                                        memo_lookups)
    out["suite.memo_s"] = memo.self_s
    for ns in STORE_NAMESPACES:
        read = get(f"store.{ns}.read")
        write = get(f"store.{ns}.write")
        out[f"store.{ns}.reads"] = read.calls
        out[f"store.{ns}.read_hits"] = sum(read.data)
        out[f"store.{ns}.read_s"] = read.self_s
        out[f"store.{ns}.writes"] = write.calls
        out[f"store.{ns}.write_s"] = write.self_s
        out[f"store.{ns}.write_bytes"] = sum(write.data)
    out["suite.sweep.calls"] = get("suite.sweep").calls
    out["suite.sweep.self_s"] = get("suite.sweep").self_s
    out["suite.to_csv_s"] = get("suite.to_csv").self_s
    out["serve.http.parse_s"] = get("serve.http.parse").self_s
    out["serve.http.render_s"] = get("serve.http.render").self_s
    out["serve.http.write_s"] = get("serve.http.write").self_s
    rc_get = get("serve.respcache.get")
    out["serve.respcache.gets"] = rc_get.calls
    out["serve.respcache.hit_ratio"] = ratio(sum(rc_get.data), rc_get.calls)
    out["serve.respcache.get_s"] = rc_get.self_s
    out["serve.respcache.put_s"] = get("serve.respcache.put").self_s
    out["serve.respcache.evictions"] = sum(get("serve.respcache.put").data)
    join = get("serve.singleflight.join")
    out["serve.singleflight.joins"] = join.calls
    out["serve.singleflight.merged"] = sum(join.data)
    out["serve.singleflight.wait_s"] = get("serve.singleflight.wait").total_s
    admission = get("serve.admission")
    out["serve.admission.acquired"] = sum(admission.data)
    out["serve.admission.refused"] = admission.calls - sum(admission.data)
    engine = get("serve.engine")
    out["serve.coalescer.jobs"] = get("serve.coalescer.submit").calls
    out["serve.coalescer.batch_width"] = ratio(
        sum(d[0] for d in engine.data), engine.calls)
    out["serve.coalescer.wait_s"] = sum(d[1] for d in engine.data)
    out["serve.engine.calls"] = engine.calls
    out["serve.engine_s"] = engine.total_s
    out["telemetry.capture.calls"] = get("telemetry.capture").calls
    out["telemetry.capture_s"] = get("telemetry.capture").self_s
    return out
