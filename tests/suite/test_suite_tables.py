"""Per-configuration tables: each kernel compiled and prepared once.

A compile report depends on the compile configuration and the kernel, a
prediction prelude on the machine, the precision, the kernel and its
report; neither depends on the kernel list a request names. So the
compile table keeps one row per suite kernel per compile configuration,
and the prelude table one row per (kernel, report) per (machine,
precision, size scale), whatever subsets arrive, and every request gets
the bits it would get alone. Counts start from empty tables
(``clear_tables``).
"""

import itertools
import sys
import threading
from dataclasses import replace

import pytest

import repro.compiler.vectorizer as vectorizer
import repro.perfmodel.batch as batch
from repro.kernels.base import KernelClass
from repro.kernels.registry import (
    clear_tables,
    get_kernel,
    kernels_in_class,
    suite_positions,
)
from repro.perfmodel.placement import reference_mode
from repro.store import ArtifactStore
from repro.suite.config import Placement, Precision, RunConfig
from repro.suite.memo import SuiteCaches
from repro.suite.runner import run_suite
from repro.suite.sweep import sweep

PRECISIONS = (Precision.FP32, Precision.FP64)
GRID = dict(threads=(1, 8), placements=(Placement.CYCLIC,),
            precisions=PRECISIONS)
#: Deterministic runs: a prediction is its run time.
EXACT = RunConfig(threads=8, runs=1, noise_sigma=0.0)


def class_subsets() -> list[list]:
    """The 63 non-empty unions of kernel classes, as fresh kernels."""
    classes = [kernels_in_class(klass) for klass in KernelClass]
    return [
        [kernel for i in picked for kernel in classes[i]]
        for size in range(1, len(classes) + 1)
        for picked in itertools.combinations(range(len(classes)), size)
    ]


def scalar_run_suite(*args, **kwargs):
    """``run_suite`` through ``simulate_kernel``, kernel by kernel."""
    with reference_mode():
        return run_suite(*args, **kwargs)


def _tables() -> list[int]:
    return [len(tables) for tables in (
        vectorizer._REPORTS, batch._LOWERING, batch._PRELUDES,
    )]


@pytest.fixture
def prelude_rows(monkeypatch):
    """Count of prelude rows built, from empty tables."""
    built = {"rows": 0}
    real = batch._build_prelude

    def counting(cpu, soa, *args, **kwargs):
        built["rows"] += len(soa)
        return real(cpu, soa, *args, **kwargs)

    clear_tables()
    monkeypatch.setattr(batch, "_build_prelude", counting)
    return built


class TestOncePerConfiguration:
    def test_class_subsets_compile_and_prepare_each_kernel_once(
        self, sg2042, compile_counts, prelude_rows
    ):
        subsets = class_subsets()
        assert len(subsets) == 63
        for subset in subsets:
            sweep(sg2042, subset, **GRID)
        assert compile_counts["analyze"] == 64
        assert prelude_rows["rows"] == 64 * len(PRECISIONS)
        assert _tables() == [1, 1, len(PRECISIONS)]
        assert [len(t) for t in batch._PRELUDES.tables()] == [64, 64]
        for subset in subsets:
            sweep(sg2042, subset, **GRID)
        assert compile_counts["analyze"] == 64
        assert prelude_rows["rows"] == 64 * len(PRECISIONS)

    def test_the_suite_takes_one_layer_as_it_is(self, sg2042,
                                                prelude_rows):
        """After any subsets, the whole suite under one compile
        configuration fills one layer in suite order: its prelude is
        that layer, and asking again builds and gathers nothing."""
        run_suite(sg2042, EXACT, kernels=kernels_in_class("stream"))
        first = run_suite(sg2042, EXACT)  # fills the layer's 59 others
        assert run_suite(sg2042, EXACT) == first
        (table,) = batch._PRELUDES.tables()
        assert (len(table), len(table.held)) == (64, 1)
        prelude = table.views[0]
        assert all(column.base is not None for column in prelude)
        assert run_suite(sg2042, EXACT) == first
        assert table.views == {0: prelude}
        assert table.views[0] is prelude
        assert prelude_rows["rows"] == 64


class TestLayers:
    def test_several_reports_per_kernel_take_separate_layers(self, sg2042):
        """A kernel asked with several reports, also within one request,
        gets one row per report, each equal to a direct build."""
        from repro.compiler.model import XUANTIE_GCC_8_4
        from repro.compiler.vectorizer import analyze
        from repro.machine.vector import DType

        kernels = [get_kernel(name) for name in ("TRIAD", "DOT", "GEMM")]
        base = [analyze(XUANTIE_GCC_8_4, k, sg2042.core.isa)
                for k in kernels]
        tuned = [[replace(r, efficiency=r.efficiency * f) for r in base]
                 for f in (0.5, 0.25)]
        clear_tables()
        table = batch._PRELUDES((sg2042, DType.FP64, 1.0))
        positions = suite_positions(kernels)
        table.prelude(positions[:2], base[:2])
        table.prelude(positions[:1], tuned[0][:1])
        picks = [(0, tuned[1]), (0, tuned[0]), (2, base), (2, tuned[0]),
                 (0, tuned[1]), (1, base)]
        prelude = table.prelude(
            [positions[i] for i, _ in picks],
            [replace(reports[i]) for i, reports in picks],  # equal copies
        )
        soa = batch.lower_kernels(tuple(kernels[i] for i, _ in picks))
        direct = batch._build_prelude(
            sg2042, soa, DType.FP64, [reports[i] for i, reports in picks],
            soa.default_sizes,
        )
        for got, want in zip(prelude, direct):
            assert got.tolist() == want.tolist()
        assert len(table) == 6
        assert [sum(r is not None for r in layer)
                for layer in table.held] == [3, 2, 1]


class TestEqualBits:
    def test_a_subset_before_and_after_the_suite(self, sg2042):
        clear_tables()
        subset = (kernels_in_class("lcals") + kernels_in_class("stream"))
        before = run_suite(sg2042, EXACT, kernels=subset)
        whole = run_suite(sg2042, EXACT)
        after = run_suite(sg2042, EXACT, kernels=subset)
        assert after == before
        assert after == scalar_run_suite(sg2042, EXACT, kernels=subset)
        for name, run in after.runs.items():
            assert whole.runs[name] == run
        clear_tables()
        alone = sweep(sg2042, subset, **GRID)
        sweep(sg2042, kernels_in_class("basic"), **GRID)
        assert sweep(sg2042, subset, **GRID).to_csv() == alone.to_csv()

    def test_a_retuned_shim_bypasses_the_tables(self, sg2042):
        """A shim carries traits of its own, so no table row can stand
        for it: its request computes everything directly, every time,
        and still equals the scalar model."""
        clear_tables()
        triad = get_kernel("TRIAD")
        shim = type(triad)()
        shim.traits = replace(
            triad.traits, reads_per_iter=triad.traits.reads_per_iter * 4
        )
        kernels = [shim, get_kernel("DOT")]
        first = run_suite(sg2042, EXACT, kernels=kernels)
        assert _tables() == [0, 0, 0]
        assert first == scalar_run_suite(sg2042, EXACT, kernels=kernels)
        assert first.time("TRIAD") != run_suite(
            sg2042, EXACT, kernels=[triad]).time("TRIAD")
        assert run_suite(sg2042, EXACT, kernels=kernels) == first

    def test_store_reports_never_fill_the_compile_table(
        self, sg2042, tmp_path, compile_counts
    ):
        """A ``--store`` read restores its reports without compiling but
        leaves the compile table as it is: a later storeless request
        compiles its kernels, and a store read after that gets the
        table's own report objects."""
        kernels = kernels_in_class("stream")
        store = ArtifactStore(tmp_path / "store")
        written = run_suite(sg2042, EXACT, kernels=kernels,
                            caches=SuiteCaches.persistent(store))
        clear_tables()
        compiled = compile_counts["analyze"]
        restored = run_suite(sg2042, EXACT, kernels=kernels,
                             caches=SuiteCaches.persistent(
                                 ArtifactStore(store.root)))
        assert compile_counts["analyze"] == compiled
        plain = run_suite(sg2042, EXACT, kernels=kernels)
        assert compile_counts["analyze"] == compiled + len(kernels)
        again = run_suite(sg2042, EXACT, kernels=kernels,
                          caches=SuiteCaches.persistent(
                              ArtifactStore(store.root)))
        assert restored == written == plain == again
        for name, run in plain.runs.items():
            assert again.runs[name].report is run.report

    def test_a_stale_composite_stays_out_of_storeless_results(
        self, sg2042, tmp_path
    ):
        """A composite that decodes but differs from what ``analyze``
        gives (written by an older model) is served as read to its
        ``--store`` request only; storeless requests before and after it
        equal a fresh compile."""
        from repro.store.codecs import decode_report, encode_report

        kernels = kernels_in_class("stream")
        store = ArtifactStore(tmp_path / "store")
        written = []
        put = store.put

        def recording(namespace, key, payload, *args, **kwargs):
            written.append((namespace, key))
            return put(namespace, key, payload, *args, **kwargs)

        store.put = recording
        run_suite(sg2042, EXACT, kernels=kernels,
                  caches=SuiteCaches.persistent(store))
        ((namespace, key),) = [
            (ns, k) for ns, k in written if ns == "compile"
        ]
        payload = store.get(namespace, key)
        stale = [
            encode_report(replace(decode_report(entry),
                                  efficiency=0.5, reason="stale"))
            for entry in payload["reports"]
        ]
        store.put(namespace, key, {"reports": stale})

        def fresh():
            clear_tables()
            return run_suite(sg2042, EXACT, kernels=kernels)

        expected = fresh()
        for first_storeless in (False, True):
            clear_tables()
            if first_storeless:
                assert run_suite(sg2042, EXACT, kernels=kernels) == expected
            read = run_suite(sg2042, EXACT, kernels=kernels,
                             caches=SuiteCaches.persistent(
                                 ArtifactStore(store.root)))
            assert {run.report.reason for run in read.runs.values()} == {
                "stale"}
            assert read != expected
            assert run_suite(sg2042, EXACT, kernels=kernels) == expected
        assert fresh() == expected


class TestScaledSizes:
    SCALE = 16.0

    def test_a_scale_takes_its_own_prelude_table(self, sg2042,
                                                 prelude_rows):
        """Whole suites at a size scale over several thread counts (the
        sockets sequel) build each (precision, kernel) row once in a
        (machine, precision, scale) table, subsets at that scale after
        them build nothing, and every result equals the scalar
        model's."""
        scaled = replace(EXACT, size_scale=self.SCALE)
        runs = {}
        for precision in PRECISIONS:
            for threads in (1, 4, 16, 64):
                config = replace(scaled, threads=threads,
                                 precision=precision)
                runs[config] = run_suite(sg2042, config)
        assert prelude_rows["rows"] == 64 * len(PRECISIONS)
        keys = [(t.cpu, t.precision, t.sizes.tolist())
                for t in batch._PRELUDES.tables()]
        assert len(keys) == len(PRECISIONS)
        subset = kernels_in_class("stream") + kernels_in_class("apps")
        for config, whole in runs.items():
            part = run_suite(sg2042, config, kernels=subset)
            assert part == scalar_run_suite(sg2042, config,
                                            kernels=subset)
            for name, run in part.runs.items():
                assert whole.runs[name] == run
        assert prelude_rows["rows"] == 64 * len(PRECISIONS)
        for config in list(runs)[::3]:
            assert runs[config] == scalar_run_suite(sg2042, config)

    def test_default_and_scaled_rows_never_mix(self, sg2042,
                                               prelude_rows):
        """A scaled request after default-size ones (and the other way
        round) gets its own table's rows: the bits it gets alone."""
        kernels = kernels_in_class("stream")
        scaled = replace(EXACT, size_scale=self.SCALE)
        alone = {}
        for config in (EXACT, scaled):
            clear_tables()
            alone[config] = run_suite(sg2042, config, kernels=kernels)
        clear_tables()
        for config in (EXACT, scaled, EXACT, scaled):
            assert run_suite(sg2042, config, kernels=kernels) == alone[
                config]
        assert alone[EXACT] != alone[scaled]
        assert len(batch._PRELUDES) == 2

    def test_unscaled_explicit_sizes_build_directly(self, sg2042):
        """Sizes no scale gave take no table row, and equal the scalar
        model at those sizes."""
        from repro.compiler.model import XUANTIE_GCC_8_4
        from repro.compiler.vectorizer import analyze
        from repro.machine.vector import DType
        from repro.openmp.affinity import assign_cores
        from repro.perfmodel.execution import simulate_kernel

        clear_tables()
        kernels = [get_kernel(name) for name in ("TRIAD", "DOT")]
        reports = [analyze(XUANTIE_GCC_8_4, k, sg2042.core.isa)
                   for k in kernels]
        sizes = (12_345, 6_789)
        cores = assign_cores(sg2042.topology, 4, Placement.CYCLIC)
        got = batch.predict_batch(sg2042, kernels, cores, DType.FP64,
                                  reports, sizes)
        assert len(batch._PRELUDES) == 0
        for kernel, report, size, result in zip(kernels, reports, sizes,
                                                got):
            assert result == simulate_kernel(
                kernel, sg2042, cores, DType.FP64, report, size)


class TestConcurrentFills:
    ROUNDS = 40

    def test_eight_threads_filling_one_table(self, sg2042):
        """Eight threads fill one empty prelude table together, in
        several rounds, over overlapping class subsets and with two
        reports per kernel (vectorized or not): each gets the bits it
        gets alone, and each (kernel, report) row is built once."""
        subsets = class_subsets()[::8][:8]
        configs = [replace(EXACT, vectorize=bool(i % 2)) for i in range(8)]
        expected = [run_suite(sg2042, config, kernels=subset)
                    for config, subset in zip(configs, subsets)]
        pairs = {(kernel.name, config.vectorize)
                 for config, subset in zip(configs, subsets)
                 for kernel in subset}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(self.ROUNDS):
                clear_tables()
                assert self._race(sg2042, configs, subsets) == expected
                (table,) = batch._PRELUDES.tables()
                assert len(table) == len(pairs)
        finally:
            sys.setswitchinterval(interval)

    def test_the_whole_suite_racing_subset_fills(self, sg2042):
        """Threads asking for the default suite race threads that fill
        the same empty compile and prelude tables with class subsets:
        each gets the bits it gets alone."""
        subsets = [None, *class_subsets()[:3], None, *class_subsets()[-3:]]
        configs = [EXACT] * len(subsets)
        expected = [run_suite(sg2042, EXACT, kernels=subset)
                    for subset in subsets]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(self.ROUNDS):
                clear_tables()
                assert self._race(sg2042, configs, subsets) == expected
        finally:
            sys.setswitchinterval(interval)

    def test_the_suite_read_before_its_tuple_is_set(self, sg2042):
        """A fill sets the table's whole-suite tuple after its last row;
        a reader that finds every row set in between still gets every
        report."""
        from repro.compiler.model import XUANTIE_GCC_8_4, VectorFlavor
        from repro.kernels.registry import suite

        clear_tables()
        isa = sg2042.core.isa
        expected = vectorizer.analyze_suite(XUANTIE_GCC_8_4, suite(), isa)
        table = vectorizer._REPORTS(
            (XUANTIE_GCC_8_4, isa, VectorFlavor.VLS, False)
        )
        table.whole = None  # every row set, the tuple not yet
        got = vectorizer.analyze_suite(XUANTIE_GCC_8_4, suite(), isa)
        assert got == expected
        assert all(a is b for a, b in zip(got, expected))

    @staticmethod
    def _race(cpu, configs, subsets) -> list:
        barrier = threading.Barrier(len(subsets), timeout=60)
        results = {}

        def work(i):
            barrier.wait()
            results[i] = run_suite(cpu, configs[i], kernels=subsets[i])

        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(len(subsets))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
        return [results[i] for i in range(len(subsets))]
