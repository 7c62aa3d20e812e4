"""Only a store-backed run loads ``repro.store``.

``lower_kernels`` reads the process-wide default store, and only code
that imported ``repro.store`` can have installed one. So a run without
a store never imports the package, while ``repro sweep --store DIR``
still persists its SoA lowering. The import checks run each case in a
fresh interpreter, whose ``sys.modules`` starts clean.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parents[2] / "src")

#: One storeless run per case; each must leave ``repro.store`` unloaded.
STORELESS = {
    "run_suite": (
        "from repro.machine.catalog import sg2042\n"
        "from repro.suite.config import RunConfig\n"
        "from repro.suite.runner import run_suite\n"
        "run_suite(sg2042(), RunConfig())\n"
    ),
    "sweep": (
        "from repro.kernels.registry import get_kernel\n"
        "from repro.machine.catalog import sg2042\n"
        "from repro.suite.sweep import sweep\n"
        "result = sweep(sg2042(), [get_kernel('TRIAD'),"
        " get_kernel('GEMM')], threads=(1, 8))\n"
        "assert result.telemetry is None and len(result.points) == 4\n"
    ),
    "cli sweep": (
        "from repro.cli import main\n"
        "assert main(['sweep', '--kernels', 'TRIAD,GEMM', '--threads',"
        " '1,8', '--placements', 'block', '--csv']) == 0\n"
    ),
}

_REPORT = (
    "import sys\n"
    "loaded = sorted(m for m in sys.modules if m.startswith('repro'))\n"
    "print(json.dumps(loaded))\n"
)


def _run(code: str) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, "-c", "import json\n" + code],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=_SRC),
    )
    assert proc.returncode == 0, proc.stderr
    return proc


@pytest.mark.parametrize("case", sorted(STORELESS))
def test_storeless_run_never_imports_the_store(case):
    proc = _run(STORELESS[case] + _REPORT)
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert "repro.perfmodel.batch" in loaded  # the lowering ran
    assert not [m for m in loaded if m.startswith("repro.store")]


def test_cli_store_sweep_still_persists_its_lowering(tmp_path):
    root = tmp_path / "store"
    _run(
        "from repro.cli import main\n"
        f"assert main(['sweep', '--kernels', 'TRIAD,GEMM', '--threads',"
        f" '1,8', '--placements', 'block', '--csv', '--store',"
        f" {str(root)!r}]) == 0\n"
    )
    assert len(list((root / "soa").glob("*.json"))) == 1
    assert list((root / "compile").glob("*.json"))


class TestCliStoreScope:
    """``repro sweep --store DIR`` installs DIR as the default store for
    its sweep only: the previous default is back when the command ends,
    however it ends."""

    ARGS = ["sweep", "--kernels", "TRIAD,GEMM", "--threads", "1,8",
            "--placements", "block", "--csv"]

    def test_a_later_storeless_sweep_writes_nothing_there(
        self, tmp_path, capsys
    ):
        import repro.store
        from repro.cli import main
        from repro.kernels.registry import clear_tables, get_kernel
        from repro.machine.catalog import sg2042
        from repro.suite.sweep import sweep

        prior = repro.store.default_store()
        root = tmp_path / "store"
        # Empty tables make the suite's lowering consult the default
        # store, as a first lowering in a fresh process would.
        clear_tables()
        assert main([*self.ARGS, "--store", str(root)]) == 0
        assert repro.store.default_store() is prior
        assert len(list((root / "soa").glob("*.json"))) == 1
        clear_tables()
        sweep(sg2042(), [get_kernel("DOT"), get_kernel("COPY")],
              threads=(1, 8))
        assert len(list((root / "soa").glob("*.json"))) == 1

    def test_a_failed_sweep_restores_the_default_too(self, tmp_path,
                                                     capsys):
        import repro.store
        from repro.cli import main

        prior = repro.store.default_store()
        args = [*self.ARGS, "--store", str(tmp_path / "store")]
        args[args.index("1,8")] = "1,999"
        assert main(args) == 2
        assert "999" in capsys.readouterr().err
        assert repro.store.default_store() is prior


class TestSoaTier:
    """The one module-level tier: the suite's lowering over the default
    store. Emptying the tables first makes ``lower_kernels`` lower the
    suite again, as a fresh process would."""

    KERNELS = ("TRIAD", "GEMM", "DOT")

    @pytest.fixture
    def kernels(self):
        from repro.kernels.registry import get_kernel

        return tuple(get_kernel(name) for name in self.KERNELS)

    @pytest.fixture
    def default_store(self, tmp_path):
        from repro.store import ArtifactStore, set_default_store

        store = ArtifactStore(tmp_path / "store")
        previous = set_default_store(store)
        yield store
        set_default_store(previous)

    @staticmethod
    def _arrays(soa):
        from repro.store.codecs import SOA_ARRAY_FIELDS

        return {name: getattr(soa, name).tolist()
                for name in SOA_ARRAY_FIELDS}

    def test_a_second_process_restores_the_lowering(self, kernels,
                                                     default_store):
        from repro.kernels.registry import clear_tables
        from repro.perfmodel.batch import lower_kernels
        from repro.store import ArtifactStore, set_default_store

        clear_tables()
        lowered = lower_kernels(kernels)
        assert default_store.stats()["soa"].puts == 1
        reader = ArtifactStore(default_store.root)
        set_default_store(reader)
        clear_tables()
        restored = lower_kernels(kernels)
        assert reader.stats()["soa"].hits == 1
        assert reader.stats()["soa"].puts == 0
        assert restored.kernels == lowered.kernels
        assert self._arrays(restored) == self._arrays(lowered)

    def test_an_unusable_lowering_is_relowered_with_a_warning(
        self, kernels, default_store
    ):
        from repro.kernels.registry import clear_tables
        from repro.perfmodel.batch import lower_kernels
        from repro.store import StoreWarning

        clear_tables()
        lowered = lower_kernels(kernels)
        (path,) = (default_store.root / "soa").glob("*.json")
        record = json.loads(path.read_text())
        record["payload"]["arrays"]["reps"].pop()
        path.write_text(json.dumps(record))
        clear_tables()
        with pytest.warns(StoreWarning, match="relowering"):
            relowered = lower_kernels(kernels)
        assert self._arrays(relowered) == self._arrays(lowered)
