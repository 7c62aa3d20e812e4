"""Every shipped registry document must load, validate, and — for
machines — round-trip byte-identically with a digest that is stable
across a process boundary."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.machine import catalog
from repro.machine.serialize import cpu_to_dict
from repro.registry import (
    DATA_ROOT,
    KINDS,
    default_registry,
    load_file,
    validate_document,
)
from repro.suite.memo import machine_digest

_SRC = str(Path(__file__).resolve().parents[2] / "src")

#: Machines the sequels add as data only — never Python constructors.
DATA_ONLY_MACHINES = ("sophon_sg2044", "sg2042_2s")


def _all_data_files():
    return sorted(DATA_ROOT.rglob("*.json"))


class TestShippedDocuments:
    def test_data_root_is_populated(self):
        assert len(_all_data_files()) >= 20

    @pytest.mark.parametrize(
        "path", _all_data_files(), ids=lambda p: f"{p.parent.name}/{p.name}"
    )
    def test_every_document_loads_and_validates(self, path):
        rdoc = load_file(path, kind=path.parent.name)
        assert rdoc.name == path.stem
        validate_document(rdoc)

    def test_validate_all_counts_every_kind(self):
        registry = default_registry()
        checked = registry.validate_all()
        assert checked == len(_all_data_files())
        for kind in KINDS:
            assert registry.names(kind), kind


class TestMachineRoundTrips:
    @pytest.mark.parametrize(
        "name", sorted(default_registry().machine_names())
    )
    def test_byte_identical_reserialization(self, name):
        """doc -> CPUModel -> cpu_to_dict must reproduce the shipped
        JSON exactly (the registry's bit-exact round-trip contract)."""
        path = DATA_ROOT / "machines" / f"{name}.json"
        shipped = json.loads(path.read_text(encoding="utf-8"))
        cpu = default_registry().machine(name)
        assert cpu_to_dict(cpu) == shipped["doc"]
        # Byte-level: re-dumping with the generator's formatting
        # reproduces the file exactly.
        redumped = json.dumps(
            {"schema": shipped["schema"], "name": name,
             "doc": cpu_to_dict(cpu)},
            indent=2,
        ) + "\n"
        assert redumped == path.read_text(encoding="utf-8")

    @pytest.mark.parametrize("name", sorted(catalog.all_cpus()))
    def test_catalog_is_registry_backed(self, name):
        factory = getattr(catalog, name)
        assert factory() == default_registry().machine(name)

    def test_digest_stable_across_processes(self):
        """The digest a fresh interpreter computes from the data files
        must equal this process's — registry machines share store
        artifacts across process boundaries."""
        names = ("sg2042", *DATA_ONLY_MACHINES)
        script = (
            "from repro.registry import default_registry;"
            "from repro.suite.memo import machine_digest;"
            f"names = {names!r};"
            "print(','.join(str(machine_digest("
            "default_registry().machine(n))) for n in names))"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = _SRC
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, check=True,
        )
        expected = ",".join(
            str(machine_digest(default_registry().machine(n)))
            for n in names
        )
        assert proc.stdout.strip() == expected

    def test_prediction_identical_catalog_vs_registry(self):
        """Same machine, same prediction bytes, whichever door it
        entered through."""
        import json as _json

        from repro.kernels.registry import get_kernel
        from repro.suite.config import RunConfig
        from repro.suite.runner import run_suite

        config = RunConfig(threads=4, precision="fp32", runs=1,
                           noise_sigma=0.0)
        kernel = get_kernel("TRIAD")
        results = []
        for cpu in (catalog.sg2042(),
                    default_registry().machine("sg2042")):
            result = run_suite(cpu, config, kernels=[kernel])
            run = result.runs[kernel.name]
            results.append(_json.dumps(
                {"seconds": run.seconds,
                 "level": run.prediction.serving_level}
            ))
        assert results[0] == results[1]


class TestDataOnlyMachines:
    @pytest.mark.parametrize("name", DATA_ONLY_MACHINES)
    def test_exists_only_as_data(self, name):
        assert name in default_registry().machine_names()
        assert name not in catalog.all_cpus()
        assert not hasattr(catalog, name.removeprefix("sophon_"))

    def test_sg2044_is_native_rvv_1_0(self):
        cpu = default_registry().machine("sophon_sg2044")
        assert cpu.core.isa.version == "1.0"
        assert cpu.core.isa.width_bits == 256
        assert cpu.interconnect is None

    def test_sg2042_2s_has_socket_tier(self):
        cpu = default_registry().machine("sg2042_2s")
        topo = cpu.topology
        assert topo.num_sockets == 2
        assert topo.num_cores == 128
        assert cpu.interconnect is not None
        assert topo.sockets_spanned(tuple(range(64))) == 1
        assert topo.sockets_spanned(tuple(range(128))) == 2

    def test_sg2044_defaults_to_clang_no_rollback(self):
        from repro.compiler.model import CLANG_16
        from repro.suite.config import RunConfig

        cpu = default_registry().machine("sophon_sg2044")
        assert RunConfig().resolve_compiler(cpu) is CLANG_16
