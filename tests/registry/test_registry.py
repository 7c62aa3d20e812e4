"""Registry behaviour: envelopes, layering, validators, lint, TOML."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.registry import (
    KIND_SCHEMAS,
    KINDS,
    Registry,
    decide_compiler,
    default_registry,
    load_file,
    parse_document,
    registry_with_paths,
    validate_document,
)
from repro.util.errors import ConfigError


def _machine_envelope(name="tweaked_sg2042", clock=2.2e9):
    from repro.machine.serialize import cpu_to_dict

    doc = cpu_to_dict(default_registry().machine("sg2042"))
    doc["name"] = "Tweaked SG2042"
    doc["core"] = dict(doc["core"], clock_hz=clock)
    return {"schema": "repro.machine/v1", "name": name, "doc": doc}


def _write(root, kind, envelope):
    folder = root / kind
    folder.mkdir(parents=True, exist_ok=True)
    path = folder / f"{envelope['name']}.json"
    path.write_text(json.dumps(envelope, indent=2) + "\n",
                    encoding="utf-8")
    return path


class TestEnvelope:
    def test_kind_schemas_cover_all_kinds(self):
        assert set(KIND_SCHEMAS) == set(KINDS)

    def test_parse_roundtrip(self):
        rdoc = parse_document(_machine_envelope(), source="test")
        assert rdoc.kind == "machines"
        assert rdoc.name == "tweaked_sg2042"

    @pytest.mark.parametrize("mutation", [
        lambda e: e.pop("schema"),
        lambda e: e.pop("name"),
        lambda e: e.pop("doc"),
        lambda e: e.update(extra=1),
        lambda e: e.update(schema="repro.unknown/v1"),
        lambda e: e.update(schema="repro.machine/v2"),
        lambda e: e.update(name="Bad Name!"),
        lambda e: e.update(doc=[]),
    ])
    def test_malformed_envelopes_rejected(self, mutation):
        envelope = _machine_envelope()
        mutation(envelope)
        with pytest.raises(ConfigError):
            parse_document(envelope, source="test")

    def test_kind_mismatch_rejected(self):
        with pytest.raises(ConfigError, match="kernels"):
            parse_document(_machine_envelope(), source="test",
                           kind="kernels")


class TestLayering:
    def test_user_root_overrides_shipped_name(self, tmp_path):
        _write(tmp_path, "machines", _machine_envelope(name="sg2042"))
        registry = Registry([tmp_path])
        assert registry.machine("sg2042").name == "Tweaked SG2042"
        # The shipped registry is untouched.
        assert default_registry().machine("sg2042").name != \
            "Tweaked SG2042"

    def test_user_root_adds_new_name(self, tmp_path):
        _write(tmp_path, "machines", _machine_envelope())
        registry = Registry([tmp_path])
        assert "tweaked_sg2042" in registry.machine_names()
        assert registry.validate_all() > default_registry().validate_all()

    def test_registry_with_paths_caches_instances(self, tmp_path):
        _write(tmp_path, "machines", _machine_envelope())
        assert registry_with_paths([tmp_path]) is registry_with_paths(
            [str(tmp_path)]
        )

    def test_missing_root_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="not a directory"):
            Registry([tmp_path / "nope"])

    def test_duplicate_names_in_one_root_rejected(self, tmp_path):
        _write(tmp_path, "machines", _machine_envelope(name="twin"))
        # Same declared name under a different filename.
        envelope = _machine_envelope(name="twin")
        (tmp_path / "machines" / "other.json").write_text(
            json.dumps(envelope), encoding="utf-8"
        )
        with pytest.raises(ConfigError, match="duplicate"):
            Registry([tmp_path]).machine_names()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown registry kind"):
            default_registry().documents("gadgets")

    def test_unknown_name_lists_known(self):
        with pytest.raises(ConfigError, match="known:"):
            default_registry().machine("sg9999")


class TestValidators:
    def test_invalid_machine_doc_names_field(self, tmp_path):
        envelope = _machine_envelope()
        del envelope["doc"]["memory"]
        path = _write(tmp_path, "machines", envelope)
        rdoc = load_file(path, kind="machines")
        with pytest.raises(ConfigError, match="missing field memory"):
            validate_document(rdoc)

    def test_unknown_field_is_structured_error(self, tmp_path):
        envelope = _machine_envelope()
        envelope["doc"]["turbo"] = True
        path = _write(tmp_path, "machines", envelope)
        with pytest.raises(ConfigError,
                           match="malformed .*unknown field turbo"):
            validate_document(load_file(path, kind="machines"))

    def test_kernel_doc_cross_checked_against_catalog(self, tmp_path):
        rdoc = default_registry().document("kernels", "add")
        envelope = {"schema": rdoc.schema, "name": "add",
                    "doc": json.loads(json.dumps(rdoc.doc))}
        envelope["doc"]["traits"]["flops_per_iter"] += 1
        path = _write(tmp_path, "kernels", envelope)
        with pytest.raises(ConfigError, match="flops_per_iter"):
            validate_document(load_file(path, kind="kernels"))

    def test_compiler_table_decides_per_machine(self):
        from repro.compiler.model import (
            CLANG_16,
            GCC_8_3,
            GCC_11_2,
            XUANTIE_GCC_8_4,
        )

        registry = default_registry()
        table = validate_document(
            registry.document("compilers", "paper_defaults")
        )
        cases = {
            "sg2042": XUANTIE_GCC_8_4,
            "sophon_sg2044": CLANG_16,
            "amd_rome": GCC_11_2,
            "intel_icelake": GCC_8_3,
        }
        from repro.compiler.model import compiler_by_name

        for name, expected in cases.items():
            decided = decide_compiler(table, registry.machine(name))
            assert compiler_by_name(decided) is expected, name

    def test_fault_plan_materializes(self):
        plan = validate_document(
            default_registry().document("faults", "transient_compile")
        )
        assert plan.seed == 2042
        assert plan.rules

    def test_placement_name_must_match_policy(self, tmp_path):
        envelope = {
            "schema": "repro.placement/v1",
            "name": "block",
            "doc": {"policy": "cyclic", "description": "x"},
        }
        path = _write(tmp_path, "placements", envelope)
        with pytest.raises(ConfigError):
            validate_document(load_file(path, kind="placements"))


class TestRegistryLint:
    def test_clean_shipped_data(self):
        from repro.analyze.driver import run_lint
        from repro.analyze.report import Severity

        report = run_lint(kernels=False, asm=False, registry=True)
        assert report.documents_checked >= 20
        errors = [f for f in report.findings
                  if f.severity is Severity.ERROR]
        assert errors == []
        assert report.exit_code == 0

    def test_invalid_document_is_error_exit_3(self, tmp_path):
        from repro.analyze.driver import run_lint

        envelope = _machine_envelope(name="broken")
        del envelope["doc"]["core"]
        _write(tmp_path, "machines", envelope)
        report = run_lint(
            kernels=False, asm=False, registry=True,
            registry_paths=(str(tmp_path),),
        )
        assert report.exit_code == 3
        assert any("missing field core" in f.message
                   for f in report.findings)

    def test_inconsistent_compiler_table_is_error(self, tmp_path):
        from repro.analyze.driver import run_lint

        envelope = {
            "schema": "repro.compiler/v1",
            "name": "paper_defaults",
            "doc": {"default": "clang-16", "rules": []},
        }
        _write(tmp_path, "compilers", envelope)
        report = run_lint(
            kernels=False, asm=False, registry=True,
            registry_paths=(str(tmp_path),),
        )
        assert report.exit_code == 3
        assert any(f.category == "compiler-table"
                   for f in report.findings)


class TestToml:
    """:mod:`tomllib` is imported only when a TOML document is read
    (``tests/test_cli_registry.py`` reads one)."""

    def test_loading_the_shipped_machines_imports_no_tomllib(self):
        script = (
            "import sys;"
            "from repro.registry import default_registry;"
            "registry = default_registry();"
            "[registry.machine(n) for n in registry.machine_names()];"
            "print('tomllib' in sys.modules)"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, check=True,
        )
        assert proc.stdout.strip() == "False"
