"""CLI surfaces of the document registry."""

import json

from repro.cli import main


def _write_envelope(root, kind, envelope):
    folder = root / kind
    folder.mkdir(parents=True, exist_ok=True)
    path = folder / f"{envelope['name']}.json"
    path.write_text(json.dumps(envelope, indent=2) + "\n",
                    encoding="utf-8")
    return path


def _machine_envelope(name="cli_machine"):
    from repro.machine.serialize import cpu_to_dict
    from repro.registry import default_registry

    doc = cpu_to_dict(default_registry().machine("visionfive_v2"))
    doc["name"] = "CLI Machine"
    return {"schema": "repro.machine/v1", "name": name, "doc": doc}


class TestRegistryList:
    def test_lists_all_kinds(self, capsys):
        assert main(["registry", "list"]) == 0
        out = capsys.readouterr().out
        for kind in ("machines", "kernels", "compilers", "faults",
                     "placements"):
            assert kind in out
        assert "sophon_sg2044" in out

    def test_kind_filter(self, capsys):
        assert main(["registry", "list", "--kind", "placements"]) == 0
        out = capsys.readouterr().out
        assert "placements (3):" in out
        assert "machines" not in out

    def test_machines_listed_by_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "sg2042_2s" in out


class TestRegistryShow:
    def test_show_round_trips_json(self, capsys):
        assert main(["registry", "show", "machines", "sg2042"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["schema"] == "repro.machine/v1"
        assert data["doc"]["part"] == "SG2042"

    def test_unknown_name_exit_2(self, capsys):
        assert main(["registry", "show", "machines", "sg9999"]) == 2
        assert "error:" in capsys.readouterr().err


class TestRegistryValidate:
    def test_shipped_data_validates(self, capsys):
        assert main(["registry", "validate"]) == 0
        assert "document(s) valid" in capsys.readouterr().out

    def test_broken_user_root_exit_2(self, tmp_path, capsys):
        envelope = _machine_envelope()
        del envelope["doc"]["topology"]
        _write_envelope(tmp_path, "machines", envelope)
        assert main(["registry", "validate",
                     "--registry-path", str(tmp_path)]) == 2
        assert "missing field topology" in capsys.readouterr().err


class TestRegistryAdd:
    def test_add_then_use(self, tmp_path, capsys):
        doc_file = tmp_path / "machine.json"
        doc_file.write_text(json.dumps(_machine_envelope()),
                            encoding="utf-8")
        dest = tmp_path / "root"
        assert main(["registry", "add", str(doc_file),
                     "--dest", str(dest)]) == 0
        assert (dest / "machines" / "cli_machine.json").exists()
        capsys.readouterr()
        assert main(["describe", "cli_machine",
                     "--registry-path", str(dest)]) == 0
        assert "CLI Machine" in capsys.readouterr().out

    def test_add_rejects_invalid(self, tmp_path, capsys):
        envelope = _machine_envelope()
        envelope["doc"]["bogus"] = 1
        doc_file = tmp_path / "machine.json"
        doc_file.write_text(json.dumps(envelope), encoding="utf-8")
        assert main(["registry", "add", str(doc_file),
                     "--dest", str(tmp_path / "root")]) == 2
        assert "unknown field bogus" in capsys.readouterr().err


class TestMachineResolution:
    def test_run_on_registry_only_machine(self, capsys):
        assert main(["run", "--cpu", "sophon_sg2044",
                     "--threads", "2"]) == 0
        assert "Sophon SG2044" in capsys.readouterr().out

    def test_unknown_machine_lists_registry_names(self, capsys):
        assert main(["describe", "sg9999"]) == 2
        err = capsys.readouterr().err
        assert "unknown machine" in err
        assert "sophon_sg2044" in err

    def test_registry_path_resolves_user_machine(self, tmp_path,
                                                 capsys):
        _write_envelope(tmp_path, "machines", _machine_envelope())
        assert main(["describe", "cli_machine",
                     "--registry-path", str(tmp_path)]) == 0
        assert "CLI Machine" in capsys.readouterr().out

    def test_registry_path_loads_a_toml_document(self, tmp_path, capsys):
        folder = tmp_path / "placements"
        folder.mkdir()
        # Named after its policy, as a placement must be: it overrides
        # the shipped block.json.
        (folder / "block.toml").write_text(
            'schema = "repro.placement/v1"\n'
            'name = "block"\n'
            "\n"
            "[doc]\n"
            'policy = "block"\n'
            'description = "Block placement, from TOML."\n',
            encoding="utf-8",
        )
        root = ["--registry-path", str(tmp_path)]
        assert main(["registry", "show", "placements", "block",
                     *root]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["doc"] == {
            "policy": "block", "description": "Block placement, from TOML.",
        }
        assert main(["registry", "validate", *root]) == 0


class TestStoreRegistryMachines:
    """``sweep --store`` resolves registry machines like every other
    machine-resolving command, and keys its compile artifacts on
    them."""

    ARGS = ["sweep", "--kernels", "TRIAD", "--threads", "1",
            "--placements", "block", "--precisions", "fp64"]

    def _sweep_twice(self, tmp_path, *extra):
        """Two sweeps over one store; the second's compile counts."""
        stats = tmp_path / "stats.json"
        for _ in range(2):
            assert main([*self.ARGS, "--store", str(tmp_path / "store"),
                         "--stats-out", str(stats), *extra]) == 0
        return json.loads(stats.read_text())["store"]["compile"]

    def test_store_sweep_on_a_shipped_registry_machine(self, tmp_path,
                                                      capsys):
        compile_counts = self._sweep_twice(tmp_path, "--cpu",
                                           "sophon_sg2044")
        assert "Sophon SG2044" in capsys.readouterr().out
        assert (compile_counts["hits"], compile_counts["puts"]) == (1, 0)
        assert len(list((tmp_path / "store" / "compile").glob("*.json"))) == 1

    def test_store_sweep_on_a_user_registry_machine(self, tmp_path,
                                                   capsys):
        root = tmp_path / "reg"
        _write_envelope(root, "machines", _machine_envelope())
        compile_counts = self._sweep_twice(
            tmp_path, "--cpu", "cli_machine", "--registry-path", str(root)
        )
        assert "CLI Machine" in capsys.readouterr().out
        assert (compile_counts["hits"], compile_counts["puts"]) == (1, 0)


class TestLintRegistry:
    def test_clean_exit_0(self, capsys):
        assert main(["lint", "--registry", "--no-asm",
                     "--kernels", "TRIAD"]) == 0
        assert "registry documents" in capsys.readouterr().out

    def test_seeded_invalid_document_exit_3(self, tmp_path, capsys):
        envelope = _machine_envelope(name="broken")
        del envelope["doc"]["core"]
        _write_envelope(tmp_path, "machines", envelope)
        rc = main(["lint", "--registry", "--no-asm",
                   "--kernels", "TRIAD", "--format", "json",
                   "--registry-path", str(tmp_path)])
        assert rc == 3
        report = json.loads(capsys.readouterr().out)
        assert report["summary"]["errors"] >= 1
        assert any("missing field core" in f["message"]
                   for f in report["findings"])
