"""CLI tests (in-process, via main())."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_verify_defaults(self):
        args = build_parser().parse_args(["verify"])
        assert args.neurons == 10
        # None = flag not given (so --scenario keeps its bundled config);
        # the effective default is still delta=1e-3.
        assert args.delta is None
        assert args.scenario == ""

    def test_table1_widths(self):
        args = build_parser().parse_args(["table1", "--widths", "4", "8"])
        assert args.widths == [4, 8]

    def test_version(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        assert repro.__version__ in capsys.readouterr().out

    def test_batch_defaults(self):
        args = build_parser().parse_args(["batch"])
        assert args.names == []
        assert args.workers is None
        assert args.engine is None
        assert args.seed is None

    def test_engine_flags_parse(self):
        assert (
            build_parser()
            .parse_args(["verify", "--engine", "batched-icp"])
            .engine
            == "batched-icp"
        )
        assert (
            build_parser()
            .parse_args(["table1", "--engine", "native"])
            .engine
            == "native"
        )


class TestCommands:
    def test_verify_succeeds(self, capsys):
        code = main(["verify", "--neurons", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "status: verified" in out
        assert "barrier level" in out

    def test_verify_saved_controller(self, tmp_path, capsys):
        from repro.learning import proportional_controller_network
        from repro.nn import save_network

        path = tmp_path / "net.json"
        save_network(proportional_controller_network(4), path)
        code = main(["verify", "--controller", str(path)])
        assert code == 0

    def test_falsify_unsafe(self, capsys):
        code = main(
            ["falsify", "--unsafe-controller", "--budget", "60", "--method", "random"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "FALSIFIED" in out

    def test_falsify_safe_returns_nonzero(self, capsys):
        code = main(["falsify", "--budget", "20", "--method", "random", "--neurons", "4"])
        out = capsys.readouterr().out
        assert code == 1
        assert "not falsified" in out

    def test_table1_small(self, capsys):
        code = main(["table1", "--widths", "4", "--seeds", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Neurons" in out

    def test_train_small(self, capsys):
        code = main(
            ["train", "--neurons", "4", "--population", "8", "--iterations", "3"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "cost J" in out

    def test_train_save(self, tmp_path, capsys):
        path = tmp_path / "trained.json"
        code = main(
            [
                "train", "--neurons", "4", "--population", "8",
                "--iterations", "2", "--save", str(path),
            ]
        )
        assert code == 0
        assert path.exists()

    def test_figure5(self, capsys):
        code = main(["figure5", "--neurons", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "barrier level" in out
        assert "@" in out


class TestProfileCommand:
    def test_profile_linear(self, capsys, tmp_path):
        out_file = tmp_path / "profile.json"
        code = main(
            ["profile", "linear", "--repeats", "1", "--json", str(out_file)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "profile 'linear'" in out
        assert "total" in out
        import json

        data = json.loads(out_file.read_text())
        assert data["scenario"] == "linear"
        assert "stage_seconds" in data


class TestScenarioCommands:
    def test_scenarios_lists_builtins(self, capsys):
        code = main(["scenarios"])
        out = capsys.readouterr().out
        assert code == 0
        for name in ("dubins", "linear", "pendulum", "vanderpol"):
            assert name in out
        count = int(out.rsplit("\n", 2)[-2].split()[0])
        assert count >= 4

    def test_verify_scenario_linear(self, capsys, tmp_path):
        out_file = tmp_path / "artifact.json"
        code = main(["verify", "--scenario", "linear", "--json", str(out_file)])
        out = capsys.readouterr().out
        assert code == 0
        assert "status: verified" in out
        assert "stages:" in out
        assert "barrier level" in out
        # the written artifact JSON-round-trips
        from repro.api import RunArtifact

        artifact = RunArtifact.from_json(out_file.read_text())
        assert artifact.scenario == "linear"
        assert artifact.verified

    def test_verify_scenario_keeps_bundled_config(self, capsys, tmp_path):
        """Default flags must not stomp a scenario's own config."""
        import dataclasses

        from repro.api import (
            RunArtifact,
            get_scenario,
            register_scenario,
            unregister_scenario,
        )
        from repro.barrier import SynthesisConfig

        base = get_scenario("linear")
        custom = dataclasses.replace(
            base, name="custom-config", config=SynthesisConfig(seed=9)
        )
        register_scenario(custom)
        out_file = tmp_path / "custom.json"
        explicit_file = tmp_path / "explicit.json"
        try:
            code = main(
                ["verify", "--scenario", "custom-config", "--json", str(out_file)]
            )
            code2 = main(
                ["verify", "--scenario", "custom-config", "--seed", "0",
                 "--json", str(explicit_file)]
            )
        finally:
            unregister_scenario("custom-config")
        assert code == 0 and code2 == 0
        artifact = RunArtifact.from_json(out_file.read_text())
        assert artifact.config["seed"] == 9  # bundled config survived
        explicit = RunArtifact.from_json(explicit_file.read_text())
        assert explicit.config["seed"] == 0  # explicit flag wins, even at default
        capsys.readouterr()

    def test_verify_scenario_explicit_flag_overrides(self, capsys, tmp_path):
        out_file = tmp_path / "seeded.json"
        code = main(
            ["verify", "--scenario", "linear", "--seed", "3",
             "--json", str(out_file)]
        )
        assert code == 0
        from repro.api import RunArtifact

        artifact = RunArtifact.from_json(out_file.read_text())
        assert artifact.config["seed"] == 3
        capsys.readouterr()

    def test_verify_unknown_scenario(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="unknown scenario"):
            main(["verify", "--scenario", "nope"])

    def test_scenarios_json(self, capsys):
        import json

        code = main(["scenarios", "--json"])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        names = {entry["name"] for entry in payload}
        assert {"dubins", "linear", "vanderpol"} <= names
        for entry in payload:
            assert set(entry) == {"name", "description", "dimension", "tags"}

    def test_batch_named_scenarios(self, capsys, tmp_path):
        out_file = tmp_path / "batch.json"
        code = main(
            ["batch", "linear", "vanderpol", "--workers", "1",
             "--json", str(out_file)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "linear" in out and "vanderpol" in out
        import json

        payload = json.loads(out_file.read_text())
        assert [entry["scenario"] for entry in payload] == ["linear", "vanderpol"]
        assert all(entry["verified"] for entry in payload)


class TestEngineCommands:
    def test_engines_lists_builtins(self, capsys):
        code = main(["engines"])
        out = capsys.readouterr().out
        assert code == 0
        for name in ("native", "batched-icp"):
            assert name in out
        assert out.rstrip().endswith("engines registered")

    def test_engines_json(self, capsys):
        import json

        code = main(["engines", "--json"])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        by_name = {entry["name"]: entry for entry in payload}
        assert set(by_name) == {"native", "batched-icp"}
        assert by_name["batched-icp"]["sim"] == "VectorizedSimBackend"
        assert by_name["batched-icp"]["smt"] == "BatchedSmtBackend"

    def test_exactly_two_builtin_engines(self, capsys):
        import json

        from repro.errors import ReproError

        assert main(["engines", "--json"]) == 0
        names = [entry["name"] for entry in json.loads(capsys.readouterr().out)]
        assert names == ["batched-icp", "native"]
        for removed in ("sharded-icp", "parallel-smt", "vectorized", "portfolio"):
            with pytest.raises(ReproError, match="unknown engine"):
                main(["verify", "--scenario", "linear", "--engine", removed])

    def test_verify_with_engine(self, capsys, tmp_path):
        from repro.api import RunArtifact

        out_file = tmp_path / "vec.json"
        code = main(
            ["verify", "--scenario", "linear", "--engine", "batched-icp",
             "--json", str(out_file)]
        )
        capsys.readouterr()
        assert code == 0
        artifact = RunArtifact.from_json(out_file.read_text())
        assert artifact.engine == "batched-icp"
        assert artifact.verified

    def test_verify_unknown_engine(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="unknown engine"):
            main(["verify", "--scenario", "linear", "--engine", "nope"])

    def test_batch_with_engine_and_seed(self, capsys, tmp_path):
        import json

        out_file = tmp_path / "batch.json"
        code = main(
            ["batch", "linear", "--workers", "1", "--engine", "batched-icp",
             "--seed", "5", "--json", str(out_file)]
        )
        capsys.readouterr()
        assert code == 0
        (entry,) = json.loads(out_file.read_text())
        assert entry["engine"] == "batched-icp"
        from repro.api import derive_scenario_seed

        assert entry["config"]["seed"] == derive_scenario_seed(5, "linear")


class TestSolverCommands:
    def test_solvers_is_unknown_command(self, capsys):
        # the external-solver probe was removed with its adapters
        with pytest.raises(SystemExit) as exc:
            main(["solvers"])
        assert exc.value.code == 2
        assert "invalid choice: 'solvers'" in capsys.readouterr().err

    def test_verify_has_no_solver_timeout_flag(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["verify", "--scenario", "linear", "--solver-timeout", "7.5"]
            )
        assert "--solver-timeout" in capsys.readouterr().err
