"""Scenario objects and the global registry."""

from __future__ import annotations

import json
import pickle

import pytest

from repro.api import (
    RunArtifact,
    Scenario,
    dubins_scenario,
    get_scenario,
    list_scenarios,
    register_scenario,
    scenario_names,
    synthesis_config_from_dict,
    synthesis_config_to_dict,
    unregister_scenario,
)
from repro.barrier import (
    Rectangle,
    RectangleComplement,
    SynthesisConfig,
    VerificationProblem,
)
from repro.dynamics import library
from repro.errors import ReproError
from repro.smt import IcpConfig


BUILTINS = ("dubins", "linear", "double-integrator", "pendulum", "vanderpol")


class TestBuiltinRegistry:
    def test_at_least_four_scenarios(self):
        assert len(list_scenarios()) >= 4

    @pytest.mark.parametrize("name", BUILTINS)
    def test_builtin_registered(self, name):
        scenario = get_scenario(name)
        assert scenario.name == name
        assert scenario.description

    def test_names_sorted(self):
        names = scenario_names()
        assert list(names) == sorted(names)

    def test_unknown_name_lists_available(self):
        with pytest.raises(ReproError, match="linear"):
            get_scenario("no-such-scenario")

    @pytest.mark.parametrize("name", ("linear", "vanderpol", "double-integrator"))
    def test_problem_builds(self, name):
        problem = get_scenario(name).problem()
        assert isinstance(problem, VerificationProblem)
        assert problem.system.dimension == get_scenario(name).dimension

    def test_builtins_are_picklable(self):
        """run_batch ships scenarios into worker processes."""
        for scenario in list_scenarios():
            if scenario.name in BUILTINS:
                assert pickle.loads(pickle.dumps(scenario)).name == scenario.name


class TestLibraryCoverage:
    """Every library plant is importable from repro.dynamics and backs a
    registered scenario (ISSUE satellite)."""

    def test_all_exports_importable(self):
        import repro.dynamics as dynamics

        for name in library.__all__:
            assert hasattr(dynamics, name), name

    def test_every_library_plant_covered(self):
        sources = {
            "stable_linear_system": "linear",
            "linear_plant": "double-integrator",
            "inverted_pendulum_plant": "pendulum",
            "van_der_pol_system": "vanderpol",
        }
        for scenario_name in sources.values():
            system = get_scenario(scenario_name).system_factory()
            assert system.dimension == 2


class TestRegistryRoundTrip:
    def test_register_get_unregister(self):
        scenario = Scenario(
            name="registry-test",
            description="temp",
            system_factory=library.van_der_pol_system,
            initial_set=Rectangle([-0.1, -0.1], [0.1, 0.1]),
            unsafe_set=RectangleComplement(Rectangle([-1.0, -1.0], [1.0, 1.0])),
        )
        try:
            assert register_scenario(scenario) is scenario
            assert get_scenario("registry-test") is scenario
            assert "registry-test" in scenario_names()
        finally:
            unregister_scenario("registry-test")
        assert "registry-test" not in scenario_names()

    def test_duplicate_name_rejected(self):
        scenario = get_scenario("linear")
        with pytest.raises(ReproError, match="already registered"):
            register_scenario(scenario)
        # replace=True is the explicit override
        register_scenario(scenario, replace=True)

    def test_empty_name_rejected(self):
        with pytest.raises(ReproError):
            Scenario(
                name="",
                description="x",
                system_factory=library.van_der_pol_system,
                initial_set=Rectangle([-0.1], [0.1]),
                unsafe_set=RectangleComplement(Rectangle([-1.0], [1.0])),
            )

    def test_with_config(self):
        scenario = get_scenario("linear")
        tweaked = scenario.with_config(SynthesisConfig(seed=7))
        assert tweaked.config.seed == 7
        assert tweaked.name == scenario.name
        assert scenario.config.seed == 0  # original untouched


class TestDubinsScenarioFactory:
    def test_width_parameterized(self):
        scenario = dubins_scenario(hidden_neurons=4)
        assert "4" in scenario.name
        system = scenario.system_factory()
        assert system.dimension == 2

    def test_custom_network(self, small_controller):
        scenario = dubins_scenario(network=small_controller)
        assert scenario.name == "dubins-custom"
        assert scenario.system_factory().dimension == 2


class TestConfigSerialization:
    def test_round_trip_defaults(self):
        config = SynthesisConfig()
        data = synthesis_config_to_dict(config)
        assert data["lp"]["max_points"] == config.lp.max_points
        rebuilt = synthesis_config_from_dict(data)
        assert rebuilt == config

    def test_round_trip_custom(self):
        config = SynthesisConfig(
            seed=3, gamma=1e-5, num_seed_traces=7, icp=IcpConfig(delta=1e-2)
        )
        rebuilt = synthesis_config_from_dict(synthesis_config_to_dict(config))
        assert rebuilt == config
        assert rebuilt.icp.delta == 1e-2

    def test_artifact_with_retired_icp_keys_loads(self):
        # an artifact config as written before the contractor knobs were
        # retired from IcpConfig
        old_config = {
            "seed": 0, "num_seed_traces": 20, "trace_duration": 12.0,
            "trace_dt": 0.05, "integrator": "rk4", "gamma": 1e-06,
            "max_candidate_iterations": 20, "max_levelset_iterations": 30,
            "level_margin": 0.5,
            "lp": {
                "coefficient_bound": 1.0, "max_points": 4000,
                "min_margin": 1e-09, "enforce_positivity": True,
                "origin_exclusion": 1e-06, "separation_samples": 32,
            },
            "icp": {
                "delta": 0.001, "batch_size": 256, "max_boxes": 2000000,
                "time_limit": None, "use_contractor": True,
                "contractor_node_limit": 512, "contractor_rounds": 2,
                "solver_timeout": None,
            },
            "seed_from_initial_set": True, "try_lyapunov_first": False,
            "engine": "native",
        }
        artifact = RunArtifact.from_json(
            json.dumps({"scenario": "linear", "status": "verified",
                        "verified": True, "config": old_config})
        )
        config = artifact.synthesis_config
        assert config == SynthesisConfig()
        assert "use_contractor" not in synthesis_config_to_dict(config)["icp"]
