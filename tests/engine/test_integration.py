"""Engines threaded through verify_system / pipeline / run / certificate."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.api import (
    VerificationPipeline,
    get_scenario,
    run,
    run_batch,
    synthesis_config_from_dict,
    synthesis_config_to_dict,
)
from repro.barrier import SynthesisConfig, verify_system
from repro.engine import Engine, get_engine, register_engine, unregister_engine
from repro.errors import ReproError


@pytest.fixture(scope="module")
def linear_problem():
    return get_scenario("linear").problem()


class TestVerifySystem:
    def test_engine_by_name(self, linear_problem):
        report = verify_system(linear_problem, engine="batched-icp")
        assert report.verified

    def test_engine_via_config(self, linear_problem):
        report = verify_system(
            linear_problem, config=SynthesisConfig(engine="batched-icp")
        )
        assert report.verified

    def test_engine_object(self, linear_problem):
        report = verify_system(linear_problem, engine=get_engine("batched-icp"))
        assert report.verified

    def test_unknown_engine_raises(self, linear_problem):
        with pytest.raises(ReproError, match="unknown engine"):
            verify_system(linear_problem, engine="warp-drive")

    def test_all_builtin_engines_agree_on_linear(self, linear_problem):
        reports = {
            name: verify_system(linear_problem, engine=name)
            for name in ("native", "batched-icp")
        }
        levels = {name: r.level for name, r in reports.items()}
        assert all(r.verified for r in reports.values())
        # the batch integrator walks the same grid to float accuracy.
        assert levels["batched-icp"] == pytest.approx(levels["native"], rel=1e-6)

    def test_certificate_verify_accepts_engine(self, linear_problem):
        report = verify_system(linear_problem)
        check = report.certificate.verify(engine="batched-icp")
        assert check.all_unsat


class TestPipelineAndRun:
    def test_pipeline_engine_param(self, linear_problem):
        outcome = VerificationPipeline(engine="batched-icp").run(linear_problem)
        assert outcome.verified
        assert set(outcome.report.stage_seconds) >= {"seed-sim", "lp-fit"}

    def test_run_records_engine_name(self):
        artifact = run("linear", engine="batched-icp")
        assert artifact.engine == "batched-icp"
        assert artifact.verified

    def test_scenario_engine_override(self):
        scenario = get_scenario("linear").with_engine("batched-icp")
        artifact = run(scenario)
        assert artifact.engine == "batched-icp"
        # explicit argument beats the scenario override
        artifact = run(scenario, engine="native")
        assert artifact.engine == "native"

    def test_run_batch_engine(self):
        artifacts = run_batch(["linear", "vanderpol"], workers=2, engine="batched-icp")
        assert [a.engine for a in artifacts] == ["batched-icp", "batched-icp"]
        assert all(a.verified for a in artifacts)

    def test_user_registered_engine_reaches_workers(self):
        base = get_engine("native")
        custom = Engine(
            name="session-engine",
            description="registered only in this process",
            sim=base.sim,
            lp=base.lp,
            smt=base.smt,
        )
        register_engine(custom)
        try:
            artifacts = run_batch(
                ["linear", "vanderpol"], workers=2, engine="session-engine"
            )
        finally:
            unregister_engine("session-engine")
        assert [a.engine for a in artifacts] == ["session-engine"] * 2
        assert all(a.verified for a in artifacts)

    def test_scenario_level_session_engine_reaches_workers(self):
        """Scenario.engine naming a user-registered engine must resolve
        in the parent, before fan-out — workers never see the name."""
        base = get_engine("native")
        register_engine(
            Engine(
                name="scenario-session-engine",
                description="",
                sim=base.sim,
                lp=base.lp,
                smt=base.smt,
            )
        )
        try:
            scenario = get_scenario("linear").with_engine(
                "scenario-session-engine"
            )
            artifacts = run_batch([scenario, "vanderpol"], workers=2)
        finally:
            unregister_engine("scenario-session-engine")
        assert artifacts[0].engine == "scenario-session-engine"
        assert artifacts[0].error is None and artifacts[0].verified
        assert artifacts[1].engine == "native"

    def test_unknown_engine_fails_fast_in_batch(self):
        with pytest.raises(ReproError, match="unknown engine"):
            run_batch(["linear"], engine="warp-drive")


class TestConfigSerialization:
    def test_engine_name_round_trips(self):
        config = SynthesisConfig(engine="batched-icp")
        data = synthesis_config_to_dict(config)
        assert data["engine"] == "batched-icp"
        assert synthesis_config_from_dict(data).engine == "batched-icp"

    def test_engine_object_flattens_to_name(self):
        config = dataclasses.replace(
            SynthesisConfig(), engine=get_engine("batched-icp")
        )
        data = synthesis_config_to_dict(config)
        assert data["engine"] == "batched-icp"

    def test_legacy_dict_without_engine_defaults_native(self):
        data = synthesis_config_to_dict(SynthesisConfig())
        data.pop("engine")
        assert synthesis_config_from_dict(data).engine == "native"


class TestNativeBitIdentity:
    """The default engine must reproduce the pre-engine outputs exactly."""

    def test_dubins_native_levels_identical_across_engel_paths(self):
        config = SynthesisConfig(seed=1)
        direct = verify_system(
            get_scenario("vanderpol").problem(), config=config
        )
        via_run = run("vanderpol", config=config)
        assert via_run.level == direct.level
        assert via_run.candidate_iterations == direct.candidate_iterations
        assert np.isclose(via_run.level, direct.level, rtol=0, atol=0)
