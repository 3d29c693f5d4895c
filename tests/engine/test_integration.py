"""Engines threaded through verify_system / pipeline / run / certificate."""

from __future__ import annotations

import dataclasses
import json
import time

import numpy as np
import pytest

from repro.api import (
    RunArtifact,
    Scenario,
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
from repro.service import Job, JobJournal, JobSpec, JobState, Scheduler
from repro.service.jobs import JOURNAL_NAME
from repro.store import ArtifactStore


@pytest.fixture(scope="module")
def linear_problem():
    return get_scenario("linear").problem()


class TestVerifySystem:
    def test_engine_by_name(self, linear_problem):
        report = verify_system(linear_problem, engine="batched-icp")
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

    def test_unknown_engine_fails_fast_in_batch(self):
        with pytest.raises(ReproError, match="unknown engine"):
            run_batch(["linear"], engine="warp-drive")


def _old_config_dict(engine: str) -> dict:
    """A flattened config as written while configs still named an engine."""
    data = synthesis_config_to_dict(get_scenario("linear").config)
    data["engine"] = engine
    return data


class TestRetiredEngineFields:
    """Configs no longer name an engine: older artifacts, scenario files
    and service journals that carry ``config.engine`` still load, and
    the run takes its engine from the ``engine=`` argument alone."""

    def test_config_has_no_engine_field(self):
        assert "engine" not in {f.name for f in dataclasses.fields(SynthesisConfig)}
        assert "engine" not in {f.name for f in dataclasses.fields(Scenario)}
        assert not hasattr(Scenario, "with_engine")
        assert "engine" not in synthesis_config_to_dict(SynthesisConfig())

    @pytest.mark.parametrize("old_engine", ["portfolio", "batched-icp"])
    def test_artifact_dict_with_config_engine_loads(self, old_engine):
        data = {
            "scenario": "linear", "status": "verified", "verified": True,
            "engine": old_engine, "config": _old_config_dict(old_engine),
        }
        artifact = RunArtifact.from_json(json.dumps(data))
        config = artifact.synthesis_config
        assert config == get_scenario("linear").config
        rerun = run("linear", config=config, engine="batched-icp", cache=False)
        assert rerun.engine == "batched-icp" and rerun.verified
        assert "engine" not in rerun.config

    def test_scenario_config_dict_with_engine_loads(self):
        config = synthesis_config_from_dict(_old_config_dict("batched-icp"))
        scenario = get_scenario("linear").with_config(config)
        # the dict's engine is ignored: no argument means native
        assert run(scenario, cache=False).engine == "native"
        artifacts = run_batch([scenario], engine="batched-icp", cache=False)
        assert [a.engine for a in artifacts] == ["batched-icp"]

    def test_journal_entry_with_config_engine_recovers(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        journal = JobJournal(store.root / "service" / JOURNAL_NAME)
        spec = JobSpec(target="linear", engine="batched-icp").to_dict()
        spec["config"] = _old_config_dict("portfolio")
        journal.append({
            "event": "submit", "job": "old-job", "spec": spec, "priority": 0,
            "points": ["linear"], "params": [{}], "keys": ["ab" + "0" * 62],
            "created": 0.0,
        })
        scheduler = Scheduler(store, pool=False, workers=1, journal=True)
        try:
            (job,) = scheduler.recover()
            deadline = time.monotonic() + 60.0
            while not scheduler.job(job.id).state.terminal:
                assert time.monotonic() < deadline, "recovered job never finished"
                time.sleep(0.02)
            (artifact,) = scheduler.job_result(job.id)
        finally:
            scheduler.shutdown(wait=True)
        assert artifact.engine == "batched-icp" and artifact.verified

    def test_stored_artifact_with_config_engine_hydrates(self, tmp_path):
        """A finished job journaled before the change resolves its
        artifact, which still carries ``config.engine``, from the store."""
        store = ArtifactStore(tmp_path / "store")
        old = RunArtifact.from_dict({
            "scenario": "linear", "status": "verified", "verified": True,
            "engine": "portfolio", "config": _old_config_dict("portfolio"),
        })
        key = "cd" + "0" * 62
        store.put(key, old)
        journal = JobJournal(store.root / "service" / JOURNAL_NAME)
        job = Job(id="old-done", spec=JobSpec(target="linear", engine="portfolio"),
                  points=["linear"], params=[{}], keys=[key], artifacts=[None])
        journal.record_submit(job)
        journal.record_point(job.id, 0, "verified", False)
        journal.record_state(job.id, JobState.RUNNING)
        journal.record_state(job.id, JobState.DONE)
        scheduler = Scheduler(store, pool=False, workers=1, journal=True)
        try:
            assert scheduler.recover() == []
            assert scheduler.job(job.id).state is JobState.DONE
            (artifact,) = scheduler.job_result(job.id)
        finally:
            scheduler.shutdown(wait=True)
        assert artifact.synthesis_config == get_scenario("linear").config


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
