"""run / run_batch / RunArtifact serialization."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.api import (
    RunArtifact,
    derive_scenario_seed,
    get_scenario,
    run,
    run_batch,
)
from repro.barrier import SynthesisConfig
from repro.errors import ReproError


@pytest.fixture(scope="module")
def linear_artifact():
    return run("linear")


class TestRun:
    def test_linear_end_to_end(self, linear_artifact):
        assert linear_artifact.scenario == "linear"
        assert linear_artifact.status == "verified"
        assert linear_artifact.verified
        assert linear_artifact.level is not None and linear_artifact.level > 0
        assert linear_artifact.report is not None
        assert linear_artifact.certificate is not None
        assert "w_infix" in linear_artifact.certificate

    def test_stage_timings_sum_to_about_total(self, linear_artifact):
        tracked = sum(linear_artifact.stage_seconds.values())
        assert 0.0 < tracked <= linear_artifact.total_seconds + 1e-6
        assert tracked >= 0.8 * linear_artifact.total_seconds

    def test_config_override(self):
        artifact = run("linear", config=SynthesisConfig(seed=5))
        assert artifact.config["seed"] == 5
        assert artifact.synthesis_config.seed == 5

    def test_accepts_scenario_object(self):
        artifact = run(get_scenario("linear"))
        assert artifact.verified

    def test_unknown_name_raises(self):
        with pytest.raises(ReproError, match="unknown scenario"):
            run("does-not-exist")

    def test_retired_portfolio_engine_raises(self):
        with pytest.raises(ReproError, match="registered engines: batched-icp, native"):
            run("linear", engine="portfolio", cache=False)


class TestArtifactSerialization:
    def test_json_round_trip(self, linear_artifact):
        restored = RunArtifact.from_json(linear_artifact.to_json())
        assert restored.to_dict() == linear_artifact.to_dict()
        # the live report never crosses serialization
        assert restored.report is None

    def test_json_is_valid_and_sorted(self, linear_artifact):
        payload = json.loads(linear_artifact.to_json(indent=2))
        assert payload["scenario"] == "linear"
        assert payload["config"]["icp"]["delta"] == pytest.approx(1e-3)

    def test_from_dict_ignores_unknown_keys(self, linear_artifact):
        data = linear_artifact.to_dict()
        data["future_field"] = 123
        restored = RunArtifact.from_dict(data)
        assert restored.level == linear_artifact.level

    def test_error_artifact_round_trips(self):
        artifact = RunArtifact(
            scenario="x", status="error", verified=False, error="boom"
        )
        restored = RunArtifact.from_json(artifact.to_json())
        assert restored.error == "boom"
        assert not restored.verified


class TestRunBatch:
    def test_two_workers_deterministic(self):
        first = run_batch(["linear", "vanderpol"], workers=2)
        second = run_batch(["linear", "vanderpol"], workers=2)
        assert [a.scenario for a in first] == ["linear", "vanderpol"]
        assert all(a.verified for a in first)
        assert [a.level for a in first] == [b.level for b in second]
        assert [a.status for a in first] == [b.status for b in second]

    def test_parallel_artifacts_json_round_trip(self):
        for artifact in run_batch(["linear", "vanderpol"], workers=2):
            restored = RunArtifact.from_json(artifact.to_json())
            assert restored.to_dict() == artifact.to_dict()
            assert artifact.report is None  # stripped at the process boundary

    def test_serial_keeps_report(self):
        (artifact,) = run_batch(["linear"], workers=1)
        assert artifact.report is not None

    def test_matches_single_run(self, linear_artifact):
        (batched,) = run_batch(["linear"], workers=1)
        assert batched.level == linear_artifact.level
        assert batched.status == linear_artifact.status

    def test_empty_batch(self):
        assert run_batch([]) == []

    def test_unknown_name_fails_fast(self):
        with pytest.raises(ReproError, match="unknown scenario"):
            run_batch(["linear", "nope"], workers=2)

    def test_bad_type_rejected(self):
        with pytest.raises(TypeError):
            run_batch([42])

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            run_batch(["linear"], workers=0)

    def test_user_registered_name_reaches_workers(self):
        """Names resolve to objects before fan-out, so scenarios that
        exist only in this process's registry still run under spawn."""
        from repro.api import register_scenario, unregister_scenario

        base = get_scenario("linear")
        custom = dataclasses.replace(base, name="session-only")
        register_scenario(custom)
        try:
            artifacts = run_batch(["session-only", "vanderpol"], workers=2)
        finally:
            unregister_scenario("session-only")
        assert [a.scenario for a in artifacts] == ["session-only", "vanderpol"]
        assert all(a.verified for a in artifacts)
        assert all(a.error is None for a in artifacts)

    def test_unpicklable_scenario_falls_back_inline(self):
        base = get_scenario("linear")
        custom = dataclasses.replace(
            base,
            name="unpicklable-inline",
            system_factory=lambda: base.system_factory(),
        )
        artifacts = run_batch([custom, "vanderpol"], workers=2)
        assert [a.scenario for a in artifacts] == ["unpicklable-inline", "vanderpol"]
        assert all(a.verified for a in artifacts)

    def test_seeded_batch_reproducible_across_worker_counts(self):
        """The batch seed derives one deterministic synthesis seed per
        scenario *before* fan-out, so artifacts match for any workers."""
        serial = run_batch(["linear", "vanderpol"], workers=1, seed=11)
        parallel = run_batch(["linear", "vanderpol"], workers=2, seed=11)
        assert [a.config["seed"] for a in serial] == [
            a.config["seed"] for a in parallel
        ]
        assert [a.level for a in serial] == [a.level for a in parallel]
        assert [a.status for a in serial] == [a.status for a in parallel]

    def test_seeded_batch_seeds_differ_per_scenario(self):
        artifacts = run_batch(["linear", "vanderpol"], workers=1, seed=11)
        seeds = [a.config["seed"] for a in artifacts]
        assert seeds[0] != seeds[1]
        assert seeds[0] == derive_scenario_seed(11, "linear")
        assert seeds[1] == derive_scenario_seed(11, "vanderpol")

    def test_derive_scenario_seed_is_stable(self):
        """Order- and process-independent: depends only on (seed, name)."""
        assert derive_scenario_seed(0, "linear") == derive_scenario_seed(0, "linear")
        assert derive_scenario_seed(0, "linear") != derive_scenario_seed(1, "linear")
        assert derive_scenario_seed(0, "linear") != derive_scenario_seed(0, "lineal")
        assert 0 <= derive_scenario_seed(123, "x") < 2**32

    def test_unseeded_batch_keeps_bundled_configs(self):
        (artifact,) = run_batch(["linear"], workers=1)
        assert artifact.config["seed"] == get_scenario("linear").config.seed

    def test_failing_scenario_becomes_error_artifact(self):
        # A scenario whose problem() raises: safe rectangle smaller than X0.
        from repro.barrier import Rectangle, RectangleComplement

        base = get_scenario("linear")
        bad = dataclasses.replace(
            base,
            name="bad-geometry",
            unsafe_set=RectangleComplement(
                Rectangle([-0.1, -0.1], [0.1, 0.1])
            ),
        )
        artifacts = run_batch([bad, "vanderpol"], workers=1)
        assert artifacts[0].status == "error"
        assert artifacts[0].error
        assert not artifacts[0].verified
        assert artifacts[1].verified
