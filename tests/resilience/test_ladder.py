"""The engine degradation ladder: paths, stepping, parity."""

from __future__ import annotations

from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.errors import ReproError
from repro.resilience.ladder import (
    degradation_path,
    fallback_engine,
    run_with_degradation,
)
from repro.resilience.supervisor import clear_incidents, incidents


@pytest.fixture(autouse=True)
def _clean_incidents():
    clear_incidents()
    yield
    clear_incidents()


class TestPaths:
    def test_portfolio_walks_to_native(self):
        assert degradation_path("portfolio") == (
            "portfolio",
            "batched-icp",
            "native",
        )

    def test_portfolio_degrades_to_batched(self):
        assert fallback_engine("portfolio") == "batched-icp"

    def test_native_is_the_bottom(self):
        assert fallback_engine("native") is None
        assert degradation_path("native") == ("native",)


class TestRunWithDegradation:
    def test_no_failure_no_degradation(self):
        calls = []
        result = run_with_degradation(lambda e: calls.append(e) or e, "portfolio")
        assert result == "portfolio"
        assert calls == ["portfolio"]
        assert incidents("engine.degrade") == []

    def test_machinery_loss_steps_down_and_records(self):
        def fn(engine):
            if engine == "portfolio":
                raise BrokenProcessPool("worker 1 died")
            return engine

        assert run_with_degradation(fn, "portfolio") == "batched-icp"
        log = incidents("engine.degrade")
        assert len(log) == 1
        assert "portfolio -> batched-icp" in log[0]["detail"]

    def test_walks_all_the_way_down(self):
        def fn(engine):
            if engine != "native":
                raise BrokenProcessPool(engine)
            return engine

        assert run_with_degradation(fn, "portfolio") == "native"
        assert len(incidents("engine.degrade")) == 2

    def test_bottom_rung_loss_propagates(self):
        def fn(engine):
            raise BrokenProcessPool("nothing left")

        with pytest.raises(BrokenProcessPool):
            run_with_degradation(fn, "native")

    def test_non_machinery_errors_propagate_unchanged(self):
        def fn(engine):
            raise ReproError("the problem itself is bad")

        with pytest.raises(ReproError, match="the problem itself"):
            run_with_degradation(fn, "portfolio")
        assert incidents("engine.degrade") == []


class TestEndToEndParity:
    def test_degraded_artifact_identical_to_fallback_run(self):
        """A run that loses its engine machinery re-executes on the next
        rung and matches that engine's direct output exactly (modulo the
        wall-clock timing fields, which vary between any two runs)."""
        import dataclasses

        from repro import api
        from repro.api.family import get_family
        from repro.api.runner import derive_scenario_seed
        from repro.corpus.fuzz import VOLATILE_FIELDS

        def stripped(artifact):
            data = artifact.to_dict()
            for volatile in VOLATILE_FIELDS:
                data.pop(volatile, None)
            return data

        scenario = get_family("linear").instantiate()
        config = dataclasses.replace(
            scenario.config, seed=derive_scenario_seed(0, scenario.name)
        )
        direct = api.run(scenario, config=config, engine="batched-icp", cache=False)

        attempts = []

        def fn(engine):
            attempts.append(engine)
            if engine == "portfolio":
                raise BrokenProcessPool("injected machinery loss")
            return api.run(scenario, config=config, engine=engine, cache=False)

        degraded = run_with_degradation(fn, "portfolio")
        assert attempts == ["portfolio", "batched-icp"]
        assert stripped(degraded) == stripped(direct)
