"""The check-(5) screen: falsify with sampled points before ICP proves.

The screen may only ever answer δ-SAT, with a witness that satisfies
the δ-weakened Lie-derivative constraint; everything else falls through
to the engine's ICP unchanged.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import api
from repro.barrier import (
    Rectangle,
    RectangleComplement,
    SynthesisConfig,
    VerificationProblem,
    condition5_subproblems,
    verify_system,
)
from repro.barrier import synthesis
from repro.corpus.fuzz import VOLATILE_FIELDS
from repro.dynamics import stable_linear_system
from repro.engine import Engine, get_engine
from repro.expr import var
from repro.smt import Verdict

A = np.array([[-0.5, 1.0], [-1.0, -0.5]])


@pytest.fixture
def problem():
    return VerificationProblem(
        stable_linear_system(A),
        Rectangle([-0.4, -0.4], [0.4, 0.4]),
        RectangleComplement(Rectangle([-2.0, -2.0], [2.0, 2.0])),
    )


@pytest.fixture(scope="module")
def pendulum():
    """A scenario whose CEGIS loop meets a counterexample at its bundled config."""
    return api.get_scenario("pendulum")


def _screen(w_expr, problem, config, iteration=1):
    subproblems = condition5_subproblems(w_expr, problem, config.gamma)
    return subproblems, synthesis._screen_condition5(
        subproblems, problem.state_names, config, iteration
    )


class TestScreenVerdicts:
    def test_witness_satisfies_the_delta_weakened_constraint(self, problem):
        config = SynthesisConfig(seed=3)
        # W = x0 decreases nowhere near the x1 axis: check (5) fails.
        subproblems, result = _screen(var("x0"), problem, config)
        assert result.verdict is Verdict.DELTA_SAT
        assert result.witness_validated
        (constraint,) = subproblems[0].constraints
        assert constraint.satisfied_at(
            result.witness, problem.state_names, slack=config.icp.delta
        )
        assert any(sub.region.contains(result.witness) for sub in subproblems)

    def test_never_answers_unsat_or_unknown(self, problem):
        # A true Lyapunov function: ∇W·f = -|x|² < -γ on D \ X0.
        w_expr = var("x0") ** 2 + var("x1") ** 2
        for seed in range(5):
            for iteration in range(3):
                _, result = _screen(w_expr, problem, SynthesisConfig(seed=seed), iteration)
                assert result is None

    def test_zero_budget_defers_to_icp(self, problem, monkeypatch):
        monkeypatch.setattr(synthesis, "SCREEN_SAMPLES", 0)
        _, result = _screen(var("x0"), problem, SynthesisConfig(seed=3))
        assert result is None

    def test_latin_hypercube_fills_every_stratum_once(self):
        unit = synthesis._latin_hypercube(np.random.default_rng(0), 64, 3)
        assert unit.shape == (64, 3)
        for column in unit.T:
            assert sorted(np.floor(column * 64).astype(int)) == list(range(64))

    def test_witness_depends_on_seed_and_iteration_only(self, problem):
        def witness(seed, iteration):
            _, result = _screen(var("x0"), problem, SynthesisConfig(seed=seed), iteration)
            return result.witness

        assert np.array_equal(witness(3, 1), witness(3, 1))
        assert not np.array_equal(witness(3, 1), witness(3, 2))
        assert not np.array_equal(witness(3, 1), witness(4, 1))


class _RecordingSim:
    """Records the initial states of every ``simulate`` call."""

    def __init__(self, inner):
        self._inner = inner
        self.name = inner.name
        self.starts: list[np.ndarray] = []

    def simulate(self, system, initial_states, *args, **kwargs):
        self.starts.append(np.array(initial_states, copy=True))
        return self._inner.simulate(system, initial_states, *args, **kwargs)


def _recording_engine() -> Engine:
    native = get_engine("native")
    return dataclasses.replace(native, sim=_RecordingSim(native.sim))


class TestSynthesisLoop:
    def test_same_config_same_counterexamples(self, pendulum):
        first = verify_system(pendulum.problem(), config=pendulum.config)
        second = verify_system(pendulum.problem(), config=pendulum.config)
        assert first.counterexamples, "the loop should meet a counterexample"
        assert first.counterexample_via == second.counterexample_via
        assert len(first.counterexample_via) == len(first.counterexamples)
        for a, b in zip(first.counterexamples, second.counterexamples):
            assert np.array_equal(a, b)

    def test_seed_traces_do_not_depend_on_the_screen(self, pendulum, monkeypatch):
        screened = _recording_engine()
        report = verify_system(pendulum.problem(), config=pendulum.config, engine=screened)
        assert "sample" in report.counterexample_via

        monkeypatch.setattr(synthesis, "SCREEN_SAMPLES", 0)
        unscreened = _recording_engine()
        report = verify_system(pendulum.problem(), config=pendulum.config, engine=unscreened)
        assert set(report.counterexample_via) == {"icp"}
        assert np.array_equal(screened.sim.starts[0], unscreened.sim.starts[0])

    def test_artifact_counts_screened_counterexamples(self, pendulum):
        artifact = api.run(pendulum, cache=False)
        via = artifact.report.counterexample_via
        assert artifact.counterexamples == len(via)
        assert artifact.screened_counterexamples == via.count("sample") > 0

    def test_older_artifacts_read_zero_screened(self):
        artifact = api.RunArtifact("linear", "verified", True, counterexamples=2)
        data = artifact.to_dict()
        del data["screened_counterexamples"]
        assert api.RunArtifact.from_dict(data).screened_counterexamples == 0


#: terminal status of every builtin scenario at its bundled config
BUILTIN_STATUS = {
    "bicycle": "verified",
    "cartpole": "no-candidate",
    "double-integrator": "verified",
    "dubins": "verified",
    "linear": "verified",
    "pendulum": "verified",
    "vanderpol": "verified",
}


def test_builtin_statuses_cover_the_registry():
    assert set(BUILTIN_STATUS) == set(api.scenario_names())


@pytest.mark.parametrize("name", sorted(BUILTIN_STATUS))
def test_builtins_keep_their_status(name):
    assert api.run(name, cache=False).status == BUILTIN_STATUS[name]


def test_native_and_batched_agree_on_a_cartpole_point():
    scenario = api.get_family("cartpole").instantiate(pole_length=0.5)
    base = scenario.config
    config = dataclasses.replace(
        base,
        seed=api.derive_scenario_seed(4, scenario.name),
        icp=dataclasses.replace(base.icp, time_limit=None, max_boxes=10_000),
        lp=dataclasses.replace(base.lp, separation_samples=8),
    )
    artifacts = {}
    for engine in ("native", "batched-icp"):
        data = api.run(scenario, config=config, engine=engine, cache=False).to_dict()
        for volatile in VOLATILE_FIELDS:
            data.pop(volatile, None)
        artifacts[engine] = data
    assert artifacts["native"]["screened_counterexamples"] > 0
    assert artifacts["native"] == artifacts["batched-icp"]
