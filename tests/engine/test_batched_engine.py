"""The ``batched-icp`` engine: registration, equivalence, scenario parity.

The acceptance bar for the SoA solver stack: on every registered
scenario the batched backend must return the same verdict as the native
(serial scalar) backend, with witnesses that validate against the same
constraints up to δ.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import get_scenario, scenario_names
from repro.barrier import verify_system
from repro.barrier.certificate import condition5_subproblems
from repro.engine import (
    BatchedSmtBackend,
    SerialSmtBackend,
    get_engine,
)
from repro.expr import sum_expr, var
from repro.intervals import Box, Interval
from repro.smt import IcpConfig, Subproblem, Verdict, ge, le


class TestRegistration:
    def test_batched_engine_registered(self):
        engine = get_engine("batched-icp")
        assert isinstance(engine.smt, BatchedSmtBackend)
        assert "builtin" in engine.tags

    def test_portfolio_races_batched_backend(self):
        portfolio = get_engine("portfolio").smt
        assert isinstance(portfolio._native_backend(), BatchedSmtBackend)

    def test_cli_lists_batched(self, capsys):
        from repro.cli import main

        assert main(["engines"]) == 0
        out = capsys.readouterr().out
        assert "batched-icp" in out


def _smt_subproblems():
    constraint = ge(var("x"), 1.0)
    return [
        Subproblem([constraint], Box([Interval(-3.0, -2.0)]), label="a"),
        Subproblem([constraint], Box([Interval(-1.0, 0.5)]), label="b"),
        Subproblem([constraint], Box([Interval(0.0, 2.0)]), label="c"),
    ]


class TestBackendEquivalence:
    def test_matches_serial_verdict_and_witness_region(self):
        config = IcpConfig(delta=1e-3)
        serial = SerialSmtBackend().check(_smt_subproblems(), ["x"], config)
        batched = BatchedSmtBackend().check(_smt_subproblems(), ["x"], config)
        assert serial.verdict is batched.verdict is Verdict.DELTA_SAT
        # Both witnesses come from the same (only SAT) subproblem box and
        # δ-satisfy the constraint; the exact leaf may differ because the
        # union search quadrisects narrow frontiers.
        assert 0.0 <= batched.witness[0] <= 2.0
        assert batched.witness[0] >= 1.0 - config.delta
        assert batched.witness_validated == serial.witness_validated

    def test_lowest_index_witness_wins(self):
        constraint = le(var("x"), 10.0)
        subs = [
            Subproblem([constraint], Box([Interval(5.0, 6.0)])),
            Subproblem([constraint], Box([Interval(-6.0, -5.0)])),
        ]
        result = BatchedSmtBackend().check(subs, ["x"], IcpConfig(delta=1e-3))
        assert 5.0 <= result.witness[0] <= 6.0

    def test_empty_union_unsat(self):
        result = BatchedSmtBackend().check([], ["x"], IcpConfig(delta=1e-3))
        assert result.verdict is Verdict.UNSAT

    def test_budget_parity_with_serial(self):
        # the serial path grants each subproblem its own max_boxes; the
        # union search must scale its shared budget to match, so a
        # workload native refutes within budget never flips to UNKNOWN
        from repro.expr import var as v

        c = ge(v("x") * v("x") + v("y") * v("y"), 9.0)
        subs = [
            Subproblem(
                [c],
                Box([Interval(-1 + i * 0.1, -0.5 + i * 0.1), Interval(-1, 1)]),
            )
            for i in range(6)
        ]
        tight = IcpConfig(delta=1e-3, max_boxes=30)
        serial = SerialSmtBackend().check(subs, ["x", "y"], tight)
        batched = BatchedSmtBackend().check(subs, ["x", "y"], tight)
        assert serial.verdict is batched.verdict is Verdict.UNSAT

    def test_mixed_constraint_groups(self):
        # consecutive runs with different constraint objects fall into
        # separate union groups but keep the serial ordering contract
        c1 = ge(var("x"), 1.0)
        c2 = le(var("x"), -1.0)
        subs = [
            Subproblem([c1], Box([Interval(-3.0, 0.0)])),
            Subproblem([c1], Box([Interval(-1.0, 0.5)])),
            Subproblem([c2], Box([Interval(-2.0, 2.0)])),
        ]
        config = IcpConfig(delta=1e-3)
        serial = SerialSmtBackend().check(subs, ["x"], config)
        batched = BatchedSmtBackend().check(subs, ["x"], config)
        assert serial.verdict is batched.verdict is Verdict.DELTA_SAT
        # the c1 group is fully refuted; the witness comes from c2's box
        assert -2.0 <= batched.witness[0] <= -1.0 + config.delta


def _scenario_check5(name, max_boxes=300_000, delta=None):
    """A bounded condition-(5)-shaped query for one scenario."""
    scenario = get_scenario(name)
    problem = scenario.problem()
    w = sum_expr([var(n) * var(n) for n in problem.state_names])
    subs = condition5_subproblems(w, problem, gamma=1e-6)
    config = IcpConfig(
        delta=delta if delta is not None else scenario.config.icp.delta,
        max_boxes=max_boxes,
    )
    return subs, problem.state_names, config


@pytest.mark.parametrize("name", sorted(scenario_names()))
def test_batched_matches_native_verdict_on_scenario(name):
    """Identical verdicts to native on every registered scenario."""
    subs, names, config = _scenario_check5(name)
    serial = SerialSmtBackend().check(subs, names, config)
    batched = BatchedSmtBackend().check(subs, names, config)
    assert batched.verdict is serial.verdict, (
        f"{name}: batched {batched.verdict} != native {serial.verdict}"
    )
    if serial.verdict is Verdict.DELTA_SAT:
        # witnesses are δ-valid points of the same weakened constraints
        assert batched.witness_validated == serial.witness_validated


class TestFullRunParity:
    def test_bicycle_verifies_identically(self):
        scenario = get_scenario("bicycle")
        native = verify_system(scenario.problem(), config=scenario.config)
        batched = verify_system(
            scenario.problem(), config=scenario.config, engine="batched-icp"
        )
        assert native.verified and batched.verified
        assert batched.level == pytest.approx(native.level, rel=1e-6)

    def test_linear_verifies_identically(self):
        scenario = get_scenario("linear")
        native = verify_system(scenario.problem(), config=scenario.config)
        batched = verify_system(
            scenario.problem(), config=scenario.config, engine="batched-icp"
        )
        assert native.verified and batched.verified
        assert batched.level == pytest.approx(native.level, rel=1e-6)


class TestRegressions:
    def test_dubins_sweep_point_verifies_in_one_iteration(self):
        """A dubins sweep point (sweep seed 3) where a contracting search
        handed CEGIS the same unvalidated condition-(5) witness over and
        over, until the loop ended ``no-candidate`` after 20 iterations.
        Forward pruning and bisection alone verify it at once."""
        import dataclasses

        from repro import api

        scenario = api.get_family("dubins").instantiate(nn_width=12, speed=3.0)
        seed = api.derive_scenario_seed(3, scenario.name)
        assert seed == 3659585632
        artifact = api.run(
            scenario,
            config=dataclasses.replace(scenario.config, seed=seed),
            engine="batched-icp",
            cache=False,
        )
        assert artifact.status == "verified"
        assert artifact.candidate_iterations == 1
