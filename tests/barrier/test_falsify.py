"""Falsification-baseline tests."""

from __future__ import annotations

import pytest

from repro.barrier import (
    FalsificationResult,
    falsify_cmaes,
    falsify_random,
    trajectory_robustness,
)
from repro.dynamics import error_dynamics_system
from repro.errors import ReproError
from repro.experiments import paper_initial_set, paper_unsafe_set
from repro.learning import proportional_controller_network


@pytest.fixture
def safe_problem():
    net = proportional_controller_network(4)
    return error_dynamics_system(net), paper_initial_set(), paper_unsafe_set()


@pytest.fixture
def unsafe_problem():
    net = proportional_controller_network(4, d_gain=-0.6, theta_gain=-2.0)
    return error_dynamics_system(net), paper_initial_set(), paper_unsafe_set()


class TestRobustness:
    def test_positive_for_safe_trajectory(self, safe_problem):
        system, x0, unsafe = safe_problem
        rob = trajectory_robustness(
            system, [0.5, 0.1], unsafe.safe_rectangle, 10.0, 0.05
        )
        assert rob > 0.0

    def test_negative_for_escaping_trajectory(self, unsafe_problem):
        system, x0, unsafe = unsafe_problem
        rob = trajectory_robustness(
            system, [1.0, 0.15], unsafe.safe_rectangle, 20.0, 0.05
        )
        assert rob < 0.0

    def test_monotone_in_start_distance(self, safe_problem):
        """Starting nearer the envelope leaves less margin."""
        system, _, unsafe = safe_problem
        near = trajectory_robustness(
            system, [4.0, 0.0], unsafe.safe_rectangle, 10.0, 0.05
        )
        far = trajectory_robustness(
            system, [0.5, 0.0], unsafe.safe_rectangle, 10.0, 0.05
        )
        assert near < far


class TestFalsifiers:
    def test_random_does_not_falsify_safe(self, safe_problem):
        system, x0, unsafe = safe_problem
        result = falsify_random(system, x0, unsafe, budget=30, seed=0)
        assert not result.falsified
        assert result.simulations == 30
        assert result.min_robustness > 0.0

    def test_random_falsifies_unsafe(self, unsafe_problem):
        system, x0, unsafe = unsafe_problem
        result = falsify_random(system, x0, unsafe, budget=50, seed=0)
        assert result.falsified
        assert result.min_robustness < 0.0
        assert x0.contains(result.best_initial_state)

    def test_cmaes_falsifies_unsafe(self, unsafe_problem):
        system, x0, unsafe = unsafe_problem
        result = falsify_cmaes(system, x0, unsafe, budget=60, seed=0)
        assert result.falsified
        assert x0.contains(result.best_initial_state, tol=1e-9)

    def test_cmaes_does_not_falsify_safe(self, safe_problem):
        system, x0, unsafe = safe_problem
        result = falsify_cmaes(system, x0, unsafe, budget=40, seed=0)
        assert not result.falsified

    def test_counterexample_is_reproducible(self, unsafe_problem):
        """The reported initial state really escapes when re-simulated."""
        system, x0, unsafe = unsafe_problem
        result = falsify_random(system, x0, unsafe, budget=50, seed=0)
        rob = trajectory_robustness(
            system, result.best_initial_state, unsafe.safe_rectangle, 20.0, 0.05
        )
        assert rob < 0.0

    def test_budget_validation(self, safe_problem):
        system, x0, unsafe = safe_problem
        with pytest.raises(ReproError):
            falsify_random(system, x0, unsafe, budget=0)
        with pytest.raises(ReproError):
            falsify_cmaes(system, x0, unsafe, budget=2, population_size=10)

    def test_str_rendering(self, safe_problem):
        system, x0, unsafe = safe_problem
        result = falsify_random(system, x0, unsafe, budget=5, seed=0)
        assert "not falsified" in str(result)
