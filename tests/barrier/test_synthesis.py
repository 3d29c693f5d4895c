"""End-to-end synthesis-loop tests (Figure 1)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.barrier import (
    PolynomialTemplate,
    Rectangle,
    RectangleComplement,
    SynthesisConfig,
    SynthesisStatus,
    VerificationProblem,
    verify_system,
)
from repro.dynamics import error_dynamics_system, stable_linear_system
from repro.errors import SynthesisError
from repro.learning import proportional_controller_network
from repro.smt import IcpConfig


@pytest.fixture
def linear_problem():
    system = stable_linear_system(np.array([[-0.5, 1.0], [-1.0, -0.5]]))
    return VerificationProblem(
        system,
        Rectangle([-0.4, -0.4], [0.4, 0.4]),
        RectangleComplement(Rectangle([-2.0, -2.0], [2.0, 2.0])),
    )


@pytest.fixture
def paper_problem_small(small_system, paper_sets):
    x0, unsafe, _ = paper_sets
    return VerificationProblem(small_system, x0, unsafe)


class TestConfigValidation:
    def test_gamma_positive(self):
        with pytest.raises(SynthesisError):
            SynthesisConfig(gamma=0.0)

    def test_traces_positive(self):
        with pytest.raises(SynthesisError):
            SynthesisConfig(num_seed_traces=0)

    def test_level_margin_range(self):
        with pytest.raises(SynthesisError):
            SynthesisConfig(level_margin=1.5)
        with pytest.raises(SynthesisError):
            SynthesisConfig(level_margin=0.0)


class TestLinearSystem:
    def test_verifies(self, linear_problem):
        report = verify_system(linear_problem, config=SynthesisConfig(seed=0))
        assert report.status is SynthesisStatus.VERIFIED
        assert report.verified
        assert report.certificate is not None
        assert report.level is not None
        assert report.candidate_iterations >= 1

    def test_certificate_separates_sets(self, linear_problem):
        report = verify_system(linear_problem, config=SynthesisConfig(seed=0))
        cert = report.certificate
        # X0 corners inside; unsafe boundary outside.
        for corner in linear_problem.initial_set.vertices():
            assert cert.level_set_contains(corner)
        for corner in linear_problem.unsafe_set.safe_rectangle.vertices():
            assert not cert.level_set_contains(corner * 1.001)

    def test_independent_recheck(self, linear_problem):
        report = verify_system(linear_problem, config=SynthesisConfig(seed=0))
        check = report.certificate.verify(IcpConfig(delta=1e-3))
        assert check.all_unsat

    def test_timing_fields_populated(self, linear_problem):
        report = verify_system(linear_problem, config=SynthesisConfig(seed=0))
        assert report.total_seconds > 0.0
        assert report.lp_seconds > 0.0
        assert report.query_seconds > 0.0
        assert report.other_seconds >= 0.0
        row = report.table1_row()
        assert row["total_seconds"] == report.total_seconds

    def test_seed_changes_traces_not_outcome(self, linear_problem):
        for seed in (0, 1, 2):
            report = verify_system(linear_problem, config=SynthesisConfig(seed=seed))
            assert report.verified


class TestPaperSystem:
    def test_small_controller_verifies(self, paper_problem_small):
        report = verify_system(paper_problem_small, config=SynthesisConfig(seed=1))
        assert report.verified
        # The paper's shape: very few candidate iterations.
        assert report.candidate_iterations <= 5

    def test_trajectories_stay_in_level_set(self, paper_problem_small):
        report = verify_system(paper_problem_small, config=SynthesisConfig(seed=1))
        cert = report.certificate
        sim = paper_problem_small.system.simulator()
        rng = np.random.default_rng(9)
        starts = paper_problem_small.initial_set.sample(5, rng)
        for x0 in starts:
            trace = sim.simulate(x0, 20.0, 0.05)
            w_along = cert.w_values(trace.states)
            assert w_along.max() <= cert.level + 1e-6

    def test_unsafe_controller_does_not_verify(self, paper_sets):
        """A destabilizing controller (wrong gain signs) must fail."""
        x0, unsafe, _ = paper_sets
        bad = proportional_controller_network(4, d_gain=-0.6, theta_gain=-2.0)
        system = error_dynamics_system(bad)
        problem = VerificationProblem(system, x0, unsafe)
        report = verify_system(
            problem,
            config=SynthesisConfig(seed=0, max_candidate_iterations=4),
        )
        assert report.status is not SynthesisStatus.VERIFIED
        assert report.certificate is None


class TestFailureModes:
    def test_unstable_linear_no_candidate(self):
        system = stable_linear_system(np.array([[0.3, 0.0], [0.0, 0.3]]))
        problem = VerificationProblem(
            system,
            Rectangle([-0.4, -0.4], [0.4, 0.4]),
            RectangleComplement(Rectangle([-2.0, -2.0], [2.0, 2.0])),
        )
        report = verify_system(problem, config=SynthesisConfig(seed=0))
        assert report.status is SynthesisStatus.NO_CANDIDATE
        assert not report.verified

    def test_non_quadratic_template_no_level_set(self, linear_problem):
        report = verify_system(
            linear_problem,
            template=PolynomialTemplate(2, max_degree=4, min_degree=2),
            config=SynthesisConfig(seed=0),
        )
        # Quartic template has no level-set geometry implemented.
        assert report.status is SynthesisStatus.NO_LEVEL_SET

    def test_tiny_budget_inconclusive(self, paper_problem_small):
        config = SynthesisConfig(
            seed=0, icp=IcpConfig(delta=1e-9, max_boxes=5)
        )
        report = verify_system(paper_problem_small, config=config)
        assert report.status in (
            SynthesisStatus.INCONCLUSIVE,
            SynthesisStatus.NO_CANDIDATE,
        )

    def test_cex_loop_records_counterexamples(self, paper_sets):
        """A marginally-stable controller takes multiple refinements or
        fails; either way counterexamples/iterations are recorded
        consistently."""
        x0, unsafe, _ = paper_sets
        weak = proportional_controller_network(4, d_gain=0.05, theta_gain=0.1)
        system = error_dynamics_system(weak)
        problem = VerificationProblem(system, x0, unsafe)
        report = verify_system(
            problem, config=SynthesisConfig(seed=0, max_candidate_iterations=3)
        )
        assert len(report.counterexamples) <= report.candidate_iterations
        if report.counterexamples:
            for cex in report.counterexamples:
                assert problem.domain.contains(cex, tol=1e-6)


class TestLyapunovSeeding:
    def test_lyapunov_first_verifies_without_simulation_loop(
        self, paper_problem_small
    ):
        from repro.barrier import SynthesisConfig, verify_system

        report = verify_system(
            paper_problem_small,
            config=SynthesisConfig(seed=0, try_lyapunov_first=True),
        )
        assert report.verified
        # The analytic path skips the LP entirely.
        assert report.lp_seconds == 0.0
        assert report.candidate_iterations == 0
        assert report.certificate.verify().all_unsat

    def test_lyapunov_fallback_on_unstable_linearization(self, paper_sets):
        from repro.barrier import SynthesisConfig, SynthesisStatus, verify_system
        from repro.dynamics import error_dynamics_system
        from repro.learning import proportional_controller_network

        x0, unsafe, _ = paper_sets
        bad = proportional_controller_network(4, d_gain=-0.6, theta_gain=-2.0)
        problem = VerificationProblem(error_dynamics_system(bad), x0, unsafe)
        report = verify_system(
            problem,
            config=SynthesisConfig(
                seed=0, try_lyapunov_first=True, max_candidate_iterations=3
            ),
        )
        # Falls through to the simulation loop and still refuses to verify.
        assert report.status is not SynthesisStatus.VERIFIED
