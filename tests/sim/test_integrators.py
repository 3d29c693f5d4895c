"""Integrator tests: exact solutions, convergence orders, error handling."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim import (
    DormandPrince45,
    EulerIntegrator,
    RK4Integrator,
    euler_step,
    get_integrator,
    rk4_step,
)
from repro.sim.integrators import fixed_step_schedule


def linear_decay(x):
    return -x


def harmonic(x):
    return np.array([x[1], -x[0]])


class TestSteps:
    def test_euler_step(self):
        x = np.array([1.0])
        assert euler_step(linear_decay, x, 0.1)[0] == pytest.approx(0.9)

    def test_rk4_step_more_accurate(self):
        x = np.array([1.0])
        exact = math.exp(-0.1)
        euler_err = abs(euler_step(linear_decay, x, 0.1)[0] - exact)
        rk4_err = abs(rk4_step(linear_decay, x, 0.1)[0] - exact)
        assert rk4_err < euler_err / 100


class TestFixedStep:
    def test_exponential_decay_euler(self):
        times, states = EulerIntegrator().integrate(
            linear_decay, np.array([1.0]), 1.0, 0.001
        )
        assert states[-1, 0] == pytest.approx(math.exp(-1.0), rel=1e-2)

    def test_exponential_decay_rk4(self):
        times, states = RK4Integrator().integrate(
            linear_decay, np.array([1.0]), 1.0, 0.01
        )
        assert states[-1, 0] == pytest.approx(math.exp(-1.0), rel=1e-8)

    def test_times_monotone_and_cover(self):
        times, states = RK4Integrator().integrate(
            linear_decay, np.array([1.0]), 0.55, 0.1
        )
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(0.55)
        assert np.all(np.diff(times) > 0)

    def test_partial_final_step(self):
        times, _ = EulerIntegrator().integrate(linear_decay, np.array([1.0]), 0.25, 0.1)
        assert times[-1] == pytest.approx(0.25)

    def test_invalid_dt(self):
        with pytest.raises(SimulationError):
            EulerIntegrator().integrate(linear_decay, np.array([1.0]), 1.0, 0.0)

    def test_negative_duration(self):
        with pytest.raises(SimulationError):
            EulerIntegrator().integrate(linear_decay, np.array([1.0]), -1.0, 0.1)

    def test_schedule_is_shared_and_read_only(self):
        """One grid per ``(duration, dt)``: callers share it, none can edit it."""
        times, steps = fixed_step_schedule(0.25, 0.1)
        again, steps_again = fixed_step_schedule(0.25, 0.1)
        assert again is times and steps_again is steps
        assert steps == (0.1, 0.1, 0.25 - 0.2)
        with pytest.raises(ValueError):
            times[0] = 1.0

    def test_blowup_detected(self):
        times_states = lambda: RK4Integrator().integrate(
            lambda x: x * x * 1e4, np.array([10.0]), 10.0, 0.5
        )
        with pytest.raises(SimulationError):
            times_states()

    def test_euler_first_order_convergence(self):
        errors = []
        for dt in (0.1, 0.05, 0.025):
            _, states = EulerIntegrator().integrate(linear_decay, np.array([1.0]), 1.0, dt)
            errors.append(abs(states[-1, 0] - math.exp(-1.0)))
        # Halving dt should roughly halve the error.
        assert errors[0] / errors[1] == pytest.approx(2.0, rel=0.2)
        assert errors[1] / errors[2] == pytest.approx(2.0, rel=0.2)

    def test_rk4_fourth_order_convergence(self):
        errors = []
        for dt in (0.2, 0.1):
            _, states = RK4Integrator().integrate(harmonic, np.array([1.0, 0.0]), 2.0, dt)
            exact = np.array([math.cos(2.0), -math.sin(2.0)])
            errors.append(np.linalg.norm(states[-1] - exact))
        assert errors[0] / errors[1] == pytest.approx(16.0, rel=0.5)


class TestAdaptive:
    def test_harmonic_oscillator_accuracy(self):
        solver = DormandPrince45(rtol=1e-10, atol=1e-12)
        _, states = solver.integrate(harmonic, np.array([1.0, 0.0]), 10.0)
        exact = np.array([math.cos(10.0), -math.sin(10.0)])
        assert np.linalg.norm(states[-1] - exact) < 1e-7

    def test_agrees_with_rk4(self):
        f = lambda x: np.array([x[1], -math.sin(x[0])])  # pendulum
        x0 = np.array([1.0, 0.0])
        _, fixed = RK4Integrator().integrate(f, x0, 5.0, 0.001)
        _, adaptive = DormandPrince45(rtol=1e-10, atol=1e-12).integrate(f, x0, 5.0)
        assert np.allclose(fixed[-1], adaptive[-1], atol=1e-6)

    def test_zero_duration(self):
        times, states = DormandPrince45().integrate(harmonic, np.array([1.0, 0.0]), 0.0)
        assert len(times) == 1

    def test_stiff_problem_takes_small_steps(self):
        stiff = lambda x: -500.0 * x
        times, states = DormandPrince45().integrate(stiff, np.array([1.0]), 0.1)
        assert states[-1, 0] == pytest.approx(math.exp(-50.0), abs=1e-6)
        assert len(times) > 20  # forced many steps

    def test_invalid_tolerances(self):
        with pytest.raises(SimulationError):
            DormandPrince45(rtol=0.0)

    def test_max_steps_guard(self):
        solver = DormandPrince45(max_steps=5, rtol=1e-13, atol=1e-15)
        with pytest.raises(SimulationError):
            solver.integrate(harmonic, np.array([1.0, 0.0]), 100.0)


class TestRegistry:
    def test_lookup(self):
        assert isinstance(get_integrator("euler"), EulerIntegrator)
        assert isinstance(get_integrator("rk4"), RK4Integrator)
        assert isinstance(get_integrator("RK45"), DormandPrince45)

    def test_unknown(self):
        with pytest.raises(SimulationError):
            get_integrator("leapfrog")

    def test_kwargs_passthrough(self):
        solver = get_integrator("rk45", rtol=1e-3)
        assert solver.rtol == 1e-3
