"""Backend equivalence: vectorized vs native sim, backend vs direct LP."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.barrier import QuadraticTemplate, Rectangle, fit_generator
from repro.dynamics import error_dynamics_system, stable_linear_system
from repro.engine import NativeSimBackend, VectorizedSimBackend
from repro.intervals import Box, Interval
from repro.learning import proportional_controller_network
from repro.expr import var
from repro.sim import sample_uniform


@pytest.fixture(scope="module")
def dubins_system():
    return error_dynamics_system(proportional_controller_network(6))


@pytest.fixture(scope="module")
def initial_states():
    rng = np.random.default_rng(42)
    box = Box([Interval(-2.0, 2.0), Interval(-1.0, 1.0)])
    return sample_uniform(box, 12, rng)


class TestVectorizedSim:
    def _assert_traces_match(self, native, vectorized, atol=1e-9):
        assert len(native) == len(vectorized)
        for a, b in zip(native, vectorized):
            assert len(a) == len(b)
            np.testing.assert_allclose(a.times, b.times, atol=1e-12)
            np.testing.assert_allclose(a.states, b.states, atol=atol)
            assert a.truncated == b.truncated

    def test_matches_native_rk4(self, dubins_system, initial_states):
        native = NativeSimBackend().simulate(
            dubins_system, initial_states, 6.0, 0.05
        )
        vectorized = VectorizedSimBackend().simulate(
            dubins_system, initial_states, 6.0, 0.05
        )
        self._assert_traces_match(native, vectorized)

    def test_matches_native_euler(self, dubins_system, initial_states):
        native = NativeSimBackend().simulate(
            dubins_system, initial_states, 3.0, 0.1, method="euler"
        )
        vectorized = VectorizedSimBackend().simulate(
            dubins_system, initial_states, 3.0, 0.1, method="euler"
        )
        self._assert_traces_match(native, vectorized)

    def test_stop_condition_truncates_identically(
        self, dubins_system, initial_states
    ):
        rect = Rectangle([-1.5, -0.8], [1.5, 0.8])

        def stop(state):
            return not rect.contains(state)

        native = NativeSimBackend().simulate(
            dubins_system, 2.0 * initial_states, 6.0, 0.05, stop_condition=stop
        )
        vectorized = VectorizedSimBackend().simulate(
            dubins_system, 2.0 * initial_states, 6.0, 0.05, stop_condition=stop
        )
        self._assert_traces_match(native, vectorized, atol=1e-8)
        assert any(t.truncated for t in native)

    def test_partial_final_step(self, dubins_system):
        x0 = np.array([[0.3, 0.1]])
        (trace,) = VectorizedSimBackend().simulate(dubins_system, x0, 0.52, 0.2)
        np.testing.assert_allclose(trace.times, [0.0, 0.2, 0.4, 0.52])

    def test_zero_duration(self, dubins_system):
        (trace,) = VectorizedSimBackend().simulate(
            dubins_system, np.array([[0.3, 0.1]]), 0.0, 0.1
        )
        assert len(trace) == 1 and not trace.truncated

    def test_blowup_guard(self):
        # x' = x^2 from x0 = 5 escapes to +inf in finite time.
        from repro.dynamics import ContinuousSystem

        system = ContinuousSystem(["x"], [var("x") * var("x")], name="blowup")
        native = NativeSimBackend().simulate(
            system, np.array([[5.0]]), 10.0, 0.01
        )
        vectorized = VectorizedSimBackend().simulate(
            system, np.array([[5.0]]), 10.0, 0.01
        )
        assert native[0].truncated and vectorized[0].truncated
        assert len(native[0]) == len(vectorized[0])

    def test_rk45_falls_back_to_native(self, dubins_system):
        x0 = np.array([[0.3, 0.1]])
        native = NativeSimBackend().simulate(
            dubins_system, x0, 1.0, 0.05, method="rk45"
        )
        vectorized = VectorizedSimBackend().simulate(
            dubins_system, x0, 1.0, 0.05, method="rk45"
        )
        np.testing.assert_allclose(
            native[0].states, vectorized[0].states, atol=1e-12
        )

    def test_f_vectorized_matches_f_batch(self, dubins_system, initial_states):
        np.testing.assert_allclose(
            dubins_system.f_vectorized(initial_states),
            dubins_system.f_batch(initial_states),
            atol=1e-12,
        )

    def test_f_vectorized_tape_fallback(self):
        # No batch override: the compiled symbolic tapes carry the pass.
        system = stable_linear_system(np.array([[-0.5, 1.0], [-1.0, -0.5]]))
        points = np.array([[0.2, -0.3], [1.0, 0.5]])
        np.testing.assert_allclose(
            system.f_vectorized(points), system.f_batch(points), atol=1e-12
        )


class TestNativeLp:
    def test_fit_matches_fit_generator(self):
        system = stable_linear_system(np.array([[-0.5, 1.0], [-1.0, -0.5]]))
        rng = np.random.default_rng(3)
        points = rng.uniform(-1.0, 1.0, size=(60, 2))
        template = QuadraticTemplate(2)
        from repro.engine import NativeLpBackend

        direct = fit_generator(template, points, system)
        via_backend = NativeLpBackend().fit(template, points, system)
        np.testing.assert_allclose(direct.coefficients, via_backend.coefficients)
        assert direct.margin == via_backend.margin


class _ExitAbove:
    """Stop once coordinate ``index`` exceeds ``bound``; per-state and batch."""

    def __init__(self, index: int, bound: float):
        self.index, self.bound = index, bound

    def __call__(self, state):
        return bool(state[self.index] > self.bound)

    def batch(self, states):
        return states[:, self.index] > self.bound


class TestVectorizedBookkeeping:
    """Rows that stop at different steps keep exact lengths, flags and states.

    States ``(a, d, b, e)``: ``a' = a^2`` blows up from large ``a``;
    ``d' = -1`` counts down and ``b' = sqrt(d)`` turns NaN once ``d < 0``;
    ``e' = 1`` leaves the domain ``e <= 1``.  The field uses only
    correctly rounded arithmetic, so a one-row reference loop must agree
    with the batch integrator bit for bit.
    """

    @pytest.fixture(scope="class")
    def system(self):
        from repro.dynamics import ContinuousSystem
        from repro.expr import const, sqrt

        a, d = var("a"), var("d")
        return ContinuousSystem(
            ["a", "d", "b", "e"],
            [a * a, const(-1.0), sqrt(d), const(1.0)],
            name="stops",
        )

    #: survivor, blow-up, NaN at step 4, exit at step 5, survivor, NaN at step 2
    X0 = np.array(
        [
            [0.0, 100.0, 0.0, -10.0],
            [50.0, 100.0, 0.0, -10.0],
            [0.0, 0.25, 0.0, -10.0],
            [0.0, 100.0, 0.0, 0.55],
            [-1.0, 100.0, 0.0, -10.0],
            [0.0, 0.05, 0.0, -10.0],
        ]
    )

    @staticmethod
    def _reference(system, x0s, duration, dt, method, stop, blowup=1e6):
        from repro.sim.integrators import euler_step, fixed_step_schedule, rk4_step

        step = {"euler": euler_step, "rk4": rk4_step}[method]
        times, steps = fixed_step_schedule(duration, dt)
        traces = []
        for x0 in x0s:
            x, states, truncated = x0[None, :], [x0], False
            for h in steps:
                x = step(system.f_vectorized, x, h)
                if not np.isfinite(x).all():
                    truncated = True
                    break
                states.append(x[0])
                if np.linalg.norm(x[0]) > blowup or (stop is not None and stop(x[0])):
                    truncated = True
                    break
            traces.append((times[: len(states)], np.array(states), truncated))
        return traces

    def _assert_exact(self, got, expected):
        assert len(got) == len(expected)
        for trace, (times, states, truncated) in zip(got, expected):
            assert trace.truncated is truncated
            assert np.array_equal(trace.times, times)
            assert np.array_equal(trace.states, states)

    @pytest.mark.parametrize("method", ["euler", "rk4"])
    @pytest.mark.parametrize("batch_stop", [True, False], ids=["batch-stop", "scalar-stop"])
    def test_rows_stopping_at_different_steps(self, system, method, batch_stop):
        stop = _ExitAbove(3, 1.0)
        if not batch_stop:
            stop = stop.__call__
        with np.errstate(invalid="ignore"):
            got = VectorizedSimBackend().simulate(
                system, self.X0, 3.0, 0.1, method=method, stop_condition=stop
            )
            expected = self._reference(system, self.X0, 3.0, 0.1, method, stop)
        self._assert_exact(got, expected)
        assert [t.truncated for t in got] == [False, True, True, True, False, True]
        assert len(got[0]) == len(got[4]) == 31
        assert np.linalg.norm(got[1].states[-1]) > 1e6
        assert all(np.isfinite(t.states).all() for t in got)
        if method == "euler":
            assert [len(t) for t in got[2:4]] + [len(got[5])] == [4, 6, 2]

    def test_all_rows_survive(self, system):
        x0s = self.X0[[0, 4]]
        got = VectorizedSimBackend().simulate(
            system, x0s, 2.0, 0.1, stop_condition=_ExitAbove(3, 1.0)
        )
        self._assert_exact(
            got, self._reference(system, x0s, 2.0, 0.1, "rk4", _ExitAbove(3, 1.0))
        )
        assert [len(t) for t in got] == [21, 21]

    def test_zero_duration_keeps_initial_states(self, system):
        got = VectorizedSimBackend().simulate(system, self.X0, 0.0, 0.1)
        assert all(len(t) == 1 and not t.truncated for t in got)
        assert np.array_equal(np.vstack([t.states for t in got]), self.X0)

    def test_post_stop_steps_raise_no_warning(self, system):
        # Row 0 blows past the norm guard in the first step of the first
        # chunk, then overflows while it keeps stepping to the chunk's end;
        # the per-step loop stopped it before any floating-point error.
        x0s = np.array([[5000.0, 100.0, 0.0, -10.0], [0.0, 100.0, 0.0, -10.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = VectorizedSimBackend().simulate(system, x0s, 3.0, 0.1, method="euler")
        assert [len(t) for t in got] == [2, 31]
        assert got[0].truncated and np.linalg.norm(got[0].states[-1]) > 1e6
        self._assert_exact(got, self._reference(system, x0s, 3.0, 0.1, "euler", None))

    @pytest.mark.parametrize("method", ["euler", "rk4"])
    def test_scalar_stop_sees_only_live_states(self, system, method):
        seen = {"vectorized": [], "reference": []}

        def recorder(key):
            def stop(state):
                assert np.isfinite(state).all()
                assert np.linalg.norm(state) <= 1e6
                seen[key].append(state.tobytes())
                return bool(state[3] > 1.0)

            return stop

        with np.errstate(invalid="ignore"):
            got = VectorizedSimBackend().simulate(
                system, self.X0, 3.0, 0.1, method=method,
                stop_condition=recorder("vectorized"),
            )
            expected = self._reference(
                system, self.X0, 3.0, 0.1, method, recorder("reference")
            )
        self._assert_exact(got, expected)
        # The same calls as the per-step loop: none past a row's stop.
        assert sorted(seen["vectorized"]) == sorted(seen["reference"])

    @pytest.mark.parametrize("method", ["euler", "rk4"])
    def test_stops_on_chunk_boundaries(self, system, method):
        from repro.engine.vectorized import _CHUNK

        dt = 0.1
        # Leave the domain e <= 1 at steps K - 1, K, K + 1 and 2K; turn
        # NaN (sqrt of d < 0 in the step) at steps K and K + 1.
        x0s = np.array(
            [[0.0, 100.0, 0.0, 1.05 - s * dt] for s in (_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK)]
            + [[0.0, (s - 1.5) * dt, 0.0, -10.0] for s in (_CHUNK, _CHUNK + 1)]
        )
        duration = 3 * _CHUNK * dt
        with np.errstate(invalid="ignore"):
            got = VectorizedSimBackend().simulate(
                system, x0s, duration, dt, method=method, stop_condition=_ExitAbove(3, 1.0)
            )
            expected = self._reference(
                system, x0s, duration, dt, method, _ExitAbove(3, 1.0)
            )
        self._assert_exact(got, expected)
        assert all(t.truncated for t in got)
        if method == "euler":
            # an exit keeps its final sample; a non-finite step does not
            assert [len(t) for t in got] == [
                _CHUNK, _CHUNK + 1, _CHUNK + 2, 2 * _CHUNK + 1, _CHUNK, _CHUNK + 1
            ]

    @pytest.mark.parametrize("method", ["euler", "rk4"])
    def test_single_row_calls(self, system, method):
        # The CEGIS loop simulates each counterexample as a one-row block.
        for x0 in self.X0:
            with np.errstate(invalid="ignore"):
                got = VectorizedSimBackend().simulate(
                    system, x0[None, :], 3.0, 0.1, method=method,
                    stop_condition=_ExitAbove(3, 1.0),
                )
                expected = self._reference(
                    system, x0[None, :], 3.0, 0.1, method, _ExitAbove(3, 1.0)
                )
            self._assert_exact(got, expected)
