"""The generated batch vector field is bit-identical to the closure composition.

``ContinuousSystem.f_vectorized`` runs one generated straight-line
function per system.  The reference kept here is the composition it
replaced: tapes stacked column by column, and for closed loops the
output tapes, ``FeedforwardNetwork.forward`` and the plant tapes over
``np.hstack([X, u])``.  Every builtin scenario, every family's default
point and a twin must agree with it bit for bit on contiguous, strided
and one-row state arrays.
"""

from __future__ import annotations

import contextlib
import math
import pickle

import numpy as np
import pytest

from repro import api
from repro.corpus import generate_twins
from repro.dynamics import ContinuousSystem
from repro.dynamics import closed_loop, errors_dynamics, system as system_module
from repro.errors import EvaluationError
from repro.expr import Const, Mul, compile_expression, sin, var


def _reference_vector_field(tapes):
    def field(states):
        return np.stack([tape.eval_points(states) for tape in tapes], axis=1)

    return field


def _reference_closed_loop(plant, network):
    output_tapes = [
        compile_expression(expr, plant.state_names) for expr in plant.output_exprs
    ]
    extended_names = plant.state_names + plant.input_names
    field_tapes = [
        compile_expression(expr, extended_names) for expr in plant.field_exprs
    ]

    def numeric_batch(states):
        y = np.stack([t.eval_points(states) for t in output_tapes], axis=1)
        u = np.atleast_2d(network.forward(y))
        extended = np.hstack([states, u])
        return np.stack([t.eval_points(extended) for t in field_tapes], axis=1)

    return numeric_batch


def _reference_error_field(plant, network):
    # The error plant's first component is ``speed * sin(thetaerr)``.
    first = plant.field_exprs[0]
    assert isinstance(first, Mul) and isinstance(first.left, Const)
    speed = first.left.value

    def field_batch(states):
        u = network.forward(states)[:, 0]
        return np.stack([speed * np.sin(states[:, 1]), -u], axis=1)

    return field_batch


@contextlib.contextmanager
def reference():
    """Systems built inside this block use the closure composition."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(system_module, "vector_field", _reference_vector_field)
        patch.setattr(closed_loop, "closed_loop_field", _reference_closed_loop)
        patch.setattr(errors_dynamics, "closed_loop_field", _reference_error_field)
        yield


def _factories():
    factories = [
        pytest.param(api.get_scenario(name).system_factory, id=f"scenario:{name}")
        for name in api.scenario_names()
    ]
    factories += [
        pytest.param(
            api.get_family(name).instantiate().system_factory, id=f"family:{name}"
        )
        for name in api.family_names()
    ]
    (twin,) = generate_twins(api.get_scenario("pendulum"), ("scale-dynamics",))
    factories.append(pytest.param(twin.scenario.system_factory, id="twin:pendulum"))
    return factories


def _same(a, b) -> bool:
    return a.shape == b.shape and np.array_equal(a, b, equal_nan=True)


class TestSystemParity:
    def test_covers_the_builtins_and_families(self):
        assert len(api.scenario_names()) == 7
        assert len(api.family_names()) == 11

    @pytest.mark.parametrize("factory", _factories())
    def test_bit_identical_to_closure_composition(self, factory):
        system = factory()
        n = system.dimension
        rng = np.random.default_rng(n)
        points = rng.uniform(-1.5, 1.5, size=(60, n))
        layouts = {
            "contiguous": points,
            "strided": points[::3],
            "one-row": points[:1],
            "column-slice": np.hstack([points, points])[:, :n],
        }
        with reference():
            ref_system = factory()
            expected = {k: ref_system.f_vectorized(v) for k, v in layouts.items()}
        for key, states in layouts.items():
            got = system.f_vectorized(states)
            assert _same(got, expected[key]), key

    def test_reference_mode_really_swaps_the_path(self):
        factory = api.get_scenario("pendulum").system_factory
        with reference():
            assert not hasattr(factory()._numeric_batch_override, "source")
        assert hasattr(factory()._numeric_batch_override, "source")


class TestGeneratedField:
    def test_tape_systems_generate_once(self):
        x, y = var("x"), var("y")
        system = ContinuousSystem(["x", "y"], [y, -x - 0.5 * y + sin(x)])
        points = np.array([[0.1, 0.2], [-1.0, 3.0]])
        first = system.f_vectorized(points)
        field = system._field
        system.f_vectorized(points)
        assert system._field is field
        assert _same(first, system.f_batch(points))

    def test_width_mismatch_raises(self):
        system = ContinuousSystem(["x"], [-var("x")])
        with pytest.raises(EvaluationError):
            system.f_vectorized(np.zeros((3, 2)))

    def test_pickle_round_trip_drops_generated_field(self):
        x = var("x")
        system = ContinuousSystem(["x"], [-x + x**3 / 3.0], name="cubic")
        points = np.linspace(-2.0, 2.0, 7)[:, None]
        before = system.f_vectorized(points)
        clone = pickle.loads(pickle.dumps(system))
        assert clone._field is None
        assert clone.name == "cubic" and clone.state_names == ["x"]
        assert _same(clone.f_vectorized(points), before)

    def test_closed_loop_reads_current_parameters(self):
        from repro.dynamics import Plant, compose
        from repro.nn import controller_network

        network = controller_network(3, inputs=1, rng=np.random.default_rng(0))
        plant = Plant(["x"], ["u"], [var("u") - var("x")])
        system = compose(plant, network)
        points = np.array([[0.5], [-0.25]])
        before = system.f_vectorized(points)
        network.set_parameters(2.0 * network.get_parameters())
        after = system.f_vectorized(points)
        assert not _same(before, after)
        assert np.allclose(after, system.f_batch(points), atol=1e-12)

    def test_error_dynamics_non_unit_speed(self):
        from repro.learning import proportional_controller_network

        network = proportional_controller_network(4)
        points = np.random.default_rng(5).uniform(-1.0, 1.0, size=(9, 2))
        got = errors_dynamics.error_dynamics_system(network, speed=2.5)
        with reference():
            ref = errors_dynamics.error_dynamics_system(network, speed=2.5)
            expected = ref.f_vectorized(points)
        assert _same(got.f_vectorized(points), expected)
        assert math.isclose(got.f_vectorized(points)[0, 0], 2.5 * math.sin(points[0, 1]))
