"""FeedforwardNetwork tests: shapes, numeric/symbolic agreement, parameters."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.expr import evaluate, var
from repro.nn import FeedforwardNetwork, Layer, controller_network


def make_net(sizes, rng, activation="tansig"):
    layers = []
    for i, (fan_in, fan_out) in enumerate(zip(sizes, sizes[1:])):
        act = activation if i < len(sizes) - 2 else "linear"
        layers.append(
            Layer(
                rng.normal(size=(fan_out, fan_in)),
                rng.normal(size=fan_out),
                act,
            )
        )
    return FeedforwardNetwork(layers)


class TestShapes:
    def test_layer_validation(self):
        with pytest.raises(ReproError):
            Layer(np.zeros((2, 3)), np.zeros(3), "tansig")  # bias mismatch
        with pytest.raises(ReproError):
            Layer(np.zeros(4), np.zeros(4), "tansig")  # 1-D weights

    def test_network_layer_chain_validated(self):
        l1 = Layer(np.zeros((4, 2)), np.zeros(4), "tansig")
        l2 = Layer(np.zeros((1, 3)), np.zeros(1), "linear")  # wrong fan_in
        with pytest.raises(ReproError):
            FeedforwardNetwork([l1, l2])

    def test_empty_rejected(self):
        with pytest.raises(ReproError):
            FeedforwardNetwork([])

    def test_dimensions(self, rng):
        net = make_net([2, 7, 3], rng)
        assert net.input_dimension == 2
        assert net.output_dimension == 3
        assert net.hidden_sizes == [7]

    def test_paper_parameter_count(self):
        """Section 4.2: a 2 -> Nh -> 1 network has 4*Nh + 1 parameters."""
        for nh in (1, 10, 100, 1000):
            net = controller_network(nh)
            assert net.parameter_count == 4 * nh + 1

    def test_forward_shapes(self, rng):
        net = make_net([3, 5, 2], rng)
        single = net.forward(np.zeros(3))
        assert single.shape == (2,)
        batch = net.forward(np.zeros((10, 3)))
        assert batch.shape == (10, 2)

    def test_forward_dimension_check(self, rng):
        net = make_net([3, 5, 2], rng)
        with pytest.raises(ReproError):
            net.forward(np.zeros(4))

    def test_is_smooth(self, rng):
        assert make_net([2, 3, 1], rng).is_smooth()
        assert not make_net([2, 3, 1], rng, activation="relu").is_smooth()


class TestSemanticsAgreement:
    @pytest.mark.parametrize("sizes", [[2, 4, 1], [2, 8, 3, 1], [1, 5, 5, 2]])
    def test_numeric_vs_symbolic(self, sizes, rng):
        net = make_net(sizes, rng)
        inputs = [var(f"y{i}") for i in range(sizes[0])]
        exprs = net.symbolic_outputs(inputs)
        assert len(exprs) == sizes[-1]
        for _ in range(10):
            y = rng.uniform(-2, 2, size=sizes[0])
            numeric = net.forward(y)
            env = {f"y{i}": float(v) for i, v in enumerate(y)}
            symbolic = np.array([evaluate(e, env) for e in exprs])
            assert np.allclose(numeric, symbolic, rtol=1e-10, atol=1e-10)

    @given(st.integers(min_value=1, max_value=64))
    def test_symbolic_wide_layer(self, width):
        rng = np.random.default_rng(width)
        net = make_net([2, width, 1], rng)
        exprs = net.symbolic_outputs([var("a"), var("b")])
        y = rng.uniform(-1, 1, size=2)
        env = {"a": float(y[0]), "b": float(y[1])}
        assert evaluate(exprs[0], env) == pytest.approx(
            float(net.forward(y)[0]), rel=1e-10, abs=1e-10
        )


class TestParameters:
    def test_roundtrip(self, rng):
        net = make_net([2, 5, 1], rng)
        params = net.get_parameters()
        clone = net.copy()
        clone.set_parameters(np.zeros_like(params))
        assert np.allclose(clone.forward(np.ones(2)), 0.0)
        clone.set_parameters(params)
        assert np.allclose(clone.forward(np.ones(2)), net.forward(np.ones(2)))

    def test_wrong_length_rejected(self, rng):
        net = make_net([2, 5, 1], rng)
        with pytest.raises(ReproError):
            net.set_parameters(np.zeros(net.parameter_count + 1))

    def test_copy_is_independent(self, rng):
        net = make_net([2, 3, 1], rng)
        clone = net.copy()
        clone.layers[0].weights[:] = 0.0
        assert not np.allclose(net.layers[0].weights, 0.0)

    def test_perturbation_changes_output(self, rng):
        net = make_net([2, 4, 1], rng)
        y = np.array([0.5, -0.5])
        before = net.forward(y).copy()
        params = net.get_parameters()
        net.set_parameters(params + 0.1)
        assert not np.allclose(net.forward(y), before)


class TestControllerNetwork:
    def test_structure(self):
        net = controller_network(12)
        assert net.input_dimension == 2
        assert net.output_dimension == 1
        assert net.hidden_sizes == [12]
        assert net.layers[0].activation.name == "tansig"
        assert net.layers[1].activation.name == "linear"

    def test_seeded_reproducibility(self):
        a = controller_network(8, rng=np.random.default_rng(5))
        b = controller_network(8, rng=np.random.default_rng(5))
        assert np.allclose(a.get_parameters(), b.get_parameters())

    def test_invalid_width(self):
        with pytest.raises(ReproError):
            controller_network(0)
