"""Feedforward neural networks (the paper's controller class).

A :class:`FeedforwardNetwork` is a stack of dense layers, each an affine
map followed by an activation.  The paper's controller is the two-layer
shape ``2 -> Nh (tansig) -> 1 (linear)``; :func:`controller_network`
builds exactly that and checks the ``4*Nh + 1`` parameter count from
Section 4.2.

Two coherent evaluation semantics are exposed:

* :meth:`FeedforwardNetwork.forward` — batched numpy evaluation;
* :meth:`FeedforwardNetwork.symbolic_outputs` — expression-level
  composition used to build the closed-loop vector field for the SMT
  queries.  The solvers bound it soundly over boxes through the
  scalar :class:`~repro.intervals.Interval` or the compiled tapes.

Parameters are exposed as one flat vector (:meth:`get_parameters` /
:meth:`set_parameters`) because the CMA-ES policy search optimizes the
network in that representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..errors import ReproError
from ..expr import Expr, as_expr, dot
from .activations import Activation, get_activation

__all__ = ["Layer", "FeedforwardNetwork", "controller_network"]


@dataclass
class Layer:
    """One dense layer: ``activation(weights @ x + biases)``.

    ``weights`` has shape ``(fan_out, fan_in)``; ``biases`` has shape
    ``(fan_out,)``.
    """

    weights: np.ndarray
    biases: np.ndarray
    activation: Activation

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=float)
        self.biases = np.asarray(self.biases, dtype=float)
        self.activation = get_activation(self.activation)
        if self.weights.ndim != 2:
            raise ReproError(f"layer weights must be 2-D, got shape {self.weights.shape}")
        if self.biases.shape != (self.weights.shape[0],):
            raise ReproError(
                f"bias shape {self.biases.shape} does not match "
                f"{self.weights.shape[0]} output neurons"
            )

    @property
    def fan_in(self) -> int:
        """Input dimension."""
        return self.weights.shape[1]

    @property
    def fan_out(self) -> int:
        """Output dimension (number of neurons)."""
        return self.weights.shape[0]

    @property
    def parameter_count(self) -> int:
        """Weights plus biases."""
        return self.weights.size + self.biases.size


class FeedforwardNetwork:
    """A stateless feedforward network ``u = h(y)``.

    Parameters
    ----------
    layers:
        Dense layers; each layer's ``fan_in`` must equal the previous
        layer's ``fan_out``.
    """

    def __init__(self, layers: Iterable[Layer]):
        self.layers = list(layers)
        if not self.layers:
            raise ReproError("a network needs at least one layer")
        for previous, current in zip(self.layers, self.layers[1:]):
            if current.fan_in != previous.fan_out:
                raise ReproError(
                    f"layer size mismatch: {previous.fan_out} outputs feed "
                    f"{current.fan_in} inputs"
                )

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def input_dimension(self) -> int:
        """Dimension of the network input ``y``."""
        return self.layers[0].fan_in

    @property
    def output_dimension(self) -> int:
        """Dimension of the network output ``u``."""
        return self.layers[-1].fan_out

    @property
    def hidden_sizes(self) -> list[int]:
        """Neurons per hidden layer (excludes the output layer)."""
        return [layer.fan_out for layer in self.layers[:-1]]

    @property
    def parameter_count(self) -> int:
        """Total number of weights and biases."""
        return sum(layer.parameter_count for layer in self.layers)

    def is_smooth(self) -> bool:
        """True when every activation is differentiable everywhere."""
        return all(layer.activation.smooth for layer in self.layers)

    # ------------------------------------------------------------------
    # Numeric semantics
    # ------------------------------------------------------------------
    def forward(self, inputs: np.ndarray) -> np.ndarray:
        """Evaluate the network.

        ``inputs`` of shape ``(n,)`` returns ``(m,)``; shape ``(b, n)``
        returns ``(b, m)``.
        """
        x = np.asarray(inputs, dtype=float)
        single = x.ndim == 1
        if single:
            x = x[None, :]
        if x.shape[1] != self.input_dimension:
            raise ReproError(
                f"input dimension {x.shape[1]} != network input "
                f"{self.input_dimension}"
            )
        for layer in self.layers:
            x = layer.activation.numeric(x @ layer.weights.T + layer.biases)
        return x[0] if single else x

    def __call__(self, inputs: np.ndarray) -> np.ndarray:
        return self.forward(inputs)

    # ------------------------------------------------------------------
    # Symbolic semantics
    # ------------------------------------------------------------------
    def symbolic_outputs(self, inputs: Sequence["Expr | float"]) -> list[Expr]:
        """Network outputs as expressions of the given input expressions.

        Sums are built as balanced trees (logarithmic depth), so even a
        thousand-neuron hidden layer produces an expression the solver
        tape can evaluate efficiently.
        """
        if len(inputs) != self.input_dimension:
            raise ReproError(
                f"{len(inputs)} symbolic inputs given, network expects "
                f"{self.input_dimension}"
            )
        values: list[Expr] = [as_expr(v) for v in inputs]
        for layer in self.layers:
            next_values = []
            for row, bias in zip(layer.weights, layer.biases):
                pre = dot(row, values)
                if bias != 0.0:
                    pre = pre + float(bias)
                next_values.append(layer.activation.symbolic(pre))
            values = next_values
        return values

    # ------------------------------------------------------------------
    # Flat parameter vector (for CMA-ES)
    # ------------------------------------------------------------------
    def get_parameters(self) -> np.ndarray:
        """Concatenation of all weights (row-major) and biases, per layer."""
        chunks = []
        for layer in self.layers:
            chunks.append(layer.weights.ravel())
            chunks.append(layer.biases.ravel())
        return np.concatenate(chunks)

    def set_parameters(self, parameters: np.ndarray) -> None:
        """Load a flat vector produced by :meth:`get_parameters`."""
        parameters = np.asarray(parameters, dtype=float)
        if parameters.shape != (self.parameter_count,):
            raise ReproError(
                f"expected {self.parameter_count} parameters, got "
                f"{parameters.shape}"
            )
        offset = 0
        for layer in self.layers:
            w_size = layer.weights.size
            layer.weights = parameters[offset : offset + w_size].reshape(
                layer.weights.shape
            )
            offset += w_size
            b_size = layer.biases.size
            layer.biases = parameters[offset : offset + b_size].copy()
            offset += b_size

    def copy(self) -> "FeedforwardNetwork":
        """Deep copy (independent parameter arrays)."""
        return FeedforwardNetwork(
            Layer(layer.weights.copy(), layer.biases.copy(), layer.activation)
            for layer in self.layers
        )

    def __repr__(self) -> str:
        shape = " -> ".join(
            [str(self.input_dimension)]
            + [f"{layer.fan_out} ({layer.activation.name})" for layer in self.layers]
        )
        return f"<FeedforwardNetwork {shape}, {self.parameter_count} params>"


def controller_network(
    hidden_neurons: int,
    inputs: int = 2,
    outputs: int = 1,
    hidden_activation: "str | Activation" = "tansig",
    output_activation: "str | Activation" = "linear",
    rng: np.random.Generator | None = None,
    scale: float = 0.5,
) -> FeedforwardNetwork:
    """The paper's controller shape: ``inputs -> Nh (tansig) -> outputs``.

    With the default 2/1 input/output sizes the parameter count is the
    paper's ``4*Nh + 1``.  Weights are initialized uniformly in
    ``[-scale, scale]`` (a fresh default generator is used when ``rng``
    is omitted), matching the "random set of NN parameters" starting
    point of the policy search.
    """
    if hidden_neurons < 1:
        raise ReproError("hidden_neurons must be >= 1")
    rng = rng or np.random.default_rng()
    hidden = Layer(
        weights=rng.uniform(-scale, scale, size=(hidden_neurons, inputs)),
        biases=rng.uniform(-scale, scale, size=hidden_neurons),
        activation=get_activation(hidden_activation),
    )
    output = Layer(
        weights=rng.uniform(-scale, scale, size=(outputs, hidden_neurons)),
        biases=rng.uniform(-scale, scale, size=outputs),
        activation=get_activation(output_activation),
    )
    return FeedforwardNetwork([hidden, output])
