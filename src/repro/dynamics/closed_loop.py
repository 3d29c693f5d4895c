"""Generic plant ⊕ NN-controller composition (Section 2 of the paper).

A :class:`Plant` is the open-loop model of Eqs. (1)–(2): a symbolic
vector field over state and input variables, plus an output map
``y = g(x)``.  :func:`compose` closes the loop with a feedforward
network ``u = h(y)`` (Eq. 3) by substituting the network's symbolic
outputs into the field, producing the autonomous system of Eq. (4) that
the barrier machinery verifies.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..errors import ReproError
from ..expr import (
    Expr,
    compile_expression,
    substitute,
    var,
)
from ..expr.codegen import SourceBuilder
from ..nn import FeedforwardNetwork
from .system import ContinuousSystem

__all__ = ["Plant", "closed_loop_field", "compose"]


class Plant:
    """Open-loop dynamics ``x' = f_p(x, u)`` with outputs ``y = g(x)``.

    Parameters
    ----------
    state_names:
        Names of the plant states ``x``.
    input_names:
        Names of the control inputs ``u`` as they appear in the field
        expressions.
    field_exprs:
        One expression per state derivative, over states and inputs.
    output_exprs:
        The measurement map ``g``; defaults to full-state output.
    name:
        Label for reports.
    """

    def __init__(
        self,
        state_names: Sequence[str],
        input_names: Sequence[str],
        field_exprs: Sequence[Expr],
        output_exprs: Sequence[Expr] | None = None,
        name: str = "plant",
    ):
        self.state_names = list(state_names)
        self.input_names = list(input_names)
        self.field_exprs = list(field_exprs)
        self.name = name
        if output_exprs is None:
            output_exprs = [var(n) for n in self.state_names]
        self.output_exprs = list(output_exprs)
        if len(self.field_exprs) != len(self.state_names):
            raise ReproError(
                f"{len(self.field_exprs)} field expressions for "
                f"{len(self.state_names)} states"
            )
        if not self.state_names or not self.input_names:
            raise ReproError("plants need at least one state and one input")
        overlap = set(self.state_names) & set(self.input_names)
        if overlap:
            raise ReproError(f"state/input name collision: {sorted(overlap)}")

    @property
    def state_dimension(self) -> int:
        """Number of states."""
        return len(self.state_names)

    @property
    def input_dimension(self) -> int:
        """Number of control inputs."""
        return len(self.input_names)

    @property
    def output_dimension(self) -> int:
        """Number of measured outputs."""
        return len(self.output_exprs)

    def __repr__(self) -> str:
        return (
            f"<Plant '{self.name}' states={self.state_names} "
            f"inputs={self.input_names}>"
        )


def _plant_tapes(plant: Plant) -> tuple[list, list]:
    """Compiled output tapes over ``x`` and field tapes over ``x | u``."""
    output_tapes = [
        compile_expression(expr, plant.state_names) for expr in plant.output_exprs
    ]
    extended_names = plant.state_names + plant.input_names
    field_tapes = [
        compile_expression(expr, extended_names) for expr in plant.field_exprs
    ]
    return output_tapes, field_tapes


def closed_loop_field(
    plant: Plant, network: FeedforwardNetwork
) -> Callable[[np.ndarray], np.ndarray]:
    """Generated batch field ``F(X)`` of the loop ``x' = f_p(x, h(g(x)))``.

    One straight-line function (:class:`~repro.expr.codegen.SourceBuilder`)
    emits, in order: the output tapes ``g`` over ``X`` (skipped for
    full-state output, which reads ``X`` itself); each network layer
    inline as ``act(h @ W.T + b)`` — :meth:`FeedforwardNetwork.forward`'s
    own expression, reading the layer's current parameters; then the
    plant tapes over the columns of ``X | u``.  Every intermediate array
    has the layout the step-by-step evaluation gave it (``y`` and
    ``X | u`` are C-contiguous), so the result is bit-identical to
    evaluating the tapes and calling ``forward`` one after the other.
    """
    builder = SourceBuilder()
    output_tapes, field_tapes = _plant_tapes(plant)
    full_state = len(output_tapes) == plant.state_dimension and all(
        tape.instructions == (("var", 0, i),) for i, tape in enumerate(output_tapes)
    )
    if full_state:
        h = builder.assign("ascontiguousarray(X)", prefix="h")
    else:
        h = builder.stack([builder.tape(tape) for tape in output_tapes])
    for layer in network.layers:
        name = builder.bind(layer, prefix="layer")
        h = builder.assign(
            f"{name}.activation.numeric({h} @ {name}.weights.T + {name}.biases)",
            prefix="h",
        )
    extended = builder.assign(f"concatenate((X, {h}), axis=1)", prefix="e")
    return builder.build(
        builder.stack([builder.tape(tape, extended) for tape in field_tapes])
    )


def compose(plant: Plant, network: FeedforwardNetwork, name: str | None = None) -> ContinuousSystem:
    """Close the loop: substitute ``u = h(g(x))`` into the plant field.

    Returns the autonomous :class:`ContinuousSystem` of Eq. (4).  Its
    batch field is :func:`closed_loop_field`: the plant tapes and the
    network's matrix forward pass in one generated function, avoiding
    the symbolic expression on the hot path while the symbolic field
    (used by the solver) contains the exact same composition.  The
    scalar override runs the same pipeline through the tapes and
    :meth:`FeedforwardNetwork.forward`.
    """
    if network.input_dimension != plant.output_dimension:
        raise ReproError(
            f"network expects {network.input_dimension} inputs but plant "
            f"outputs {plant.output_dimension} signals"
        )
    if network.output_dimension != plant.input_dimension:
        raise ReproError(
            f"network produces {network.output_dimension} outputs but plant "
            f"takes {plant.input_dimension} inputs"
        )

    u_exprs = network.symbolic_outputs(plant.output_exprs)
    bindings = dict(zip(plant.input_names, u_exprs))
    closed_exprs = [substitute(expr, bindings) for expr in plant.field_exprs]

    output_tapes, field_tapes = _plant_tapes(plant)

    def numeric(x: np.ndarray) -> np.ndarray:
        point = x[None, :]
        y = np.array([float(t.eval_points(point)[0]) for t in output_tapes])
        u = np.atleast_1d(network.forward(y))
        extended = np.concatenate([x, u])[None, :]
        return np.array([float(t.eval_points(extended)[0]) for t in field_tapes])

    return ContinuousSystem(
        state_names=plant.state_names,
        field_exprs=closed_exprs,
        numeric_override=numeric,
        numeric_batch_override=closed_loop_field(plant, network),
        name=name or f"{plant.name}+nn",
    )
