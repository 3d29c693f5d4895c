"""The paper's error dynamics (Section 4.1.3–4.1.4).

For a straight-line target path with constant orientation ``theta_r``,
the closed-loop system reduces to two states ``x = [d_err, theta_err]``:

.. math::

    \\dot d_{err} &= -V \\sin(\\theta_r - \\theta_{err})\\cos\\theta_r
                    + V \\cos(\\theta_r - \\theta_{err})\\sin\\theta_r \\\\
    \\dot\\theta_{err} &= -u, \\qquad u = h(d_{err}, \\theta_{err})

The first equation telescopes to ``V sin(theta_err)`` by the sine
difference identity; :func:`error_field_exprs` can emit either form
(``simplified=True``/``False``) and the test suite proves them equal.
The verbatim form is kept because the SMT queries in the paper are posed
against exactly the published expression.
"""

from __future__ import annotations

import math
import numpy as np

from ..errors import ReproError
from ..expr import Expr, cos, sin, var
from ..nn import FeedforwardNetwork
from .closed_loop import Plant, closed_loop_field
from .system import ContinuousSystem

__all__ = [
    "STATE_NAMES",
    "error_field_exprs",
    "error_dynamics_system",
    "numeric_error_field",
]

#: State variable names of the reduced model, in order.
STATE_NAMES = ("derr", "thetaerr")


def error_field_exprs(
    controller_output: Expr,
    speed: float = 1.0,
    theta_r: float = 0.0,
    simplified: bool = True,
) -> list[Expr]:
    """Symbolic ``[d_err', theta_err']`` with ``u`` given as an expression.

    ``controller_output`` must be an expression over the variables
    ``derr`` and ``thetaerr`` (e.g. a network's symbolic output).
    """
    if speed <= 0.0:
        raise ReproError(f"speed must be positive, got {speed}")
    theta_err = var("thetaerr")
    if simplified:
        d_err_dot: Expr = speed * sin(theta_err)
    else:
        d_err_dot = (-speed) * sin(theta_r - theta_err) * math.cos(theta_r) + (
            speed
        ) * cos(theta_r - theta_err) * math.sin(theta_r)
    return [d_err_dot, -controller_output]


def numeric_error_field(
    network: FeedforwardNetwork, speed: float = 1.0
) -> "callable":
    """Fast numeric ``f([d_err, theta_err])`` using the NN matrix forward pass."""
    if network.input_dimension != 2 or network.output_dimension != 1:
        raise ReproError(
            "the error-dynamics controller must map 2 inputs to 1 output, got "
            f"{network.input_dimension} -> {network.output_dimension}"
        )

    def field(x: np.ndarray) -> np.ndarray:
        u = float(network.forward(x)[0])
        return np.array([speed * math.sin(x[1]), -u])

    return field


def error_dynamics_system(
    network: FeedforwardNetwork,
    speed: float = 1.0,
    theta_r: float = 0.0,
    simplified: bool = True,
) -> ContinuousSystem:
    """The paper's closed-loop verification model.

    The symbolic field embeds the network's symbolic output (what the
    SMT solver sees); the numeric overrides call the network's matrix
    forward pass (what the simulator integrates) — the batch one through
    :func:`~repro.dynamics.closed_loop.closed_loop_field` over the
    simplified field with ``u`` left open.  These agree to float
    round-off — a property test asserts it.
    """
    inputs = [var("derr"), var("thetaerr")]
    u_expr = network.symbolic_outputs(inputs)[0]
    exprs = error_field_exprs(u_expr, speed=speed, theta_r=theta_r, simplified=simplified)
    numeric = numeric_error_field(network, speed)  # checks the 2 -> 1 shape first
    plant = Plant(
        state_names=list(STATE_NAMES),
        input_names=["u"],
        field_exprs=error_field_exprs(var("u"), speed=speed),
    )
    return ContinuousSystem(
        state_names=list(STATE_NAMES),
        field_exprs=exprs,
        numeric_override=numeric,
        numeric_batch_override=closed_loop_field(plant, network),
        name=f"dubins-error-dynamics-Nh{network.hidden_sizes or [0]}",
    )
