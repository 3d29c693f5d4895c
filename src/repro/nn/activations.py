"""Activation functions with two coherent semantics.

Each activation provides:

* ``numeric`` — vectorized numpy forward evaluation;
* ``symbolic`` — an :class:`~repro.expr.Expr` builder (what the SMT
  queries see, and what the solvers bound soundly over boxes).

The paper's case study uses MATLAB's ``tansig``, which is exactly
``tanh``; both names resolve to the same object here.  The verification
method itself supports any Type-2 computable activation, so sigmoid
(``logsig``), ReLU (``poslin``), and identity (``purelin``) are included
and exercised in the ablation benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import ReproError
from ..expr import Expr, maximum, sigmoid as sigmoid_expr, tanh as tanh_expr

__all__ = ["Activation", "get_activation", "available_activations", "TANSIG", "LOGSIG", "RELU", "LINEAR"]


@dataclass(frozen=True)
class Activation:
    """Bundle of the two semantics of one activation function."""

    name: str
    numeric: Callable[[np.ndarray], np.ndarray]
    symbolic: Callable[[Expr], Expr]
    #: True when the function is smooth (required for barrier gradients).
    smooth: bool = True

    def __repr__(self) -> str:
        return f"Activation({self.name!r})"


def _sigmoid_numeric(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=float)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


TANSIG = Activation(
    name="tansig",
    numeric=np.tanh,
    symbolic=tanh_expr,
)

LOGSIG = Activation(
    name="logsig",
    numeric=_sigmoid_numeric,
    symbolic=sigmoid_expr,
)

RELU = Activation(
    name="relu",
    numeric=lambda x: np.maximum(x, 0.0),
    symbolic=lambda e: maximum(e, 0.0),
    smooth=False,
)

LINEAR = Activation(
    name="linear",
    numeric=lambda x: x,
    symbolic=lambda e: e,
)

_REGISTRY: dict[str, Activation] = {
    "tansig": TANSIG,
    "tanh": TANSIG,
    "logsig": LOGSIG,
    "sigmoid": LOGSIG,
    "relu": RELU,
    "poslin": RELU,
    "linear": LINEAR,
    "purelin": LINEAR,
    "identity": LINEAR,
}


def get_activation(name: "str | Activation") -> Activation:
    """Look up an activation by (MATLAB or common) name."""
    if isinstance(name, Activation):
        return name
    key = name.lower()
    if key not in _REGISTRY:
        raise ReproError(
            f"unknown activation {name!r}; available: {sorted(set(_REGISTRY))}"
        )
    return _REGISTRY[key]


def available_activations() -> list[str]:
    """Canonical activation names."""
    return sorted({act.name for act in _REGISTRY.values()})
