"""Continuous-time autonomous systems with dual semantics.

A :class:`ContinuousSystem` owns the *symbolic* vector field (what the
SMT queries reason about) and derives from it a *numeric* callable for
simulation.  When a faster hand-written numeric implementation exists
(e.g. calling the NN's matrix forward pass instead of walking its
expression), it can be supplied as ``numeric_override`` — the test suite
cross-checks the two, mirroring the paper's assumption that simulation
is an approximation of the verified semantics.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..errors import ReproError
from ..expr import CompiledExpression, Expr, compile_expression
from ..sim import Simulator

__all__ = ["ContinuousSystem"]


class ContinuousSystem:
    """An autonomous system ``x' = f(x)`` over named state variables.

    Parameters
    ----------
    state_names:
        Names of the state variables, fixing the coordinate order.
    field_exprs:
        One expression per state derivative, over those variables.
    numeric_override:
        Optional fast ``f(x) -> x_dot``; defaults to evaluating the
        compiled symbolic field.
    numeric_batch_override:
        Optional fast batch ``F(X) -> X_dot`` over ``(m, n)`` state
        arrays — the hot path of the vectorized simulation engine.  When
        absent, :meth:`f_vectorized` falls back to the compiled symbolic
        tapes, which are themselves vectorized over points.
    name:
        Human-readable label for reports.
    """

    def __init__(
        self,
        state_names: Sequence[str],
        field_exprs: Sequence[Expr],
        numeric_override: Callable[[np.ndarray], np.ndarray] | None = None,
        numeric_batch_override: Callable[[np.ndarray], np.ndarray] | None = None,
        name: str = "system",
    ):
        self.state_names = list(state_names)
        self.field_exprs = list(field_exprs)
        self.name = name
        if not self.state_names:
            raise ReproError("a system needs at least one state variable")
        if len(self.field_exprs) != len(self.state_names):
            raise ReproError(
                f"{len(self.field_exprs)} field expressions for "
                f"{len(self.state_names)} states"
            )
        self._numeric_override = numeric_override
        self._numeric_batch_override = numeric_batch_override
        self._tapes: list[CompiledExpression] | None = None

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def dimension(self) -> int:
        """State dimension."""
        return len(self.state_names)

    def tapes(self) -> list[CompiledExpression]:
        """Compiled tapes of the field components (built lazily, cached)."""
        if self._tapes is None:
            self._tapes = [
                compile_expression(expr, self.state_names)
                for expr in self.field_exprs
            ]
        return self._tapes

    # ------------------------------------------------------------------
    # Numeric semantics
    # ------------------------------------------------------------------
    def f(self, x: np.ndarray) -> np.ndarray:
        """Vector field at a single state."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dimension,):
            raise ReproError(f"state shape {x.shape} != ({self.dimension},)")
        if self._numeric_override is not None:
            return np.asarray(self._numeric_override(x), dtype=float)
        point = x[None, :]
        return np.array([float(tape.eval_points(point)[0]) for tape in self.tapes()])

    def f_batch(self, states: np.ndarray) -> np.ndarray:
        """Vector field at many states, shape ``(m, n) -> (m, n)``."""
        states = np.atleast_2d(np.asarray(states, dtype=float))
        if self._numeric_override is not None:
            return np.array([self._numeric_override(x) for x in states])
        return np.stack(
            [tape.eval_points(states) for tape in self.tapes()], axis=1
        )

    def f_vectorized(self, states: np.ndarray) -> np.ndarray:
        """Vector field at many states through one array pass.

        Unlike :meth:`f_batch` — which preserves the historical per-state
        loop over a scalar ``numeric_override`` — this path never drops
        to a Python loop: it uses ``numeric_batch_override`` when
        supplied and the vectorized compiled tapes otherwise.  The
        results agree with :meth:`f_batch` to floating-point round-off
        (BLAS batch kernels may reorder reductions).  The batch simulator
        and the LP's Lie-derivative rows use it; the scalar ``native``
        simulator integrates through :meth:`f` instead.
        """
        states = np.atleast_2d(np.asarray(states, dtype=float))
        if self._numeric_batch_override is not None:
            return np.asarray(self._numeric_batch_override(states), dtype=float)
        return np.stack(
            [tape.eval_points(states) for tape in self.tapes()], axis=1
        )

    def symbolic_f(self, x: np.ndarray) -> np.ndarray:
        """Vector field evaluated through the symbolic tapes (for cross-checks)."""
        point = np.asarray(x, dtype=float)[None, :]
        return np.array([float(tape.eval_points(point)[0]) for tape in self.tapes()])

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def simulator(
        self,
        input_function: Callable[[np.ndarray], np.ndarray] | None = None,
        method: str = "rk4",
        **options,
    ) -> Simulator:
        """A :class:`~repro.sim.Simulator` bound to this system's dynamics."""
        return Simulator(self.f, input_function=input_function, method=method, **options)

    def __repr__(self) -> str:
        return f"<ContinuousSystem '{self.name}' states={self.state_names}>"
