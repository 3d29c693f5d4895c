"""Continuous-time autonomous systems with dual semantics.

A :class:`ContinuousSystem` owns the *symbolic* vector field (what the
SMT queries reason about) and derives from it a *numeric* callable for
simulation.  When a faster numeric implementation exists (e.g. calling
the NN's matrix forward pass instead of walking its expression), it can
be supplied as ``numeric_override`` / ``numeric_batch_override`` — the
test suite cross-checks the two, mirroring the paper's assumption that
simulation is an approximation of the verified semantics.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..errors import EvaluationError, ReproError
from ..expr import CompiledExpression, Expr, compile_expression
from ..expr.codegen import vector_field
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
        Optional fast batch ``F(X) -> X_dot`` from ``(m, n)`` float
        state arrays to an ``(m, n)`` float ndarray — the hot path of
        the vectorized simulation engine, which calls it unchecked.
        When absent, :meth:`f_vectorized` runs the compiled symbolic
        tapes through one generated straight-line function.
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
        self._field: Callable[[np.ndarray], np.ndarray] | None = None

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
        to a Python loop: it validates ``states`` and calls
        :meth:`batch_field`.  Without a ``numeric_batch_override`` that
        is one generated straight-line function over the field tapes,
        bit-identical to stacking their ``eval_points`` columns.  The
        results agree with :meth:`f_batch` to floating-point round-off
        (BLAS batch kernels may reorder reductions).  The LP's
        Lie-derivative rows use it; the batch simulator calls
        :meth:`batch_field` directly and the scalar ``native`` simulator
        integrates through :meth:`f` instead.
        """
        states = np.atleast_2d(np.asarray(states, dtype=float))
        if states.shape[1] != self.dimension:
            raise EvaluationError(
                f"states have {states.shape[1]} columns, expected {self.dimension}"
            )
        return np.asarray(self.batch_field()(states), dtype=float)

    def batch_field(self) -> Callable[[np.ndarray], np.ndarray]:
        """The unchecked batch field ``F(X) -> X_dot`` behind :meth:`f_vectorized`.

        ``numeric_batch_override`` when supplied; otherwise the field
        tapes compiled once per instance by
        :func:`repro.expr.codegen.vector_field`.  Callers pass ``(m, n)``
        float arrays themselves — the batch integrator's hot loop does.
        """
        if self._numeric_batch_override is not None:
            return self._numeric_batch_override
        if self._field is None:
            self._field = vector_field(self.tapes())
        return self._field

    def symbolic_f(self, x: np.ndarray) -> np.ndarray:
        """Vector field evaluated through the symbolic tapes (for cross-checks)."""
        point = np.asarray(x, dtype=float)[None, :]
        return np.array([float(tape.eval_points(point)[0]) for tape in self.tapes()])

    def __getstate__(self) -> dict:
        # The generated field is exec-compiled and does not pickle; like
        # a tape's point function it is rebuilt on first use.
        state = self.__dict__.copy()
        state["_field"] = None
        return state

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
