"""Batch simulation for ``batched-icp``: one array pass.

The native seed-sim stage integrates each initial state in its own
Python loop — for ``m`` seed traces of ``T`` steps that is ``m * T``
interpreted steps, each paying a per-call vector-field dispatch.  The
:class:`VectorizedSimBackend` instead steps **all** trajectories through
one ``(m, n)`` NumPy array per stage of the Runge–Kutta update, so the
Python overhead is ``T`` regardless of how many seeds the synthesis
uses.  On the paper's dubins workload this is the dominant non-SMT cost
(see ``benchmarks/test_engine_backends.py``).

Each RK stage is one call of the system's batch field
(:meth:`~repro.dynamics.ContinuousSystem.batch_field`): for the builtin
systems a generated straight-line NumPy function (see
:mod:`repro.expr.codegen`), called without per-call argument checks.
The integrator keeps the live ``(m, n)`` block in hand: while every row
is alive it writes ``history[k]`` by slice, and the per-row bookkeeping
(sample counts, truncation flags, the live-row index) runs only on the
steps where some row stops.

Semantics match the native fixed-step driver: the shared time grid
(including the final partial step), the blow-up guard, the non-finite
cutoff, and per-trajectory early stopping all behave identically — only
the execution order of floating-point work differs, so traces agree to
integrator accuracy rather than bit-for-bit.

The adaptive ``rk45`` method steps each trajectory on its own time grid
and cannot share an array pass; it falls back to the native driver.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..sim import Trace
from ..sim.integrators import euler_step, fixed_step_schedule, rk4_step
from .native import NativeSimBackend

__all__ = ["VectorizedSimBackend"]


def _batch_field(system) -> Callable[[np.ndarray], np.ndarray]:
    """Best batched ``F(X) -> X_dot`` for a system, ``(m, n) -> (m, n)``.

    Prefers :meth:`~repro.dynamics.ContinuousSystem.batch_field` (a
    dedicated batch override or the generated straight-line field,
    without per-call argument checks); any system-like object exposing
    only ``f_batch`` still works.
    """
    batch_field = getattr(system, "batch_field", None)
    if batch_field is not None:
        return batch_field()
    return system.f_batch


# The canonical scalar steppers are pure NumPy expressions, so with a
# batched field they broadcast over (m, n) state arrays unchanged.
_BATCH_STEPPERS = {"rk4": rk4_step, "euler": euler_step}


class VectorizedSimBackend:
    """Fixed-step batch integrator over all trajectories at once.

    Parameters
    ----------
    blowup_norm:
        Euclidean norm beyond which a trajectory stops and its trace is
        marked truncated (the native default); None disables the guard.
    """

    name = "vectorized-sim"

    def __init__(self, blowup_norm: float | None = 1e6):
        self.blowup_norm = blowup_norm
        self._fallback = NativeSimBackend()

    def simulate(
        self,
        system,
        initial_states: np.ndarray,
        duration: float,
        dt: float,
        method: str = "rk4",
        stop_condition: Callable[[np.ndarray], bool] | None = None,
    ) -> list[Trace]:
        """Advance every initial state in one array pass per RK stage."""
        stepper = _BATCH_STEPPERS.get(method.lower())
        if stepper is None:
            # Adaptive integrators choose per-trajectory step sizes; the
            # shared-grid batch pass does not apply.
            return self._fallback.simulate(
                system, initial_states, duration, dt,
                method=method, stop_condition=stop_condition,
            )
        x0s = np.atleast_2d(np.asarray(initial_states, dtype=float))
        m, n = x0s.shape
        field = _batch_field(system)

        # The exact time grid of the scalar driver, from the one shared
        # schedule (incl. the partial final step).
        times_arr, steps = fixed_step_schedule(duration, dt)
        total_steps = len(steps)

        history = np.empty((total_steps + 1, m, n))
        history[0] = x0s
        #: samples recorded per trajectory (initial state included);
        #: rows that run to the end keep the full count
        counts = np.full(m, total_steps + 1, dtype=int)
        truncated = np.zeros(m, dtype=bool)
        #: the live block and the history rows it belongs to
        states = history[0]
        active = np.arange(m)

        for k, h in enumerate(steps, start=1):
            states = stepper(field, states, float(h))
            if len(active) == m:
                history[k] = states
            else:
                history[k, active] = states
            finite, keep = self._survivors(states, stop_condition)
            if keep.all():
                continue
            # Some rows stop at step k.  Non-finite states are dropped
            # (native: break before append); blow-ups and stop events
            # keep the final sample.
            stopped = ~keep
            counts[active[stopped]] = np.where(finite[stopped], k + 1, k)
            truncated[active[stopped]] = True
            active = active[keep]
            states = states[keep]
            if active.size == 0:
                break

        return [
            Trace(
                times_arr[: counts[i]],
                history[: counts[i], i].copy(),
                None,
                bool(truncated[i]),
            )
            for i in range(m)
        ]

    def _survivors(
        self, states: np.ndarray, stop_condition
    ) -> tuple[np.ndarray, np.ndarray]:
        """Row masks ``(finite, keep)`` after one step of the live block."""
        finite = np.isfinite(states).all(axis=1)
        keep = finite.copy()
        if self.blowup_norm is not None:
            # np.linalg.norm(states, axis=1), without its dispatch
            norms = np.sqrt(np.add.reduce(states * states, axis=1))
            keep &= ~(norms > self.blowup_norm)
        if stop_condition is not None:
            batch_stop = getattr(stop_condition, "batch", None)
            if batch_stop is not None:
                # Vector-aware condition (e.g. the synthesis loop's
                # domain-exit test): one array pass for the whole block
                # instead of one call per live row.
                keep &= ~np.asarray(batch_stop(states), dtype=bool)
            else:
                keep &= ~np.array(
                    [
                        bool(stop_condition(state)) if alive else False
                        for state, alive in zip(states, keep)
                    ],
                    dtype=bool,
                )
        return finite, keep
