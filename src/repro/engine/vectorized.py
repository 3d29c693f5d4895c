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
Liveness is deferred: the live ``(m, n)`` block takes a chunk of
:data:`_CHUNK` steps into ``history`` without looking at its rows, then
one survivors pass over the chunk's ``(_CHUNK * b, n)`` slab finds each
row's first stop step, and stopped rows leave the block only at the
chunk boundary.  Rows that stopped inside a chunk step on to its end
under ``np.errstate(all="ignore")``; those samples are never read.

Semantics match the native fixed-step driver: the shared time grid
(including the final partial step), the blow-up guard, the non-finite
cutoff, and per-trajectory early stopping all behave identically, and a
per-state stop condition sees exactly the states the per-step loop
would show it.  Because the batch field works row by row, each trace is
bit for bit the one a one-row loop over the same stepper and field
gives, whatever else is in the block.  The native backend evaluates the
field through another code path, so against it traces agree to
integrator accuracy.

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

#: steps between liveness checks: one survivors pass per chunk instead of
#: one per step, at the cost of stepping stopped rows to the chunk's end
_CHUNK = 16


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
        batch_stop = getattr(stop_condition, "batch", None)
        scalar_stop = stop_condition if batch_stop is None else None

        k = 0  # steps taken so far
        while k < total_steps and active.size:
            chunk = steps[k : k + _CHUNK]
            c, b = len(chunk), active.size
            # All rows live: step straight into history; else into a
            # chunk buffer scattered back once.
            slab = history[k + 1 : k + 1 + c] if b == m else np.empty((c, b, n))
            # Rows that stopped inside the chunk keep stepping to its
            # end; their samples past the stop are never read, and the
            # floating-point errors they raise are not reported.
            with np.errstate(all="ignore"):
                for j, h in enumerate(chunk):
                    states = stepper(field, states, float(h))
                    slab[j] = states
                finite, keep = self._survivors(slab.reshape(c * b, n), batch_stop)
            finite, keep = finite.reshape(c, b), keep.reshape(c, b)
            if scalar_stop is not None:
                _scalar_stops(scalar_stop, slab, keep)
            if b < m:
                history[k + 1 : k + 1 + c, active] = slab
            stops = ~keep.all(axis=0)
            if stops.any():
                # Each stopping row stops at its first failed step.
                # Non-finite states are dropped (native: break before
                # append); blow-ups and stop events keep the final sample.
                rows = np.flatnonzero(stops)
                first = keep[:, rows].argmin(axis=0)
                step = k + 1 + first
                counts[active[rows]] = np.where(finite[first, rows], step + 1, step)
                truncated[active[rows]] = True
                active = active[~stops]
                states = states[~stops]
            k += c

        return [
            Trace._on_grid(
                times_arr[: counts[i]],
                history[: counts[i], i].copy(),
                bool(truncated[i]),
            )
            for i in range(m)
        ]

    def _survivors(
        self, states: np.ndarray, batch_stop
    ) -> tuple[np.ndarray, np.ndarray]:
        """Row masks ``(finite, keep)`` over a block of stepped states."""
        finite = np.isfinite(states).all(axis=1)
        keep = finite.copy()
        if self.blowup_norm is not None:
            # np.linalg.norm(states, axis=1), without its dispatch
            norms = np.sqrt(np.add.reduce(states * states, axis=1))
            keep &= ~(norms > self.blowup_norm)
        if batch_stop is not None:
            # Vector-aware condition (e.g. the synthesis loop's
            # domain-exit test): one array pass for the whole chunk
            # instead of one call per live row and step.
            keep &= ~np.asarray(batch_stop(states), dtype=bool)
        return finite, keep


def _scalar_stops(stop_condition, slab: np.ndarray, keep: np.ndarray) -> None:
    """Fold a per-state stop condition into the chunk's ``(c, b)`` ``keep``.

    Each row's condition sees its states in step order up to the row's
    first stop, and never a non-finite or blown-up state: the calls the
    per-step loop would make, no more.
    """
    for row in range(keep.shape[1]):
        for j in range(keep.shape[0]):
            if not keep[j, row]:
                break
            if stop_condition(slab[j, row]):
                keep[j, row] = False
                break
