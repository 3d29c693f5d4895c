"""ODE integrators for autonomous systems ``x' = f(x)``.

Fixed-step explicit Euler and classic RK4 cover the paper's usage (the
traces only *suggest* candidate generator functions; soundness comes
from the SMT checks).  An adaptive Dormand–Prince RK45 is provided for
accuracy-sensitive workloads and for cross-checking the fixed-step
methods in the test suite.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np

from ..errors import SimulationError

__all__ = [
    "VectorField",
    "euler_step",
    "rk4_step",
    "fixed_step_schedule",
    "FixedStepIntegrator",
    "EulerIntegrator",
    "RK4Integrator",
    "DormandPrince45",
    "get_integrator",
]

VectorField = Callable[[np.ndarray], np.ndarray]


@lru_cache(maxsize=64)
def fixed_step_schedule(
    duration: float, dt: float
) -> tuple[np.ndarray, tuple[float, ...]]:
    """The canonical fixed-step time grid: ``(times, step_sizes)``.

    ``times`` has ``len(step_sizes) + 1`` entries starting at 0; the
    final step is the partial remainder whenever ``duration`` is not a
    multiple of ``dt``.  Both the scalar simulation driver and the
    vectorized batch integrator consume this one schedule, so their
    traces land on identical sample times by construction.

    The grid is built once per ``(duration, dt)`` and shared by every
    caller, so ``times`` is read-only.  It is strictly increasing: a
    step that left ``t`` unchanged would repeat forever.
    """
    if dt <= 0.0:
        raise SimulationError(f"step size must be positive, got {dt}")
    if duration < 0.0:
        raise SimulationError(f"duration must be non-negative, got {duration}")
    times = [0.0]
    steps: list[float] = []
    t = 0.0
    while t < duration - 1e-12:
        h = min(dt, duration - t)
        steps.append(h)
        t += h
        times.append(t)
    grid = np.asarray(times)
    grid.flags.writeable = False
    return grid, tuple(steps)


def euler_step(f: VectorField, x: np.ndarray, dt: float) -> np.ndarray:
    """One explicit Euler step."""
    return x + dt * f(x)


def rk4_step(f: VectorField, x: np.ndarray, dt: float) -> np.ndarray:
    """One classic fourth-order Runge–Kutta step."""
    k1 = f(x)
    k2 = f(x + 0.5 * dt * k1)
    k3 = f(x + 0.5 * dt * k2)
    k4 = f(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


class FixedStepIntegrator:
    """Base class for fixed-step integrators (subclasses define one step)."""

    name = "fixed"

    def step(self, f: VectorField, x: np.ndarray, dt: float) -> np.ndarray:
        """Advance the state by one step of size ``dt``."""
        raise NotImplementedError

    def integrate(
        self,
        f: VectorField,
        x0: np.ndarray,
        duration: float,
        dt: float,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Integrate for ``duration`` with steps of ``dt``.

        Returns ``(times, states)`` including the initial sample.  The
        final partial step (when ``duration`` is not a multiple of
        ``dt``) is taken with the remaining fraction.
        """
        if dt <= 0.0:
            raise SimulationError(f"step size must be positive, got {dt}")
        if duration < 0.0:
            raise SimulationError(f"duration must be non-negative, got {duration}")
        x = np.asarray(x0, dtype=float).copy()
        times = [0.0]
        states = [x.copy()]
        t = 0.0
        while t < duration - 1e-12:
            h = min(dt, duration - t)
            x = self.step(f, x, h)
            if not np.all(np.isfinite(x)):
                raise SimulationError(
                    f"integration blew up at t={t + h:g} (non-finite state)"
                )
            t += h
            times.append(t)
            states.append(x.copy())
        return np.array(times), np.array(states)


class EulerIntegrator(FixedStepIntegrator):
    """Explicit Euler (first order)."""

    name = "euler"

    def step(self, f: VectorField, x: np.ndarray, dt: float) -> np.ndarray:
        return euler_step(f, x, dt)


class RK4Integrator(FixedStepIntegrator):
    """Classic Runge–Kutta (fourth order)."""

    name = "rk4"

    def step(self, f: VectorField, x: np.ndarray, dt: float) -> np.ndarray:
        return rk4_step(f, x, dt)


# Dormand–Prince 5(4) Butcher tableau.
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_B4 = (
    5179 / 57600,
    0.0,
    7571 / 16695,
    393 / 640,
    -92097 / 339200,
    187 / 2100,
    1 / 40,
)


class DormandPrince45:
    """Adaptive Dormand–Prince RK5(4) with PI step-size control."""

    name = "rk45"

    def __init__(
        self,
        rtol: float = 1e-8,
        atol: float = 1e-10,
        max_step: float = np.inf,
        min_step: float = 1e-12,
        max_steps: int = 1_000_000,
    ):
        if rtol <= 0 or atol <= 0:
            raise SimulationError("tolerances must be positive")
        self.rtol = rtol
        self.atol = atol
        self.max_step = max_step
        self.min_step = min_step
        self.max_steps = max_steps

    def integrate(
        self,
        f: VectorField,
        x0: np.ndarray,
        duration: float,
        dt: float | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Adaptive integration over ``[0, duration]``.

        ``dt`` seeds the initial step size (defaults to ``duration/100``).
        """
        if duration < 0.0:
            raise SimulationError(f"duration must be non-negative, got {duration}")
        x = np.asarray(x0, dtype=float).copy()
        times = [0.0]
        states = [x.copy()]
        if duration == 0.0:
            return np.array(times), np.array(states)
        h = min(dt or duration / 100.0, duration, self.max_step)
        t = 0.0
        steps = 0
        while t < duration - 1e-12:
            if steps >= self.max_steps:
                raise SimulationError(f"RK45 exceeded {self.max_steps} steps")
            h = min(h, duration - t)
            x_new, error_norm = self._attempt(f, x, h)
            steps += 1
            if error_norm <= 1.0:
                t += h
                x = x_new
                if not np.all(np.isfinite(x)):
                    raise SimulationError(f"integration blew up at t={t:g}")
                times.append(t)
                states.append(x.copy())
            # Standard step-size update with safety factor and clamps.
            factor = 0.9 * (1.0 / max(error_norm, 1e-10)) ** 0.2
            h *= float(np.clip(factor, 0.2, 5.0))
            h = min(h, self.max_step)
            if h < self.min_step:
                raise SimulationError(
                    f"RK45 step size underflow at t={t:g} (h={h:g})"
                )
        return np.array(times), np.array(states)

    def _attempt(self, f: VectorField, x: np.ndarray, h: float) -> tuple[np.ndarray, float]:
        k = []
        for stage in range(7):
            xs = x.copy()
            for coeff, ki in zip(_DP_A[stage], k):
                xs = xs + h * coeff * ki
            k.append(f(xs))
        x5 = x + h * sum(b * ki for b, ki in zip(_DP_B5, k))
        x4 = x + h * sum(b * ki for b, ki in zip(_DP_B4, k))
        scale = self.atol + self.rtol * np.maximum(np.abs(x), np.abs(x5))
        error_norm = float(np.sqrt(np.mean(((x5 - x4) / scale) ** 2)))
        return x5, error_norm


_INTEGRATORS = {
    "euler": EulerIntegrator,
    "rk4": RK4Integrator,
    "rk45": DormandPrince45,
}


def get_integrator(name: str, **kwargs):
    """Instantiate an integrator by name (``euler``, ``rk4``, ``rk45``)."""
    key = name.lower()
    if key not in _INTEGRATORS:
        raise SimulationError(
            f"unknown integrator {name!r}; available: {sorted(_INTEGRATORS)}"
        )
    return _INTEGRATORS[key](**kwargs)
