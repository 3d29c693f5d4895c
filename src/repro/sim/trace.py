"""Simulation traces.

A :class:`Trace` is the record of one closed-loop simulation: sampled
times, states, and (optionally) the controller outputs at each sample.
Traces feed the LP constraint generator (consecutive state pairs witness
the "decreases along trajectories" condition) and the experiment plots.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from ..errors import SimulationError

__all__ = ["Trace"]


class Trace:
    """Time-indexed states of one simulation run.

    Parameters
    ----------
    times:
        Strictly increasing sample times, shape ``(T,)``.
    states:
        States per sample, shape ``(T, n)``.
    inputs:
        Optional control inputs per sample, shape ``(T, m)``.
    truncated:
        True when the simulation stopped early (event or blow-up guard).
    """

    def __init__(
        self,
        times: np.ndarray,
        states: np.ndarray,
        inputs: np.ndarray | None = None,
        truncated: bool = False,
    ):
        self.times = np.asarray(times, dtype=float)
        self.states = np.atleast_2d(np.asarray(states, dtype=float))
        self.inputs = None if inputs is None else np.atleast_2d(np.asarray(inputs, dtype=float))
        self.truncated = truncated
        if self.times.ndim != 1:
            raise SimulationError("times must be 1-D")
        if self.states.shape[0] != self.times.shape[0]:
            raise SimulationError(
                f"{self.states.shape[0]} states for {self.times.shape[0]} times"
            )
        if self.inputs is not None and self.inputs.shape[0] != self.times.shape[0]:
            raise SimulationError(
                f"{self.inputs.shape[0]} inputs for {self.times.shape[0]} times"
            )
        if self.times.shape[0] >= 2 and not np.all(np.diff(self.times) > 0):
            raise SimulationError("times must be strictly increasing")

    @classmethod
    def _on_grid(cls, times: np.ndarray, states: np.ndarray, truncated: bool) -> "Trace":
        """A trace on a prefix of a validated time grid, without re-checking it.

        ``times`` is a float prefix of a strictly increasing grid and
        ``states`` a ``(len(times), n)`` float array, as the batch
        integrator builds them; the result equals ``Trace(times, states,
        None, truncated)``.
        """
        trace = cls.__new__(cls)
        trace.times = times
        trace.states = states
        trace.inputs = None
        trace.truncated = truncated
        return trace

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.times.shape[0]

    @property
    def dimension(self) -> int:
        """State dimension."""
        return self.states.shape[1]

    @property
    def initial_state(self) -> np.ndarray:
        """First state sample."""
        return self.states[0]

    @property
    def final_state(self) -> np.ndarray:
        """Last state sample."""
        return self.states[-1]

    @property
    def duration(self) -> float:
        """Elapsed simulated time."""
        return float(self.times[-1] - self.times[0])

    def state_at(self, t: float) -> np.ndarray:
        """Linear interpolation of the state at time ``t`` (clamped)."""
        t = float(np.clip(t, self.times[0], self.times[-1]))
        return np.array(
            [np.interp(t, self.times, self.states[:, j]) for j in range(self.dimension)]
        )

    def consecutive_pairs(self) -> Iterator[tuple[np.ndarray, np.ndarray, float]]:
        """Yield ``(x_k, x_{k+1}, dt_k)`` along the trace."""
        for k in range(len(self) - 1):
            yield self.states[k], self.states[k + 1], float(
                self.times[k + 1] - self.times[k]
            )

    def subsample(self, stride: int) -> "Trace":
        """Every ``stride``-th sample (always keeps the final sample)."""
        if stride < 1:
            raise SimulationError("stride must be >= 1")
        idx = list(range(0, len(self), stride))
        if idx[-1] != len(self) - 1:
            idx.append(len(self) - 1)
        return Trace(
            self.times[idx],
            self.states[idx],
            None if self.inputs is None else self.inputs[idx],
            self.truncated,
        )

    def max_norm(self) -> float:
        """Largest euclidean state norm along the trace."""
        return float(np.linalg.norm(self.states, axis=1).max())

    def __repr__(self) -> str:
        flag = ", truncated" if self.truncated else ""
        return (
            f"<Trace {len(self)} samples, dim {self.dimension}, "
            f"t=[{self.times[0]:g}, {self.times[-1]:g}]{flag}>"
        )

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    @staticmethod
    def concatenate_states(traces: Sequence["Trace"]) -> np.ndarray:
        """All states of all traces stacked into one ``(N, n)`` array."""
        if not traces:
            raise SimulationError("no traces to concatenate")
        return np.vstack([trace.states for trace in traces])
