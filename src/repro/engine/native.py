"""The ``native`` engine: the scalar simulation and SMT code paths.

Each backend is a thin adapter over the pre-engine implementation —
:class:`~repro.sim.Simulator` per-trace integration, the
margin-maximizing LP of :func:`repro.barrier.lp.fit_generator`, and the
serial :func:`repro.smt.check_exists_on_boxes` dispatch.  The LP backend
is shared by every builtin engine; it evaluates its Lie-derivative rows
through :meth:`~repro.dynamics.ContinuousSystem.f_vectorized`, so
engines differ only in how they simulate and how they decide δ-SAT.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..barrier.lp import GeneratorCandidate, LpConfig
from ..sim import Trace
from ..smt import IcpConfig, SmtResult, Subproblem, check_exists_on_boxes

__all__ = ["NativeSimBackend", "NativeLpBackend", "SerialSmtBackend"]


class NativeSimBackend:
    """Per-trace scalar integration through ``system.simulator()``."""

    name = "native-sim"

    def simulate(
        self,
        system,
        initial_states: np.ndarray,
        duration: float,
        dt: float,
        method: str = "rk4",
        stop_condition: Callable[[np.ndarray], bool] | None = None,
    ) -> list[Trace]:
        """Integrate each initial state into a :class:`Trace`, serially."""
        simulator = system.simulator(method=method)
        return simulator.simulate_batch(
            initial_states, duration, dt, stop_condition=stop_condition
        )


class NativeLpBackend:
    """The margin-maximizing LP of :func:`repro.barrier.lp.fit_generator`."""

    name = "native-lp"

    def fit(
        self,
        template,
        points: np.ndarray,
        system,
        config: LpConfig | None = None,
        separation: "tuple[np.ndarray, np.ndarray] | None" = None,
    ) -> GeneratorCandidate:
        """Fit a generator candidate to trace points via the margin LP."""
        from ..barrier.lp import fit_generator

        return fit_generator(template, points, system, config, separation=separation)


class SerialSmtBackend:
    """Serial subproblem dispatch via :func:`check_exists_on_boxes`."""

    name = "serial-smt"

    def check(
        self,
        subproblems: Sequence[Subproblem],
        names: Sequence[str],
        config: IcpConfig | None = None,
    ) -> SmtResult:
        """Solve the subproblems one box at a time with the scalar ICP."""
        return check_exists_on_boxes(subproblems, names, config)
