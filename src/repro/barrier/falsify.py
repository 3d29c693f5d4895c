"""Simulation-based falsification — the baseline the paper argues past.

Testing approaches (e.g. the compositional falsification of Dreossi et
al. [3] discussed in the paper's introduction) search for an initial
state whose trajectory reaches the unsafe set.  They can *refute* safety
with a concrete counterexample but can never *prove* it — exactly the
gap the barrier-certificate method closes.

This module implements two falsifiers over the closed-loop system:

* :func:`falsify_random` — Monte Carlo over the initial set;
* :func:`falsify_cmaes` — CMA-ES minimizing the trajectory's robustness
  (signed distance to the unsafe set), the standard S-TaLiRo-style
  optimization-guided falsification.

Benchmarks pair them against the verifier: on safe systems falsifiers
exhaust their budget (no proof), on unsafe systems they find concrete
counterexample trajectories quickly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..dynamics import ContinuousSystem
from ..errors import ReproError
from .sets import Rectangle, RectangleComplement

__all__ = [
    "FalsificationResult",
    "trajectory_robustness",
    "falsify_random",
    "falsify_cmaes",
]


@dataclass
class FalsificationResult:
    """Outcome of a falsification campaign.

    ``falsified`` means a concrete unsafe trajectory was found; its
    initial state and the minimum robustness are reported.  ``not
    falsified`` is *not* a safety proof — only a barrier certificate is.
    """

    falsified: bool
    simulations: int
    best_initial_state: np.ndarray
    min_robustness: float

    def __str__(self) -> str:
        verdict = "FALSIFIED" if self.falsified else "not falsified"
        return (
            f"{verdict} after {self.simulations} simulations "
            f"(min robustness {self.min_robustness:.4g})"
        )


def trajectory_robustness(
    system: ContinuousSystem,
    initial_state: Sequence[float],
    safe_set: Rectangle,
    duration: float,
    dt: float,
) -> float:
    """Signed distance of a trajectory to the unsafe set.

    Positive: the trajectory stayed inside the safe rectangle, by that
    inf-norm margin.  Negative: it escaped, by that margin.  This is the
    standard space-robustness of the invariant ``always(x in safe)``.
    """
    simulator = system.simulator()
    trace = simulator.simulate(np.asarray(initial_state, float), duration, dt)
    states = trace.states
    lower_margin = states - safe_set.lower  # positive inside
    upper_margin = safe_set.upper - states
    per_sample = np.minimum(lower_margin, upper_margin).min(axis=1)
    return float(per_sample.min())


def falsify_random(
    system: ContinuousSystem,
    initial_set: Rectangle,
    unsafe_set: RectangleComplement,
    budget: int = 200,
    duration: float = 20.0,
    dt: float = 0.05,
    seed: int = 0,
) -> FalsificationResult:
    """Monte Carlo falsification: sample X0, simulate, check escape."""
    if budget < 1:
        raise ReproError("budget must be >= 1")
    rng = np.random.default_rng(seed)
    safe = unsafe_set.safe_rectangle
    best_rob = np.inf
    best_x0 = initial_set.center()
    for i in range(budget):
        x0 = rng.uniform(initial_set.lower, initial_set.upper)
        rob = trajectory_robustness(system, x0, safe, duration, dt)
        if rob < best_rob:
            best_rob = rob
            best_x0 = x0
        if rob < 0.0:
            return FalsificationResult(True, i + 1, x0, rob)
    return FalsificationResult(False, budget, best_x0, best_rob)


def falsify_cmaes(
    system: ContinuousSystem,
    initial_set: Rectangle,
    unsafe_set: RectangleComplement,
    budget: int = 300,
    duration: float = 20.0,
    dt: float = 0.05,
    seed: int = 0,
    population_size: int = 10,
) -> FalsificationResult:
    """Optimization-guided falsification: minimize robustness with CMA-ES.

    Candidates are clipped into the initial set, so the search never
    reports an escape from an inadmissible start.
    """
    # Imported here: repro.learning imports repro.barrier (for the
    # safety-aware trainer), so a module-level import would be circular.
    from ..learning.cmaes import CmaEs, CmaEsConfig

    if budget < population_size:
        raise ReproError("budget must cover at least one CMA-ES population")
    safe = unsafe_set.safe_rectangle
    center = initial_set.center()
    half_width = 0.5 * (initial_set.upper - initial_set.lower)

    evaluations = 0
    best_rob = np.inf
    best_x0 = center.copy()

    def objective(z: np.ndarray) -> float:
        nonlocal evaluations, best_rob, best_x0
        x0 = np.clip(center + z * half_width, initial_set.lower, initial_set.upper)
        rob = trajectory_robustness(system, x0, safe, duration, dt)
        evaluations += 1
        if rob < best_rob:
            best_rob = rob
            best_x0 = x0
        return rob

    es = CmaEs(
        np.zeros(initial_set.dimension),
        CmaEsConfig(
            population_size=population_size,
            max_iterations=max(1, budget // population_size),
            sigma0=0.5,
            seed=seed,
        ),
    )
    while not es.should_stop():
        candidates = es.ask()
        fitnesses = [objective(c) for c in candidates]
        es.tell(candidates, fitnesses)
        if best_rob < 0.0:
            break
    return FalsificationResult(bool(best_rob < 0.0), evaluations, best_x0, best_rob)
