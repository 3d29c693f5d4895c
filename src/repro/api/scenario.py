"""Scenarios: named, self-contained verification workloads.

A :class:`Scenario` bundles everything the Figure-1 procedure needs —
a factory for the closed-loop system (plant + controller), the initial /
unsafe / domain sets, and a :class:`~repro.barrier.SynthesisConfig` —
into one frozen, reusable object.  A string-keyed registry makes every
scenario addressable from the CLI (``python -m repro scenarios``) and
from :func:`repro.api.run`; adding a new workload is one
:func:`register_scenario` call.

The registry ships pre-populated with the paper's Dubins error-dynamics
case study and the benchmark plants of :mod:`repro.dynamics.library`
(linear ground truth, double integrator under linear state feedback,
torque-limited inverted pendulum, reversed Van der Pol,
kinematic-bicycle lane keeping, and the 4-D cart-pole stress workload).

This module is also the canonical home of the Section 4.3 constants
(``EPSILON``, ``GAMMA``, ``SPEED``) and the case-study builders that
:mod:`repro.experiments.setup` re-exports for backward compatibility.

System factories are module-level callables (or ``functools.partial``
over them) so scenarios pickle cleanly into the worker processes of
:func:`repro.api.run_batch`.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..barrier import (
    LpConfig,
    Rectangle,
    RectangleComplement,
    SynthesisConfig,
    VerificationProblem,
)
from ..dynamics import (
    ContinuousSystem,
    cartpole_plant,
    compose,
    error_dynamics_system,
    inverted_pendulum_plant,
    kinematic_bicycle_plant,
    linear_plant,
    stable_linear_system,
    van_der_pol_system,
)
from ..errors import ReproError
from ..learning import proportional_controller_network, train_paper_controller
from ..nn import FeedforwardNetwork, Layer
from ..smt import IcpConfig

__all__ = [
    "EPSILON",
    "GAMMA",
    "SPEED",
    "Scenario",
    "case_study_controller",
    "dubins_scenario",
    "get_scenario",
    "list_scenarios",
    "paper_initial_set",
    "paper_problem",
    "paper_unsafe_set",
    "register_scenario",
    "scenario_names",
    "synthesis_config_from_dict",
    "synthesis_config_to_dict",
    "unregister_scenario",
]

#: the paper's unsafe-set shrink parameter (U excludes a strip below pi/2)
EPSILON = 0.1
#: Lie-derivative slack of Eq. (5)
GAMMA = 1.0e-6
#: constant vehicle speed V
SPEED = 1.0


def paper_initial_set() -> Rectangle:
    """``X0 = [-1, 1] x [-pi/16, pi/16]``."""
    return Rectangle([-1.0, -math.pi / 16.0], [1.0, math.pi / 16.0])


def paper_unsafe_set(epsilon: float = EPSILON) -> RectangleComplement:
    """``U`` = outside ``[-5, 5] x [-(pi/2 - eps), pi/2 - eps]``."""
    bound = math.pi / 2.0 - epsilon
    return RectangleComplement(Rectangle([-5.0, -bound], [5.0, bound]))


def paper_problem(
    network: FeedforwardNetwork,
    speed: float = SPEED,
    epsilon: float = EPSILON,
) -> VerificationProblem:
    """The full verification problem for a given controller network."""
    system = error_dynamics_system(network, speed=speed)
    return VerificationProblem(
        system,
        initial_set=paper_initial_set(),
        unsafe_set=paper_unsafe_set(epsilon),
    )


def case_study_controller(
    hidden_neurons: int,
    trained: bool = False,
    seed: int = 0,
    train_iterations: int = 25,
    train_population: int = 16,
) -> FeedforwardNetwork:
    """A controller of the requested width.

    ``trained=False`` (default) returns the deterministic hand-built
    saturating-proportional network.  It repeats one neuron per input,
    and value-numbered expression tapes evaluate a repeated neuron once,
    so its verification cost barely depends on width; Table 1
    (:func:`repro.experiments.run_table1`) sweeps width with a variant
    whose neurons are pairwise distinct.  ``trained=True`` runs the
    paper's CMA-ES policy search first (slow for large widths).
    """
    if not trained:
        return proportional_controller_network(hidden_neurons)
    return _trained_controller(
        hidden_neurons, seed, train_iterations, train_population
    )


@functools.lru_cache(maxsize=None)
def _trained_controller(
    hidden_neurons: int,
    seed: int,
    train_iterations: int,
    train_population: int,
) -> FeedforwardNetwork:
    """CMA-ES training is deterministic in its arguments and expensive;
    cache so repeated scenario instantiations (e.g. one per synthesis
    seed in Table 1) train once per process."""
    result = train_paper_controller(
        hidden_neurons=hidden_neurons,
        seed=seed,
        population_size=train_population,
        max_iterations=train_iterations,
    )
    return result.network


# ----------------------------------------------------------------------
# Scenario + registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Scenario:
    """One named verification workload.

    ``system_factory`` builds the closed-loop
    :class:`~repro.dynamics.ContinuousSystem` on demand (plant composed
    with its controller); the sets and config are plain data.  Instances
    are frozen so registered scenarios are safe to share across runs and
    worker processes.
    """

    name: str
    description: str
    system_factory: Callable[[], ContinuousSystem]
    initial_set: Rectangle
    unsafe_set: RectangleComplement
    domain: Rectangle | None = None
    config: SynthesisConfig = field(default_factory=SynthesisConfig)
    #: free-form grouping labels ("paper", "library", ...)
    tags: tuple[str, ...] = ()
    #: name of the :class:`~repro.api.family.ScenarioFamily` this
    #: scenario was instantiated from (None for hand-built scenarios)
    family: str | None = None
    #: the instantiation parameters, as a name-sorted tuple of
    #: ``(name, value)`` pairs — hashable, picklable, and the identity
    #: half of the :mod:`repro.store` cache key for family runs
    family_params: tuple[tuple[str, float | int | str], ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ReproError("scenarios need a non-empty name")
        if not callable(self.system_factory):
            raise ReproError("system_factory must be callable")

    @property
    def dimension(self) -> int:
        """State dimension (from the initial set; no system build)."""
        return self.initial_set.dimension

    def problem(self) -> VerificationProblem:
        """Instantiate the system and assemble the verification problem."""
        return VerificationProblem(
            self.system_factory(),
            initial_set=self.initial_set,
            unsafe_set=self.unsafe_set,
            domain=self.domain,
        )

    def with_config(self, config: SynthesisConfig) -> "Scenario":
        """A copy of this scenario running under a different config."""
        return dataclasses.replace(self, config=config)


_REGISTRY: dict[str, Scenario] = {}


def register_scenario(scenario: Scenario, replace: bool = False) -> Scenario:
    """Add a scenario to the global registry and return it.

    Re-registering an existing name raises unless ``replace=True``.
    """
    if not replace and scenario.name in _REGISTRY:
        raise ReproError(
            f"scenario {scenario.name!r} is already registered "
            "(pass replace=True to overwrite)"
        )
    _REGISTRY[scenario.name] = scenario
    return scenario


def unregister_scenario(name: str) -> None:
    """Remove a scenario from the registry (missing names are ignored)."""
    _REGISTRY.pop(name, None)


def get_scenario(name: str) -> Scenario:
    """Look up a registered scenario by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "<none>"
        raise ReproError(
            f"unknown scenario {name!r}; registered scenarios: {known}"
        ) from None


def scenario_names() -> tuple[str, ...]:
    """Registered scenario names, sorted."""
    return tuple(sorted(_REGISTRY))


def list_scenarios() -> tuple[Scenario, ...]:
    """All registered scenarios, sorted by name."""
    return tuple(_REGISTRY[name] for name in sorted(_REGISTRY))


# ----------------------------------------------------------------------
# SynthesisConfig <-> plain-dict (JSON) conversion
# ----------------------------------------------------------------------
def synthesis_config_to_dict(config: SynthesisConfig) -> dict:
    """Flatten a config (incl. nested LP/ICP knobs) to JSON-safe data."""
    return dataclasses.asdict(config)


#: ICP knobs that no longer exist: the batched solver stopped contracting
#: and the scalar one contracts at fixed settings; ``solver_timeout``
#: budgeted the external solvers of the retired ``portfolio`` engine.
#: Artifacts, scenario files and service journals written before that
#: still carry them.
_RETIRED_ICP_KEYS = (
    "use_contractor",
    "contractor_node_limit",
    "contractor_rounds",
    "solver_timeout",
)

#: Top-level config keys that no longer exist: the engine is named only
#: by the ``engine=`` argument of :func:`repro.api.run` (and its CLI and
#: service counterparts), so a config's own ``engine`` is ignored.
_RETIRED_CONFIG_KEYS = ("engine",)


def synthesis_config_from_dict(data: dict) -> SynthesisConfig:
    """Inverse of :func:`synthesis_config_to_dict`.

    Retired top-level and ICP keys in older dicts are dropped, so those
    still load.
    """
    payload = {k: v for k, v in data.items() if k not in _RETIRED_CONFIG_KEYS}
    lp = payload.pop("lp", None)
    icp = payload.pop("icp", None)
    if lp is not None:
        payload["lp"] = LpConfig(**lp)
    if icp is not None:
        icp = {k: v for k, v in icp.items() if k not in _RETIRED_ICP_KEYS}
        payload["icp"] = IcpConfig(**icp)
    return SynthesisConfig(**payload)


# ----------------------------------------------------------------------
# Built-in scenario factories (module-level: picklable for run_batch)
# ----------------------------------------------------------------------
def _dubins_system(
    hidden_neurons: int = 10,
    trained: bool = False,
    seed: int = 0,
    speed: float = SPEED,
) -> ContinuousSystem:
    """The paper's closed-loop Dubins error dynamics (Section 4.1.4)."""
    network = case_study_controller(hidden_neurons, trained=trained, seed=seed)
    return error_dynamics_system(network, speed=speed)


def _linear_ground_truth_system() -> ContinuousSystem:
    """Autonomous stable linear system with an analytic Lyapunov barrier."""
    return stable_linear_system(np.array([[-0.5, 1.0], [-1.0, -0.5]]))


def _double_integrator_system() -> ContinuousSystem:
    """Double integrator closed with a linear state-feedback network.

    ``u = -x0 - 1.6 x1`` gives closed-loop poles at ``-0.8 ± 0.6j`` —
    exercises :func:`repro.dynamics.linear_plant` + :func:`compose` with
    a purely linear (no hidden layer) network.
    """
    plant = linear_plant(
        np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0], [1.0]])
    )
    network = FeedforwardNetwork(
        [Layer(np.array([[-1.0, -1.6]]), np.zeros(1), "linear")]
    )
    return compose(plant, network, name="double-integrator+lqr-nn")


def _pendulum_system() -> ContinuousSystem:
    """Inverted pendulum stabilized by a saturating tansig PD network."""
    plant = inverted_pendulum_plant(mass=0.5, length=0.5, damping=0.1)
    kp, kd, squash = 12.0, 4.0, 0.5
    network = FeedforwardNetwork(
        [
            Layer(np.array([[squash, 0.0], [0.0, squash]]), np.zeros(2), "tansig"),
            Layer(np.array([[-kp / squash, -kd / squash]]), np.zeros(1), "linear"),
        ]
    )
    return compose(plant, network, name="pendulum+pd-nn")


def _van_der_pol_reversed_system() -> ContinuousSystem:
    """Reversed Van der Pol oscillator (autonomous benchmark)."""
    return van_der_pol_system(mu=1.0, reversed_time=True)


def _bicycle_system(
    speed: float = 1.0, wheelbase: float = 1.0, max_steer: float = 0.4
) -> ContinuousSystem:
    """Kinematic-bicycle lane keeping under a saturating tansig NN.

    The steering law ``delta = -d_max * tanh((k1 ey + k2 epsi) / d_max)``
    is the same saturating-proportional construction as the paper's
    hand-built Dubins controller; gains ``k1 = 0.5``, ``k2 = 1.2`` place
    the linearized poles of (ey, epsi) at stable ``-0.6 ± 0.37j``.
    """
    k1, k2 = 0.5, 1.2
    plant = kinematic_bicycle_plant(speed=speed, wheelbase=wheelbase)
    network = FeedforwardNetwork(
        [
            Layer(
                np.array([[k1 / max_steer, k2 / max_steer]]),
                np.zeros(1),
                "tansig",
            ),
            Layer(np.array([[-max_steer]]), np.zeros(1), "linear"),
        ]
    )
    return compose(plant, network, name="bicycle+lane-keep-nn")


def _cartpole_system(max_accel: float = 10.0) -> ContinuousSystem:
    """Cart-pole balanced by a saturating LQR-gain tansig network.

    The acceleration-input benchmark form of
    :func:`~repro.dynamics.cartpole_plant`; gains come from the
    continuous-time LQR of the upright linearization
    (``Q = diag(1, 1, 5, 1)``, ``R = 1``), and the tansig squash caps
    the commanded acceleration at ``max_accel`` the same way the paper's
    controller caps the steering rate.
    """
    gains = np.array([[1.0, 2.2, 28.62, 6.52]])
    plant = cartpole_plant(control="acceleration")
    network = FeedforwardNetwork(
        [
            Layer(gains / max_accel, np.zeros(1), "tansig"),
            Layer(np.array([[max_accel]]), np.zeros(1), "linear"),
        ]
    )
    return compose(plant, network, name="cartpole+lqr-nn")


def dubins_scenario(
    hidden_neurons: int = 10,
    trained: bool = False,
    seed: int = 0,
    config: SynthesisConfig | None = None,
    name: str | None = None,
    network: FeedforwardNetwork | None = None,
) -> Scenario:
    """The paper's case study for an arbitrary controller.

    The width-10 hand-built controller is pre-registered as ``dubins``;
    this factory parameterizes the same workload for Table-1 sweeps.
    Passing ``network`` verifies that exact controller (e.g. one loaded
    from JSON) instead of building one.
    """
    if network is not None:
        factory = functools.partial(error_dynamics_system, network)
        label = name or "dubins-custom"
        description = "Dubins error dynamics under a user-supplied controller"
    else:
        factory = functools.partial(
            _dubins_system, hidden_neurons=hidden_neurons, trained=trained, seed=seed
        )
        label = name or f"dubins-nh{hidden_neurons}" + ("-trained" if trained else "")
        description = (
            f"Dubins error dynamics, width-{hidden_neurons} tansig controller "
            f"({'CMA-ES trained' if trained else 'hand-built'})"
        )
    return Scenario(
        name=label,
        description=description,
        system_factory=factory,
        initial_set=paper_initial_set(),
        unsafe_set=paper_unsafe_set(),
        config=config or SynthesisConfig(gamma=GAMMA),
        tags=("paper",),
    )


def _register_builtins() -> None:
    register_scenario(
        Scenario(
            name="dubins",
            description="Paper case study: Dubins path-following error "
            "dynamics under a width-10 tansig NN steering controller",
            system_factory=_dubins_system,
            initial_set=paper_initial_set(),
            unsafe_set=paper_unsafe_set(),
            config=SynthesisConfig(gamma=GAMMA),
            tags=("paper",),
        )
    )
    register_scenario(
        Scenario(
            name="linear",
            description="Stable linear system x' = Ax with an analytic "
            "Lyapunov barrier (the test suite's ground truth)",
            system_factory=_linear_ground_truth_system,
            initial_set=Rectangle([-0.4, -0.4], [0.4, 0.4]),
            unsafe_set=RectangleComplement(Rectangle([-2.0, -2.0], [2.0, 2.0])),
            tags=("library",),
        )
    )
    register_scenario(
        Scenario(
            name="double-integrator",
            description="Double integrator under linear NN state feedback "
            "u = -x0 - 1.6 x1 (library linear_plant + compose)",
            system_factory=_double_integrator_system,
            initial_set=Rectangle([-0.2, -0.2], [0.2, 0.2]),
            unsafe_set=RectangleComplement(Rectangle([-1.5, -1.5], [1.5, 1.5])),
            tags=("library",),
        )
    )
    register_scenario(
        Scenario(
            name="pendulum",
            description="Torque-limited inverted pendulum stabilized by a "
            "saturating tansig PD network",
            system_factory=_pendulum_system,
            initial_set=Rectangle([-0.15, -0.15], [0.15, 0.15]),
            unsafe_set=RectangleComplement(Rectangle([-1.0, -3.0], [1.0, 3.0])),
            tags=("library",),
        )
    )
    register_scenario(
        Scenario(
            name="bicycle",
            description="Kinematic-bicycle lane keeping (the paper's "
            "autonomous-driving setting): lateral/heading error under a "
            "saturating tansig NN steering controller",
            system_factory=_bicycle_system,
            initial_set=Rectangle([-0.2, -0.15], [0.2, 0.15]),
            unsafe_set=RectangleComplement(
                Rectangle([-1.5, -0.8], [1.5, 0.8])
            ),
            tags=("paper", "library"),
        )
    )
    register_scenario(
        Scenario(
            name="cartpole",
            description="Cart-pole balanced about the upright by a "
            "saturating LQR-gain tansig network — a 4-dimensional "
            "stress workload: the box-cover of D \\ X0 grows too fast "
            "for full synthesis under honest budgets, so its config "
            "caps the solver (expect INCONCLUSIVE; engines must agree)",
            system_factory=_cartpole_system,
            initial_set=Rectangle(
                [-0.05, -0.05, -0.05, -0.05], [0.05, 0.05, 0.05, 0.05]
            ),
            unsafe_set=RectangleComplement(
                Rectangle([-1.0, -1.2, -0.3, -1.2], [1.0, 1.2, 0.3, 1.2])
            ),
            config=SynthesisConfig(
                icp=IcpConfig(delta=1e-2, max_boxes=50_000, time_limit=5.0),
                max_candidate_iterations=2,
                max_levelset_iterations=3,
            ),
            tags=("library", "stress"),
        )
    )
    register_scenario(
        Scenario(
            name="vanderpol",
            description="Reversed Van der Pol oscillator inside its "
            "quadratic-certificate regime",
            system_factory=_van_der_pol_reversed_system,
            initial_set=Rectangle([-0.15, -0.15], [0.15, 0.15]),
            unsafe_set=RectangleComplement(Rectangle([-0.9, -0.9], [0.9, 0.9])),
            tags=("library",),
        )
    )


_register_builtins()
