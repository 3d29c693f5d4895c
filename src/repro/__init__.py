"""repro — simulation-guided barrier certificates for NN-controlled CPS.

A from-scratch reproduction of *"Reasoning about Safety of
Learning-Enabled Components in Autonomous Cyber-physical Systems"*
(Tuncali, Kapinski, Ito, Deshmukh — DAC 2018): train a neural-network
path-following controller with CMA-ES, then *prove* unbounded-time
safety of the closed loop by synthesizing a barrier certificate from
simulations (LP) and verifying it with a δ-SAT interval solver.

The public entry point is :mod:`repro.api`::

    from repro import api

    artifact = api.run("dubins")          # any registered scenario
    assert artifact.verified
    print(artifact.to_json(indent=2))     # JSON-round-trippable record

Subpackages
-----------
``repro.api``        public surface: :class:`~repro.api.Scenario`
                     registry, the named-stage
                     :class:`~repro.api.VerificationPipeline`, and the
                     :func:`~repro.api.run` / :func:`~repro.api.run_batch`
                     (process-parallel) runners
``repro.engine``     pluggable solver stacks: :class:`~repro.engine.Engine`
                     registry bundling sim/LP/SMT backends (``native``,
                     ``batched-icp``)
``repro.expr``       symbolic expressions (eval / intervals / autodiff / tapes)
``repro.intervals``  sound interval arithmetic
``repro.smt``        branch-and-prune δ-SAT solver (the dReal stand-in)
``repro.nn``         feedforward networks with dual numeric/symbolic semantics
``repro.sim``        ODE integrators, traces, samplers
``repro.dynamics``   plants, paths, Dubins car, closed-loop composition
``repro.learning``   CMA-ES and direct policy search
``repro.barrier``    the paper's synthesis + verification procedure
``repro.experiments`` drivers regenerating every table and figure
"""

from . import (
    api,
    barrier,
    dynamics,
    engine,
    expr,
    intervals,
    learning,
    nn,
    reach,
    sim,
    smt,
)
from .api import (
    RunArtifact,
    Scenario,
    VerificationPipeline,
    get_scenario,
    list_scenarios,
    register_scenario,
    run,
    run_batch,
)
from .engine import Engine, get_engine, list_engines, register_engine
from .barrier import (
    BarrierCertificate,
    Rectangle,
    RectangleComplement,
    SynthesisConfig,
    SynthesisReport,
    SynthesisStatus,
    VerificationProblem,
    verify_system,
)
from .dynamics import error_dynamics_system
from .errors import ReproError
from .learning import proportional_controller_network, train_paper_controller
from .nn import FeedforwardNetwork, controller_network

__version__ = "1.2.0"

__all__ = [
    "BarrierCertificate",
    "Engine",
    "FeedforwardNetwork",
    "Rectangle",
    "RectangleComplement",
    "ReproError",
    "RunArtifact",
    "Scenario",
    "SynthesisConfig",
    "SynthesisReport",
    "SynthesisStatus",
    "VerificationPipeline",
    "VerificationProblem",
    "__version__",
    "api",
    "barrier",
    "controller_network",
    "dynamics",
    "engine",
    "error_dynamics_system",
    "expr",
    "get_engine",
    "get_scenario",
    "intervals",
    "list_engines",
    "learning",
    "list_scenarios",
    "nn",
    "proportional_controller_network",
    "reach",
    "register_engine",
    "register_scenario",
    "run",
    "run_batch",
    "sim",
    "smt",
    "train_paper_controller",
    "verify_system",
]
