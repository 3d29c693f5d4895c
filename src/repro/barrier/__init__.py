"""Barrier-certificate synthesis and verification — the paper's core.

Typical usage::

    from repro.barrier import (
        Rectangle, RectangleComplement, VerificationProblem,
        SynthesisConfig, verify_system,
    )
    from repro.dynamics import error_dynamics_system
    from repro.learning import proportional_controller_network

    network = proportional_controller_network(10)
    system = error_dynamics_system(network)
    problem = VerificationProblem(
        system,
        initial_set=Rectangle([-1.0, -math.pi / 16], [1.0, math.pi / 16]),
        unsafe_set=RectangleComplement(
            Rectangle([-5.0, -(math.pi / 2 - 0.1)], [5.0, math.pi / 2 - 0.1])
        ),
    )
    report = verify_system(problem)
    assert report.verified
"""

from .certificate import (
    BarrierCertificate,
    CertificateCheck,
    VerificationProblem,
    condition5_subproblems,
    condition6_subproblems,
    condition7_subproblems,
    lie_derivative_expr,
)
from .falsify import (
    FalsificationResult,
    falsify_cmaes,
    falsify_random,
    trajectory_robustness,
)
from .levelset import (
    ellipsoid_bounding_rectangle,
    level_bounds,
    min_on_hyperplane,
    quadratic_forms,
)
from .lp import GeneratorCandidate, LpConfig, fit_generator, points_from_traces
from .lyapunov import linearize, lyapunov_candidate, symbolic_jacobian
from .sets import Halfspace, Rectangle, RectangleComplement, box_difference
from .synthesis import (
    PIPELINE_STAGES,
    StageEvent,
    StageObserver,
    SynthesisConfig,
    SynthesisReport,
    SynthesisStatus,
    verify_system,
)
from .templates import GeneratorTemplate, PolynomialTemplate, QuadraticTemplate

__all__ = [
    "BarrierCertificate",
    "CertificateCheck",
    "FalsificationResult",
    "GeneratorCandidate",
    "GeneratorTemplate",
    "Halfspace",
    "LpConfig",
    "PIPELINE_STAGES",
    "PolynomialTemplate",
    "QuadraticTemplate",
    "Rectangle",
    "RectangleComplement",
    "StageEvent",
    "StageObserver",
    "SynthesisConfig",
    "SynthesisReport",
    "SynthesisStatus",
    "VerificationProblem",
    "box_difference",
    "condition5_subproblems",
    "condition6_subproblems",
    "condition7_subproblems",
    "ellipsoid_bounding_rectangle",
    "falsify_cmaes",
    "falsify_random",
    "fit_generator",
    "level_bounds",
    "lie_derivative_expr",
    "linearize",
    "lyapunov_candidate",
    "min_on_hyperplane",
    "points_from_traces",
    "quadratic_forms",
    "symbolic_jacobian",
    "trajectory_robustness",
    "verify_system",
]
