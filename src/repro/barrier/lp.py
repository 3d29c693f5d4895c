"""LP-based fitting of candidate generator functions (Figure 1's "Solve LP").

From a cloud of simulation states the LP finds template coefficients
``c`` making ``W(x) = sum c_j phi_j(x)``:

* positive at every sampled state:      ``W(x_i) >= t * |x_i|^2``
* decreasing along the vector field:    ``∇W(x_k)·f(x_k) <= -t * |x_k|^2``

with coefficients normalized to ``|c_j| <= 1`` (the scale of ``W`` is
irrelevant) and the shared margin ``t >= 0`` **maximized**.  A positive
optimal margin yields a strictly decreasing candidate; a zero margin
means the sampled evidence already rules the template out, reported as
:class:`~repro.errors.InfeasibleLPError`.

The margin is scaled by ``|x|^2`` so the constraints remain satisfiable
arbitrarily close to the equilibrium (where both ``W`` and its decay
vanish quadratically) — the standard trick from the simulation-guided
Lyapunov literature the paper builds on [11].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import linprog

from ..dynamics import ContinuousSystem
from ..errors import InfeasibleLPError, LinearProgramError
from ..expr import Expr, gradient
from ..sim import Trace
from .templates import GeneratorTemplate

__all__ = [
    "LpConfig",
    "GeneratorCandidate",
    "fit_generator",
    "points_from_traces",
]


@dataclass
class LpConfig:
    """LP assembly knobs."""

    #: coefficient box bound (normalization)
    coefficient_bound: float = 1.0
    #: cap on the number of sample points (subsampled evenly if exceeded)
    max_points: int = 4000
    #: minimum acceptable optimal margin; below this the fit is rejected
    min_margin: float = 1e-9
    #: also require W positive at the sample points
    enforce_positivity: bool = True
    #: drop sample points closer to the origin than this: converged trace
    #: tails carry no constraint information and their rows degrade the
    #: LP's conditioning
    origin_exclusion: float = 1e-6
    #: points sampled per unsafe-facet edge for the separation constraints
    separation_samples: int = 32


class GeneratorCandidate:
    """A fitted generator function ``W`` with its diagnostic data."""

    def __init__(
        self,
        template: GeneratorTemplate,
        coefficients: np.ndarray,
        margin: float,
        state_names: Sequence[str],
    ):
        self.template = template
        self.coefficients = np.asarray(coefficients, dtype=float)
        self.margin = float(margin)
        self.state_names = list(state_names)
        self._expression: Expr | None = None
        self._gradient: list[Expr] | None = None

    @property
    def expression(self) -> Expr:
        """``W`` as a symbolic expression (built lazily)."""
        if self._expression is None:
            self._expression = self.template.build_expression(
                self.coefficients, self.state_names
            )
        return self._expression

    @property
    def gradient_exprs(self) -> list[Expr]:
        """``∇W`` as symbolic expressions (built lazily)."""
        if self._gradient is None:
            self._gradient = gradient(self.expression, self.state_names)
        return self._gradient

    def w_values(self, points: np.ndarray) -> np.ndarray:
        """Numeric ``W(x_i)``."""
        return self.template.evaluate(self.coefficients, points)

    def lie_derivative_values(
        self, points: np.ndarray, system: ContinuousSystem
    ) -> np.ndarray:
        """Numeric ``∇W(x_i)·f(x_i)``."""
        grads = self.template.gradient(self.coefficients, points)
        flows = system.f_vectorized(points)
        return np.sum(grads * flows, axis=1)

    def __repr__(self) -> str:
        return (
            f"<GeneratorCandidate margin={self.margin:.3g} "
            f"coeffs={np.array2string(self.coefficients, precision=4)}>"
        )


def _separation_block(
    template: GeneratorTemplate, inner: np.ndarray, boundary: np.ndarray
) -> np.ndarray:
    """Rows over ``z = [c, t, a, b]`` encoding ``W(v) + t <= W(s)`` for all pairs.

    With free auxiliaries ``a`` and ``b`` the pairwise constraints become
    ``W(v) <= a`` per inner point, ``b <= W(s)`` per boundary point and
    ``a + t <= b``: ``v + s + 1`` rows instead of ``v * s``, with exactly
    the same feasible ``(c, t)`` set.  Each row is divided by
    ``max(|row|, 1)``.
    """
    k = template.basis_size
    phi_inner = template.features(np.atleast_2d(np.asarray(inner, dtype=float)))
    phi_boundary = template.features(np.atleast_2d(np.asarray(boundary, dtype=float)))
    v, s = len(phi_inner), len(phi_boundary)
    block = np.zeros((v + s + 1, k + 3))
    block[:v, :k] = phi_inner
    block[:v, k + 1] = -1.0
    block[v:-1, :k] = -phi_boundary
    block[v:-1, k + 2] = 1.0
    block[-1, k:] = (1.0, 1.0, -1.0)
    return block / np.maximum(np.abs(block).max(axis=1, keepdims=True), 1.0)


def points_from_traces(
    traces: Sequence[Trace],
    extra_points: np.ndarray | None = None,
) -> np.ndarray:
    """Stack all trace states (plus optional extra points) into ``(N, n)``."""
    blocks = [trace.states for trace in traces if len(trace) > 0]
    if extra_points is not None and len(extra_points) > 0:
        blocks.append(np.atleast_2d(np.asarray(extra_points, dtype=float)))
    if not blocks:
        raise LinearProgramError("no sample points available for the LP")
    return np.vstack(blocks)


def fit_generator(
    template: GeneratorTemplate,
    points: np.ndarray,
    system: ContinuousSystem,
    config: LpConfig | None = None,
    separation: "tuple[np.ndarray, np.ndarray] | None" = None,
) -> GeneratorCandidate:
    """Solve the margin-maximizing LP for the template coefficients.

    ``separation``, when given, is a pair ``(inner_points,
    boundary_points)`` — typically the initial set's vertices and samples
    of the unsafe boundary.  It adds the linear constraints
    ``W(v) + t <= W(s)`` for every pair, steering the LP toward
    candidates whose sublevel sets can actually separate ``X0`` from
    ``U`` (pure decrease-margin maximization can produce skewed
    candidates with no feasible level; soundness is unaffected since the
    SMT checks still gate the final certificate).  Two free auxiliary
    variables carry these constraints in ``v + s + 1`` rows (see
    :func:`_separation_block`), so the LP grows with the number of
    points, never with their pairwise product.

    Raises
    ------
    InfeasibleLPError
        When the LP is infeasible or its optimal margin is not positive,
        i.e. no candidate in this template fits the sampled evidence.
    """
    config = config or LpConfig()
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[1] != template.dimension:
        raise LinearProgramError(
            f"points are {points.shape[1]}-D but template is {template.dimension}-D"
        )

    # Deduplicate and thin the point cloud.
    points = np.unique(np.round(points, decimals=12), axis=0)
    norms_sq = np.sum(points**2, axis=1)
    points = points[norms_sq > config.origin_exclusion**2]
    if len(points) == 0:
        raise LinearProgramError("all sample points collapse onto the origin")
    if len(points) > config.max_points:
        stride = int(np.ceil(len(points) / config.max_points))
        points = points[::stride]
    norms_sq = np.sum(points**2, axis=1)

    k = template.basis_size
    phi = template.features(points)  # (m, k)
    grad_phi = template.gradient_features(points)  # (m, n, k)
    flows = system.f_vectorized(points)  # (m, n)
    lie_rows = np.einsum("md,mdk->mk", flows, grad_phi)  # (m, k)

    # Decision vector z = [c_1..c_k, t] (+ [a, b] with separation);
    # maximize t  <=>  minimize -t.
    # Every point row is normalized by |x|^2 so its coefficients are O(1)
    # regardless of how close the sample sits to the equilibrium —
    # un-normalized rows from converged trace tails (|x| ~ 1e-9) are
    # numerically invisible to the LP solver and silently corrupt it.
    # Decrease: (lie_rows / |x|^2) @ c + t <= 0.
    # Positivity: -(phi / |x|^2) @ c + t <= 0.
    blocks = [lie_rows, -phi] if config.enforce_positivity else [lie_rows]
    bound = config.coefficient_bound
    bounds = [(-bound, bound)] * k + [(0.0, None)]
    if separation is not None:
        bounds += [(None, None)] * 2
    a_ub = np.zeros((len(blocks) * len(points), len(bounds)))
    a_ub[:, :k] = np.vstack(blocks) / np.tile(norms_sq, len(blocks))[:, None]
    a_ub[:, k] = 1.0
    if separation is not None:
        a_ub = np.vstack([a_ub, _separation_block(template, *separation)])
    b_ub = np.zeros(len(a_ub))
    cost = np.zeros(len(bounds))
    cost[k] = -1.0

    outcome = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if not outcome.success:
        raise InfeasibleLPError(
            f"generator LP failed: {outcome.message} "
            f"({len(points)} points, basis {k})"
        )
    coefficients = outcome.x[:k]
    margin = float(outcome.x[k])
    if margin < config.min_margin:
        raise InfeasibleLPError(
            f"generator LP margin {margin:.3e} below minimum "
            f"{config.min_margin:.3e}: sampled evidence rules out this template"
        )
    return GeneratorCandidate(template, coefficients, margin, system.state_names)
