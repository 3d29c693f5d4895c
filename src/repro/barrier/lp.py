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
from scipy.optimize import OptimizeResult, linprog

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

#: rows in the first row-generation subset (an even stride over the system)
_SEED_ROWS = 128
#: most-violated rows added per row-generation round
_BATCH_ROWS = 128
#: a row counts as violated above this; HiGHS's primal feasibility tolerance
_FEASIBILITY_TOL = 1e-7


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


def _solve_by_row_generation(
    cost: np.ndarray, a_ub: np.ndarray, bounds: list, min_margin: float
) -> OptimizeResult:
    """Maximize the margin ``-cost @ z`` subject to ``a_ub @ z <= 0``.

    Cutting planes (Kelley, 1960): solve a strided subset of the rows
    plus the last one (the ``a + t <= b`` coupling row when separation
    rows are present), evaluate every row at the solution in one
    matrix-vector product, add the most-violated rows and re-solve,
    until no row is violated by more than HiGHS's feasibility tolerance.
    The optimal vertex is pinned down by at most ``k + 3`` rows, so a
    few rounds on a few hundred rows replace one solve over thousands.

    Each round solves a relaxation of the full LP, so a failed round or
    a margin below ``min_margin`` already decides the full LP and is
    returned as is.  Every round adds at least one row: the loop ends,
    at worst on the full system.
    """
    n_rows = len(a_ub)
    active = np.zeros(n_rows, dtype=bool)
    active[:: -(-n_rows // _SEED_ROWS)] = True
    active[-1] = True
    while True:
        rows = a_ub[active]
        outcome = linprog(
            cost, A_ub=rows, b_ub=np.zeros(len(rows)), bounds=bounds, method="highs"
        )
        if not outcome.success or -outcome.fun < min_margin:
            return outcome
        violation = a_ub @ outcome.x
        violation[active] = 0.0
        violated = np.flatnonzero(violation > _FEASIBILITY_TOL)
        if len(violated) == 0:
            return outcome
        worst = np.argsort(violation[violated])[::-1][:_BATCH_ROWS]
        active[violated[worst]] = True


def _unique_rows(points: np.ndarray) -> np.ndarray:
    """``np.unique(points, axis=0)``, row for row, by lexsort.

    ``np.unique`` sorts rows through a structured-dtype view with a
    generic comparison; a lexsort over the columns plus an adjacent-row
    comparison finds the same sorted distinct rows several times faster.
    Rows that compare equal are bitwise equal except for the sign of a
    zero, and for a group that mixes ``0.0`` and ``-0.0`` ``np.unique``
    keeps whichever member its unstable sort puts first — so such
    clouds, and clouds with NaNs, are handed to ``np.unique`` itself.
    """
    ordered = points[np.lexsort(points.T[::-1])]
    repeat = (ordered[1:] == ordered[:-1]).all(axis=1)
    mixed_zeros = np.signbit(ordered[1:]) != np.signbit(ordered[:-1])
    if mixed_zeros[repeat].any() or np.isnan(ordered).any():
        return np.unique(points, axis=0)
    first = np.empty(len(ordered), dtype=bool)
    first[:1] = True
    first[1:] = ~repeat
    return ordered[first]


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

    The assembled system is solved by row generation (see
    :func:`_solve_by_row_generation`): HiGHS sees a subset of about a
    hundred rows, grown by the most-violated ones until the solution
    satisfies every row to within ``1e-7``.  The optimum is that of the
    full system up to that tolerance, which is also all a single full
    solve guarantees; the coefficients of the two usually agree in all
    but their last bits.

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
    points = _unique_rows(np.round(points, decimals=12))
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
    cost = np.zeros(len(bounds))
    cost[k] = -1.0

    outcome = _solve_by_row_generation(cost, a_ub, bounds, config.min_margin)
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
