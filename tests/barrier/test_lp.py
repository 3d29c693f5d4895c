"""Generator-LP tests: known Lyapunov ground truth, infeasibility, hygiene."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.barrier import LpConfig, QuadraticTemplate, fit_generator, points_from_traces
from repro.barrier.lp import _unique_rows
from repro.dynamics import stable_linear_system
from repro.errors import InfeasibleLPError, LinearProgramError
from repro.sim import Trace


@pytest.fixture
def stable_system():
    # Hurwitz A with complex eigenvalues: genuinely needs cross terms.
    return stable_linear_system(np.array([[-0.5, 2.0], [-2.0, -0.5]]))


def cloud(rng, n=300, scale=2.0):
    return rng.uniform(-scale, scale, size=(n, 2))


class TestFitGenerator:
    def test_stable_linear_system_fits(self, stable_system, rng):
        tmpl = QuadraticTemplate(2)
        candidate = fit_generator(tmpl, cloud(rng), stable_system)
        assert candidate.margin > 0.0
        p = tmpl.p_matrix(candidate.coefficients)
        # The candidate must be positive definite...
        assert np.linalg.eigvalsh(p).min() > 0.0
        # ...and its Lie derivative negative on fresh samples.
        fresh = cloud(rng, 200)
        lie = candidate.lie_derivative_values(fresh, stable_system)
        assert np.all(lie < 0.0)

    def test_satisfies_lyapunov_inequality_quality(self, stable_system, rng):
        """The fitted W decreases at least as fast as the LP margin."""
        tmpl = QuadraticTemplate(2)
        candidate = fit_generator(tmpl, cloud(rng), stable_system)
        pts = cloud(rng, 100)
        lie = candidate.lie_derivative_values(pts, stable_system)
        norms = (pts**2).sum(axis=1)
        assert np.all(lie <= -candidate.margin * norms + 1e-9)

    def test_unstable_system_infeasible(self, rng):
        unstable = stable_linear_system(np.array([[0.5, 0.0], [0.0, 0.3]]))
        with pytest.raises(InfeasibleLPError):
            fit_generator(QuadraticTemplate(2), cloud(rng), unstable)

    def test_saddle_never_verifies(self, rng):
        """A saddle may slip past the sampled LP (finite evidence), but
        the SMT stage of the full pipeline must refute it — this is the
        division of labor in the paper's Figure 1 loop."""
        from repro.barrier import (
            Rectangle,
            RectangleComplement,
            SynthesisConfig,
            SynthesisStatus,
            VerificationProblem,
            verify_system,
        )

        saddle = stable_linear_system(np.array([[-1.0, 0.0], [0.0, 1.0]]))
        problem = VerificationProblem(
            saddle,
            Rectangle([-0.4, -0.4], [0.4, 0.4]),
            RectangleComplement(Rectangle([-2.0, -2.0], [2.0, 2.0])),
        )
        report = verify_system(
            problem, config=SynthesisConfig(seed=0, max_candidate_iterations=5)
        )
        assert report.status is not SynthesisStatus.VERIFIED

    def test_dimension_check(self, stable_system):
        with pytest.raises(LinearProgramError):
            fit_generator(QuadraticTemplate(3), np.zeros((5, 2)), stable_system)

    def test_all_origin_points_rejected(self, stable_system):
        points = np.zeros((10, 2))
        with pytest.raises(LinearProgramError):
            fit_generator(QuadraticTemplate(2), points, stable_system)

    def test_near_origin_points_filtered_not_fatal(self, stable_system, rng):
        """Converged trace tails (tiny norms) must not corrupt the LP."""
        points = np.vstack([cloud(rng), rng.normal(size=(200, 2)) * 1e-12])
        candidate = fit_generator(QuadraticTemplate(2), points, stable_system)
        assert candidate.margin > 0.0

    def test_max_points_subsampling(self, stable_system, rng):
        config = LpConfig(max_points=50)
        candidate = fit_generator(
            QuadraticTemplate(2), cloud(rng, 5000), stable_system, config
        )
        assert candidate.margin > 0.0

    def test_coefficients_respect_bound(self, stable_system, rng):
        config = LpConfig(coefficient_bound=0.5)
        candidate = fit_generator(
            QuadraticTemplate(2), cloud(rng), stable_system, config
        )
        assert np.all(np.abs(candidate.coefficients) <= 0.5 + 1e-9)

    def test_expression_matches_numeric(self, stable_system, rng):
        from repro.expr import evaluate

        candidate = fit_generator(QuadraticTemplate(2), cloud(rng), stable_system)
        for _ in range(10):
            p = rng.uniform(-2, 2, size=2)
            numeric = float(candidate.w_values(p[None, :])[0])
            symbolic = evaluate(
                candidate.expression, {"x0": float(p[0]), "x1": float(p[1])}
            )
            assert numeric == pytest.approx(symbolic, rel=1e-10, abs=1e-10)

    def test_known_lyapunov_is_feasible_for_lp(self, stable_system, rng):
        """The analytic Lyapunov solution certifies LP feasibility."""
        a = np.array([[-0.5, 2.0], [-2.0, -0.5]])
        p = scipy.linalg.solve_lyapunov(a.T, -np.eye(2))
        # Scale into the coefficient box.
        tmpl = QuadraticTemplate(2)
        coeffs = np.array([p[0, 0], 2 * p[0, 1], p[1, 1]])
        coeffs = coeffs / np.abs(coeffs).max()
        pts = cloud(rng, 200)
        lie = tmpl.gradient(coeffs, pts)
        flows = stable_system.f_batch(pts)
        assert np.all(np.sum(lie * flows, axis=1) < 0.0)


class TestPointsFromTraces:
    def test_stacks_states(self):
        t1 = Trace(np.array([0.0, 1.0]), np.array([[1.0, 2.0], [3.0, 4.0]]))
        t2 = Trace(np.array([0.0, 1.0]), np.array([[5.0, 6.0], [7.0, 8.0]]))
        stacked = points_from_traces([t1, t2])
        assert stacked.shape == (4, 2)

    def test_extra_points_appended(self):
        t1 = Trace(np.array([0.0, 1.0]), np.array([[1.0, 2.0], [3.0, 4.0]]))
        stacked = points_from_traces([t1], extra_points=np.array([[9.0, 9.0]]))
        assert stacked.shape == (3, 2)
        assert [9.0, 9.0] in stacked.tolist()

    def test_empty_raises(self):
        with pytest.raises(LinearProgramError):
            points_from_traces([])


def _bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


#: few distinct values, so clouds are full of duplicate rows
_POOL = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, -1e-13, 1e-13, 3.25])


class TestUniqueRows:
    """The LP's row dedupe returns ``np.unique(axis=0)``'s array, row for row."""

    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(0, 80), st.integers(1, 4)),
            elements=_POOL,
        )
    )
    def test_matches_np_unique_on_duplicate_heavy_clouds(self, points):
        points = np.round(points, decimals=12)
        assert _bitwise_equal(_unique_rows(points), np.unique(points, axis=0))

    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(0, 80), st.integers(1, 3)),
            elements=st.sampled_from([1.0, -1.0, 0.5, 2.0, 3.25]),
        )
    )
    def test_matches_without_zeros(self, points):
        assert _bitwise_equal(_unique_rows(points), np.unique(points, axis=0))

    def test_signed_zero_groups_keep_np_unique_representative(self, rng):
        rows = rng.choice([0.0, -0.0, 1.0], size=(200, 2))
        assert _bitwise_equal(_unique_rows(rows), np.unique(rows, axis=0))

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_large_trace_like_cloud(self, rng, zero):
        points = np.round(rng.normal(size=(6000, 2)), decimals=12)
        on_axis = np.column_stack([points[:5, 0], np.full(5, zero)])
        points = np.vstack([points, points[:700], on_axis, on_axis + 0.0])
        assert _bitwise_equal(_unique_rows(points), np.unique(points, axis=0))
