"""Tests for the LP separation-constraint extension.

These constraints steer the LP toward candidates whose level sets can
separate X0 from U — the extension documented in DESIGN.md section 8.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import linprog

import repro.barrier.lp as lp_module
from repro.barrier import (
    LpConfig,
    QuadraticTemplate,
    Rectangle,
    RectangleComplement,
    fit_generator,
    level_bounds,
)
from repro.barrier.synthesis import _unsafe_boundary_samples
from repro.dynamics import ContinuousSystem, error_dynamics_system
from repro.errors import InfeasibleLPError
from repro.expr import var
from repro.experiments import paper_initial_set, paper_unsafe_set
from repro.learning import proportional_controller_network


@pytest.fixture
def setup(rng):
    net = proportional_controller_network(6)
    system = error_dynamics_system(net)
    points = rng.uniform([-4.5, -1.3], [4.5, 1.3], size=(400, 2))
    x0 = paper_initial_set()
    unsafe = paper_unsafe_set()
    safe = unsafe.safe_rectangle
    # Dense boundary samples of the safe rectangle's edges.
    edges = []
    for axis in range(2):
        for bound in (safe.lower[axis], safe.upper[axis]):
            other = 1 - axis
            line = np.linspace(safe.lower[other], safe.upper[other], 25)
            pts = np.zeros((25, 2))
            pts[:, axis] = bound
            pts[:, other] = line
            edges.append(pts)
    boundary = np.vstack(edges)
    return system, points, x0, unsafe, boundary


class TestSeparationConstraints:
    def test_separated_candidate_has_level_gap(self, setup):
        system, points, x0, unsafe, boundary = setup
        tmpl = QuadraticTemplate(2)
        candidate = fit_generator(
            tmpl, points, system, separation=(x0.vertices(), boundary)
        )
        lo, hi = level_bounds(
            tmpl, candidate.coefficients, x0, unsafe.halfspaces()
        )
        assert hi > lo  # a separating level exists analytically

    def test_constraint_actually_binds(self, setup):
        """W at every X0 vertex is strictly below W at every boundary
        sample for the separated candidate."""
        system, points, x0, unsafe, boundary = setup
        tmpl = QuadraticTemplate(2)
        candidate = fit_generator(
            tmpl, points, system, separation=(x0.vertices(), boundary)
        )
        w_vertices = candidate.w_values(x0.vertices())
        w_boundary = candidate.w_values(boundary)
        assert w_vertices.max() < w_boundary.min()

    def test_margin_not_destroyed(self, setup):
        """Adding separation keeps a healthy decrease margin."""
        system, points, x0, unsafe, boundary = setup
        tmpl = QuadraticTemplate(2)
        plain = fit_generator(tmpl, points, system)
        separated = fit_generator(
            tmpl, points, system, separation=(x0.vertices(), boundary)
        )
        assert separated.margin > 0.0
        assert separated.margin >= 0.1 * plain.margin

    def test_impossible_separation_infeasible(self, setup, rng):
        """Inner points placed ON the boundary make separation + margin
        impossible; the LP must report infeasibility cleanly."""
        system, points, x0, unsafe, boundary = setup
        tmpl = QuadraticTemplate(2)
        with pytest.raises(InfeasibleLPError):
            fit_generator(
                tmpl,
                points,
                system,
                LpConfig(min_margin=1e-6),
                separation=(boundary, boundary),
            )


def _pairwise_margin(template, points, system, inner, boundary):
    """Optimal margin of the LP with one row per (inner, boundary) pair.

    The reference formulation: decrease and positivity rows as in
    :func:`fit_generator`, then ``W(v) - W(s) + t <= 0`` for every pair,
    each row divided by ``max(|row|, 1)``.
    """
    points = np.unique(np.round(points, decimals=12), axis=0)
    norms_sq = np.sum(points**2, axis=1)[:, None]
    k = template.basis_size
    phi = template.features(points)
    lie = np.einsum(
        "md,mdk->mk", system.f_batch(points), template.gradient_features(points)
    )
    ones = np.ones((len(points), 1))
    diff = template.features(inner)[:, None, :] - template.features(boundary)[None]
    diff = diff.reshape(-1, k)
    scale = np.maximum(np.abs(diff).max(axis=1, keepdims=True), 1.0)
    a_ub = np.vstack([
        np.hstack([lie / norms_sq, ones]),
        np.hstack([-phi / norms_sq, ones]),
        np.hstack([diff / scale, 1.0 / scale]),
    ])
    cost = np.zeros(k + 1)
    cost[-1] = -1.0
    outcome = linprog(
        cost, A_ub=a_ub, b_ub=np.zeros(len(a_ub)),
        bounds=[(-1.0, 1.0)] * k + [(0.0, None)], method="highs",
    )
    assert outcome.success, outcome.message
    return outcome.x[-1]


@pytest.fixture
def cloud_4d(rng):
    """A stable 4-D linear system, a point cloud, the corners of
    ``[-0.5, 0.5]^4`` and samples of the boundary of a box that is tight
    along ``x0`` and ``x2``, so the separation rows bind."""
    x = [var(f"x{i}") for i in range(4)]
    system = ContinuousSystem(
        [f"x{i}" for i in range(4)],
        [-x[0] + 0.5 * x[1], -0.5 * x[0] - x[1], -2.0 * x[2] + x[3], -x[2] - x[3]],
    )
    points = rng.uniform(-2.0, 2.0, size=(300, 4))
    inner = Rectangle([-0.5] * 4, [0.5] * 4).vertices()
    half = np.array([1.0, 3.0, 1.0, 3.0])
    boundary = rng.uniform(-half, half, size=(200, 4))
    rows, axes = np.arange(len(boundary)), rng.integers(0, 4, size=len(boundary))
    boundary[rows, axes] = rng.choice([-1.0, 1.0], len(boundary)) * half[axes]
    return system, points, inner, boundary


class TestAuxiliarySeparation:
    """The v + s + 1 auxiliary-variable rows encode the v * s pairwise rows."""

    def test_paper_setup_matches_pairwise_margin(self, setup):
        system, points, x0, unsafe, boundary = setup
        tmpl = QuadraticTemplate(2)
        candidate = fit_generator(
            tmpl, points, system, separation=(x0.vertices(), boundary)
        )
        reference = _pairwise_margin(tmpl, points, system, x0.vertices(), boundary)
        assert candidate.margin == pytest.approx(reference, rel=1e-9)

    def test_4d_cloud_matches_pairwise_margin(self, cloud_4d):
        system, points, inner, boundary = cloud_4d
        tmpl = QuadraticTemplate(4)
        candidate = fit_generator(tmpl, points, system, separation=(inner, boundary))
        reference = _pairwise_margin(tmpl, points, system, inner, boundary)
        assert candidate.margin == pytest.approx(reference, rel=1e-9)
        # The separation rows bind: they cost margin.
        assert candidate.margin < 0.9 * fit_generator(tmpl, points, system).margin

    def test_row_count_is_linear(self, cloud_4d, monkeypatch):
        system, points, inner, boundary = cloud_4d
        shapes = []

        def recording_linprog(*args, **kwargs):
            shapes.append(kwargs["A_ub"].shape)
            return linprog(*args, **kwargs)

        monkeypatch.setattr(lp_module, "linprog", recording_linprog)
        tmpl = QuadraticTemplate(4)
        fit_generator(tmpl, points, system, separation=(inner, boundary))
        m, v, s = len(points), len(inner), len(boundary)
        # Columns: k coefficients, the margin t, the auxiliaries a and b.
        assert shapes == [(2 * m + v + s + 1, tmpl.basis_size + 3)]


@pytest.mark.parametrize("dimension, per_edge", [(2, 8), (3, 5), (4, 8)])
def test_boundary_samples_are_distinct(dimension, per_edge):
    """Facet grids share edges and corners; each point appears once."""
    safe = Rectangle([-1.0] * dimension, [2.0] * dimension)
    problem = SimpleNamespace(unsafe_set=RectangleComplement(safe))
    samples = _unsafe_boundary_samples(problem, per_edge)
    assert len(samples) == per_edge**dimension - (per_edge - 2) ** dimension
    assert len(np.unique(samples, axis=0)) == len(samples)
    on_boundary = np.any(
        (samples == safe.lower) | (samples == safe.upper), axis=1
    )
    assert on_boundary.all()
