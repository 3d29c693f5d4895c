"""Tests for the LP separation-constraint extension.

These constraints steer the LP toward candidates whose level sets can
separate X0 from U — the extension documented in DESIGN.md section 8.
"""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import linprog

import repro.barrier.lp as lp_module
import repro.barrier.synthesis as synthesis_module
from repro.api import family_names, get_family, get_scenario, scenario_names
from repro.barrier import (
    LpConfig,
    QuadraticTemplate,
    Rectangle,
    RectangleComplement,
    fit_generator,
    level_bounds,
)
from repro.barrier.synthesis import _unsafe_boundary_samples, verify_system
from repro.dynamics import (
    ContinuousSystem,
    error_dynamics_system,
    stable_linear_system,
)
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

    def test_row_count_is_linear(self, cloud_4d, solves, monkeypatch):
        system, points, inner, boundary = cloud_4d
        subsets = []

        def recording_linprog(*args, **kwargs):
            subsets.append(kwargs["A_ub"])
            return linprog(*args, **kwargs)

        monkeypatch.setattr(lp_module, "linprog", recording_linprog)
        tmpl = QuadraticTemplate(4)
        fit_generator(tmpl, points, system, separation=(inner, boundary))
        m, v, s = len(points), len(inner), len(boundary)
        (solve,) = solves
        # Columns: k coefficients, the margin t, the auxiliaries a and b.
        assert solve.a_ub.shape == (2 * m + v + s + 1, tmpl.basis_size + 3)
        full_rows = {row.tobytes() for row in solve.a_ub}
        assert subsets
        for subset in subsets:
            assert len(subset) < len(solve.a_ub)
            assert {row.tobytes() for row in subset} <= full_rows


@pytest.fixture
def solves(monkeypatch):
    """Each full system handed to the row-generation solve, with its result."""
    records = []
    solve = lp_module._solve_by_row_generation

    def recording(cost, a_ub, bounds, min_margin):
        outcome = solve(cost, a_ub, bounds, min_margin)
        records.append(SimpleNamespace(cost=cost, a_ub=a_ub, bounds=bounds, outcome=outcome))
        return outcome

    monkeypatch.setattr(lp_module, "_solve_by_row_generation", recording)
    return records


def _full_solve(solve):
    """The reference: one ``linprog`` call over every row of the system."""
    outcome = linprog(
        solve.cost, A_ub=solve.a_ub, b_ub=np.zeros(len(solve.a_ub)),
        bounds=solve.bounds, method="highs",
    )
    assert outcome.success, outcome.message
    return outcome


class _Captured(Exception):
    pass


@pytest.fixture(scope="module")
def dubins_lp():
    """The first LP of the builtin ``dubins`` scenario, as ``fit_generator``
    receives it: ``(args, kwargs)``."""
    captured = []

    def capture(*args, **kwargs):
        captured.append((args, kwargs))
        raise _Captured

    scenario = get_scenario("dubins")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lp_module, "fit_generator", capture)
        with pytest.raises(_Captured):
            verify_system(scenario.problem(), config=scenario.config)
    return captured[0]


@pytest.fixture(scope="module")
def cartpole_lp():
    """The first LP of the ``cartpole`` family's default point with 8
    boundary samples per edge, as the benchmark's 4-D stress workload
    runs it: ``(args, kwargs)``."""
    captured = []

    def capture(*args, **kwargs):
        captured.append((args, kwargs))
        raise _Captured

    scenario = get_family("cartpole").instantiate()
    config = dataclasses.replace(
        scenario.config,
        lp=dataclasses.replace(scenario.config.lp, separation_samples=8),
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lp_module, "fit_generator", capture)
        with pytest.raises(_Captured):
            verify_system(scenario.problem(), config=config)
    return captured[0]


class TestRowGeneration:
    """Row generation returns the optimum of the full system."""

    @pytest.fixture(params=["paper", "cloud-4d", "dubins", "cartpole"])
    def fit(self, request, solves):
        """Run one ``fit_generator`` call; returns its candidate."""
        if request.param == "paper":
            system, points, x0, _, boundary = request.getfixturevalue("setup")
            args = (QuadraticTemplate(2), points, system)
            kwargs = {"separation": (x0.vertices(), boundary)}
        elif request.param == "cloud-4d":
            system, points, inner, boundary = request.getfixturevalue("cloud_4d")
            args = (QuadraticTemplate(4), points, system)
            kwargs = {"separation": (inner, boundary)}
        else:
            args, kwargs = request.getfixturevalue(f"{request.param}_lp")
        return fit_generator(*args, **kwargs)

    def test_matches_full_solve(self, solves, fit):
        (solve,) = solves
        full = _full_solve(solve)
        k = fit.template.basis_size
        assert fit.margin == pytest.approx(full.x[k], rel=1e-9)
        np.testing.assert_allclose(fit.coefficients, full.x[:k], rtol=0, atol=1e-9)

    def test_solution_satisfies_every_row(self, solves, fit):
        (solve,) = solves
        assert (solve.a_ub @ solve.outcome.x).max() <= 1e-7

    def test_unstable_system_infeasible(self, rng, solves):
        unstable = stable_linear_system(np.array([[0.5, 0.0], [0.0, 0.3]]))
        points = rng.uniform(-2.0, 2.0, size=(300, 2))
        with pytest.raises(InfeasibleLPError):
            fit_generator(QuadraticTemplate(2), points, unstable)
        (solve,) = solves
        assert -_full_solve(solve).fun < LpConfig().min_margin

    def test_impossible_separation_infeasible(self, setup, solves):
        system, points, _, _, boundary = setup
        config = LpConfig(min_margin=1e-6)
        with pytest.raises(InfeasibleLPError):
            fit_generator(
                QuadraticTemplate(2), points, system, config,
                separation=(boundary, boundary),
            )
        (solve,) = solves
        assert -_full_solve(solve).fun < config.min_margin


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


_DEFAULT_POINTS = [("scenario", name) for name in scenario_names()] + [
    ("family", name) for name in family_names()
]


@pytest.mark.parametrize(
    "kind, name", _DEFAULT_POINTS, ids=[f"{k}:{n}" for k, n in _DEFAULT_POINTS]
)
def test_boundary_dedupe_matches_np_unique(kind, name, monkeypatch):
    """``_unique_rows`` returns ``np.unique``'s rows on every default boundary.

    The builtin ``cartpole`` covers the largest one: 32 samples per edge
    in 4-D, 238,576 distinct points.
    """
    scenario = get_scenario(name) if kind == "scenario" else get_family(name).instantiate()
    per_edge = scenario.config.lp.separation_samples
    grids = []

    def spy(points):
        grids.append(points.copy())
        return lp_module._unique_rows(points)

    monkeypatch.setattr(synthesis_module, "_unique_rows", spy)
    samples = _unsafe_boundary_samples(scenario.problem(), per_edge)
    (grid,) = grids
    expected = np.unique(grid, axis=0)
    assert samples.shape == expected.shape
    assert samples.tobytes() == expected.tobytes()
    n = scenario.dimension
    assert len(samples) == per_edge**n - (per_edge - 2) ** n
