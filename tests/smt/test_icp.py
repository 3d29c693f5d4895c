"""Branch-and-prune solver tests: verdict correctness, witnesses, budgets."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SolverError
from repro.expr import cos, exp, sin, tanh, var
from repro.intervals import Box
from repro.smt import (
    IcpConfig,
    IcpSolver,
    Verdict,
    eq,
    ge,
    gt,
    le,
    lt,
    solve_conjunction,
)

X, Y = var("x"), var("y")
NAMES = ["x", "y"]
BOX = Box.from_bounds([-2.0, -2.0], [2.0, 2.0])


class TestVerdicts:
    def test_unsat_circle(self):
        result = solve_conjunction([le(X * X + Y * Y, -0.5)], BOX, NAMES)
        assert result.verdict is Verdict.UNSAT

    def test_sat_small_disk(self):
        result = solve_conjunction([le(X * X + Y * Y, 0.01)], BOX, NAMES)
        assert result.verdict is Verdict.DELTA_SAT
        assert result.witness is not None
        assert result.witness_validated
        assert float(np.sum(result.witness**2)) <= 0.01 + 0.01

    def test_unsat_outside_region(self):
        # x >= 5 is impossible inside [-2, 2].
        result = solve_conjunction([ge(X, 5.0)], BOX, NAMES)
        assert result.verdict is Verdict.UNSAT

    def test_conjunction_sat(self):
        constraints = [ge(X, 0.5), le(X, 0.6), ge(Y, -0.1), le(Y, 0.1)]
        result = solve_conjunction(constraints, BOX, NAMES)
        assert result.verdict is Verdict.DELTA_SAT
        assert 0.5 - 1e-3 <= result.witness[0] <= 0.6 + 1e-3

    def test_conjunction_unsat_by_combination(self):
        constraints = [ge(X, 1.0), le(X, 2.0), ge(X + Y, 3.9), le(Y, 1.5)]
        # x + y max = 2 + 1.5 = 3.5 < 3.9.
        result = solve_conjunction(constraints, BOX, NAMES)
        assert result.verdict is Verdict.UNSAT

    def test_transcendental_unsat(self):
        # sin(x)^2 + cos(x)^2 = 1, so asking for <= 0.5 is UNSAT.
        result = solve_conjunction(
            [le(sin(X) * sin(X) + cos(X) * cos(X), 0.5)], BOX, NAMES
        )
        assert result.verdict is Verdict.UNSAT

    def test_transcendental_sat_tight(self):
        # tanh(x) = 0.5 at x = atanh(0.5) ~ 0.5493.
        result = solve_conjunction([eq(tanh(X), 0.5)], BOX, NAMES)
        assert result.verdict is Verdict.DELTA_SAT
        assert result.witness[0] == pytest.approx(math.atanh(0.5), abs=5e-3)

    def test_strict_vs_nonstrict_boundary(self):
        # x >= 2 touches the region boundary: delta-sat at the edge.
        result = solve_conjunction([ge(X, 2.0)], BOX, NAMES)
        assert result.verdict is Verdict.DELTA_SAT
        assert result.witness[0] >= 2.0 - 1e-3
        # x > 2 has no solution in the closed box, but its δ-weakening
        # does (x = 2): dReal semantics report delta-sat here, with a
        # witness at the boundary.  A clearly-interior emptiness is
        # still UNSAT:
        result2 = solve_conjunction([gt(X, 2.0)], BOX, NAMES)
        if result2.verdict is Verdict.DELTA_SAT:
            assert result2.witness[0] >= 2.0 - 1e-3
        result3 = solve_conjunction([gt(X, 2.5)], BOX, NAMES)
        assert result3.verdict is Verdict.UNSAT

    def test_exp_constraint(self):
        result = solve_conjunction([ge(exp(X), 10.0)], BOX, NAMES)
        assert result.verdict is Verdict.UNSAT  # e^2 ~ 7.39 < 10
        result2 = solve_conjunction([ge(exp(X), 7.0)], BOX, NAMES)
        assert result2.verdict is Verdict.DELTA_SAT

    def test_no_constraints_is_sat(self):
        result = solve_conjunction([], BOX, NAMES)
        assert result.verdict is Verdict.DELTA_SAT
        assert BOX.contains(result.witness)


class TestConfigAndBudget:
    def test_bad_config_rejected(self):
        with pytest.raises(SolverError):
            IcpConfig(delta=0.0)
        with pytest.raises(SolverError):
            IcpConfig(batch_size=0)
        with pytest.raises(SolverError):
            IcpConfig(max_boxes=0)

    def test_box_budget_unknown(self):
        # Equality on a hairline: tiny budget must return UNKNOWN.
        config = IcpConfig(delta=1e-12, max_boxes=3)
        result = IcpSolver(config).solve([eq(X - Y, 0.0)], BOX, NAMES)
        assert result.verdict is Verdict.UNKNOWN

    def test_time_budget_unknown(self):
        config = IcpConfig(delta=1e-15, time_limit=0.0)
        result = IcpSolver(config).solve([eq(sin(X) - Y, 0.0)], BOX, NAMES)
        assert result.verdict is Verdict.UNKNOWN

    def test_dimension_mismatch(self):
        with pytest.raises(SolverError):
            IcpSolver().solve([le(X, 0.0)], Box.from_bounds([0.0], [1.0]), NAMES)

    def test_unbounded_region_rejected(self):
        unbounded = Box.from_bounds([0.0, 0.0], [math.inf, 1.0])
        with pytest.raises(SolverError):
            IcpSolver().solve([le(X, 0.0)], unbounded, NAMES)

    def test_stats_populated(self):
        result = solve_conjunction([le(X * X + Y * Y, -1.0)], BOX, NAMES)
        assert result.stats.boxes_processed >= 1
        assert result.stats.elapsed_seconds >= 0.0

    def test_delta_controls_witness_precision(self):
        coarse = IcpSolver(IcpConfig(delta=0.5)).solve([eq(X, 0.123)], BOX, NAMES)
        fine = IcpSolver(IcpConfig(delta=1e-4)).solve([eq(X, 0.123)], BOX, NAMES)
        assert abs(fine.witness[0] - 0.123) <= abs(coarse.witness[0] - 0.123) + 1e-6
        assert abs(fine.witness[0] - 0.123) <= 1e-3


class TestAgainstBruteForce:
    """Randomized cross-check: grid sampling vs solver verdict."""

    @given(
        a=st.floats(min_value=-2, max_value=2),
        b=st.floats(min_value=-2, max_value=2),
        c=st.floats(min_value=-3, max_value=3),
    )
    def test_linear_constraint_verdicts(self, a, b, c):
        if abs(a) + abs(b) < 1e-3:
            return
        constraint = le(a * X + b * Y, c)
        result = solve_conjunction([constraint], BOX, NAMES, IcpConfig(delta=1e-2))
        # Brute force on a grid.
        grid = BOX.sample_grid(21)
        exists = any(constraint.satisfied_at(p, NAMES) for p in grid)
        if exists:
            assert result.verdict is Verdict.DELTA_SAT
        elif result.verdict is Verdict.DELTA_SAT:
            # Near-boundary delta-sat is acceptable; the witness must
            # satisfy the delta-relaxed constraint.
            assert constraint.satisfied_at(result.witness, NAMES, slack=0.1)

    @given(r=st.floats(min_value=0.05, max_value=3.0))
    def test_ring_feasibility(self, r):
        constraints = [ge(X * X + Y * Y, r), le(X * X + Y * Y, r + 0.5)]
        result = solve_conjunction(constraints, BOX, NAMES, IcpConfig(delta=1e-2))
        # The ring always intersects the box for r <= 8 (corner norm).
        assert result.verdict is Verdict.DELTA_SAT


class TestContractionGate:
    """``native`` skips HC4 on constraints over 512 expression nodes,
    counted before value numbering merges rebuilt subterms."""

    @staticmethod
    def _rebuilt_sum(copies: int):
        expr = tanh(0.5 * var("x") + var("y")) * var("x")
        for _ in range(copies - 1):
            expr = expr + tanh(0.5 * var("x") + var("y")) * var("x")
        return expr

    def _contractions(self, monkeypatch, copies: int) -> int:
        import repro.smt.icp as icp_module

        calls = []
        inner = icp_module.contract_fixpoint

        def spy(*args, **kwargs):
            calls.append(1)
            return inner(*args, **kwargs)

        monkeypatch.setattr(icp_module, "contract_fixpoint", spy)
        constraint = le(self._rebuilt_sum(copies), -0.25 * copies)
        result = IcpSolver(IcpConfig(delta=0.05)).solve([constraint], BOX, NAMES)
        assert result.verdict in (Verdict.UNSAT, Verdict.DELTA_SAT)
        return len(calls)

    def test_large_expression_skips_contraction_after_value_numbering(self, monkeypatch):
        constraint = le(self._rebuilt_sum(80), 0.0)
        tape = constraint.compiled(NAMES)
        assert len(tape) <= 512 < tape.n_nodes
        assert self._contractions(monkeypatch, 80) == 0

    def test_small_expression_contracts(self, monkeypatch):
        assert self._contractions(monkeypatch, 4) > 0
