"""Kernel plans: bit-identity with the interpreted evaluators + switch."""

from __future__ import annotations

import numpy as np
import pytest

from repro.expr import (
    absolute,
    atan,
    compile_expression,
    cos,
    exp,
    log,
    maximum,
    minimum,
    sigmoid,
    sin,
    sqrt,
    tan,
    tanh,
    var,
)
from repro.perf import OPCODES, enabled, set_enabled, use_kernels

X, Y = var("x"), var("y")
NAMES = ["x", "y"]

#: every tape op appears in at least one of these
EXPRESSIONS = [
    X * X + Y * Y - 1.0,
    2.5 * X - Y / 3.0 + 7.0,
    X * Y + X / Y,
    minimum(X, Y) + maximum(X, 2.0 * Y),
    -(X**3) + Y**2 - X ** (-2),
    sin(X) + cos(Y) + tan(0.3 * X),
    tanh(X) + sigmoid(Y) + atan(X * Y),
    exp(0.5 * X) + log(Y + 10.0) + sqrt(Y + 10.0) + absolute(X),
    (1.0 + 2.0) * X + (3.0 * 4.0),  # constant-folded subexpressions
]


def _frontier(rng, m):
    lo = rng.uniform(-2.0, 2.0, (m, 2))
    hi = lo + rng.exponential(0.7, (m, 2))
    return lo, hi


@pytest.mark.parametrize("expr", EXPRESSIONS, ids=[str(i) for i in range(len(EXPRESSIONS))])
class TestBitIdentity:
    def test_eval_points(self, expr, rng):
        tape = compile_expression(expr, NAMES)
        points = rng.uniform(-2.0, 2.0, (64, 2))
        with use_kernels(False):
            reference = tape.eval_points(points)
        with use_kernels(True):
            compiled = tape.eval_points(points)
        np.testing.assert_array_equal(reference, compiled)

    def test_eval_boxes(self, expr, rng):
        tape = compile_expression(expr, NAMES)
        lo, hi = _frontier(rng, 41)
        with use_kernels(False):
            ref_lo, ref_hi = tape.eval_boxes(lo, hi)
        with use_kernels(True):
            ker_lo, ker_hi = tape.eval_boxes(lo, hi)
        np.testing.assert_array_equal(ref_lo, ker_lo)
        np.testing.assert_array_equal(ref_hi, ker_hi)

    def test_repeated_calls_reuse_pooled_state(self, expr, rng):
        """Back-to-back kernel passes (workspace reuse) stay identical."""
        tape = compile_expression(expr, NAMES)
        lo, hi = _frontier(rng, 17)
        with use_kernels(True):
            first = tape.eval_boxes(lo, hi)
            second = tape.eval_boxes(lo, hi)
            # A different frontier width re-buckets; then back.
            big_lo, big_hi = _frontier(rng, 130)
            tape.eval_boxes(big_lo, big_hi)
            third = tape.eval_boxes(lo, hi)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(first, third):
            np.testing.assert_array_equal(a, b)

    def test_released_workspace_holds_no_arrays(self, expr, rng):
        """A pooled workspace keeps none of a pass's arrays alive."""
        tape = compile_expression(expr, NAMES)
        plan = tape.kernel()
        lo, hi = _frontier(rng, 41)
        with use_kernels(True):
            tape.eval_boxes(lo, hi)
            tape.eval_points(lo)
        for pool in (plan._box_pool, plan._point_pool):
            ws = pool.acquire(41)
            assert all(slot is None for slot in ws.slots)
            pool.release(ws)


class TestPlanForm:
    def test_integer_program_arrays(self):
        tape = compile_expression(2.0 * X + sin(Y), NAMES)
        plan = tape.kernel()
        assert plan.codes.dtype == np.int16
        assert len(plan.codes) == len(tape)
        assert plan.out.shape == plan.arg1.shape == plan.arg2.shape
        assert set(plan.codes.tolist()) <= set(OPCODES.values())
        assert plan.const_slots.shape == plan.const_values.shape
        assert 2.0 in plan.const_values.tolist()

    def test_plan_is_cached_per_tape(self):
        tape = compile_expression(X + Y, NAMES)
        assert tape.kernel() is tape.kernel()

    def test_const_root(self):
        from repro.expr import const

        for t in (
            compile_expression(const(2.0), ["x"]),
            compile_expression(sin(var("x")) * 0.0 + 2.0, ["x"]),
        ):
            pts = np.zeros((5, 1))
            lo = np.full((5, 1), -1.0)
            hi = np.ones((5, 1))
            with use_kernels(False):
                ref_p = t.eval_points(pts)
                ref_b = t.eval_boxes(lo, hi)
            with use_kernels(True):
                got_p = t.eval_points(pts)
                got_b = t.eval_boxes(lo, hi)
            np.testing.assert_array_equal(ref_p, got_p)
            for a, b in zip(ref_b, got_b):
                np.testing.assert_array_equal(a, b)


class TestSwitch:
    def test_default_enabled(self):
        assert enabled()

    def test_context_manager_restores(self):
        before = enabled()
        with use_kernels(False):
            assert not enabled()
            with use_kernels(True):
                assert enabled()
            assert not enabled()
        assert enabled() is before

    def test_set_enabled_returns_previous(self):
        previous = set_enabled(False)
        try:
            assert previous is True
            assert set_enabled(True) is False
        finally:
            set_enabled(True)
